// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the shared update and recovery pipeline
// (core/update_pipeline.h).

#include "core/update_pipeline.h"

#include <algorithm>

#include "sim/cost_model.h"
#include "util/macros.h"

namespace sae::core {

UpdatePipeline::UpdatePipeline(UpdatePolicy* policy,
                               SnapshotState::Model model,
                               uint32_t record_size, crypto::HashScheme scheme,
                               DurabilityOptions durability)
    : policy_(policy),
      model_(model),
      record_size_(record_size),
      scheme_(scheme),
      durability_options_(std::move(durability)) {}

void UpdatePipeline::PublishLocked() {
  staged_epoch_ = policy_->OwnerEpoch();
  published_epoch_.store(staged_epoch_, std::memory_order_release);
}

SnapshotState UpdatePipeline::StateOf(std::vector<Record> records,
                                      const crypto::Digest& digest_xor) const {
  SnapshotState state;
  state.model = model_;
  state.record_size = record_size_;
  state.scheme = scheme_;
  state.records = std::move(records);
  state.digest_xor = digest_xor;
  return state;
}

Status UpdatePipeline::Load(const std::vector<Record>& records) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  // One key-ordered copy serves both parties and the baseline snapshot.
  // Every caller already passes key order, so the sort is skipped then.
  std::vector<Record> sorted = records;
  if (!std::is_sorted(sorted.begin(), sorted.end(), storage::KeyIdLess)) {
    std::sort(sorted.begin(), sorted.end(), storage::KeyIdLess);
  }
  SAE_ASSIGN_OR_RETURN(std::vector<Record> baseline,
                       policy_->Outsource(std::move(sorted)));
  PublishLocked();
  if (!durability_options_.enabled) return Status::OK();
  SAE_ASSIGN_OR_RETURN(durability_,
                       DurabilityManager::Open(durability_options_));
  // The epoch-1 baseline: until this snapshot is durable, a crash means
  // re-outsourcing from the DO's master copy (Recover -> kNotFound).
  SAE_ASSIGN_OR_RETURN(crypto::Digest digest_xor, policy_->DigestXor());
  return durability_->CheckpointFull(policy_->OwnerEpoch(),
                                     StateOf(std::move(baseline), digest_xor),
                                     /*sync=*/true);
}

Status UpdatePipeline::Recover() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  RecoveryStats timing;
  SAE_ASSIGN_OR_RETURN(std::unique_ptr<DurabilityManager> mgr,
                       DurabilityManager::Open(durability_options_, &timing));
  sim::Stopwatch watch;
  DurabilityManager::Recovered& rec = mgr->recovered();
  if (!rec.has_snapshot) {
    return Status::NotFound("no durable snapshot to recover from");
  }
  if (rec.snapshot.model != model_) {
    return Status::Corruption("snapshot belongs to a different model");
  }
  if (rec.snapshot.record_size != record_size_ ||
      rec.snapshot.scheme != scheme_) {
    return Status::Corruption("snapshot configuration does not match options");
  }
  // The composed records move into Restore, which frees them once the
  // parties are built.
  SAE_RETURN_NOT_OK(
      policy_->Restore(std::move(rec.snapshot.records), rec.snapshot_epoch));
  timing.restore_ms = watch.LapMs();
  // The rebuilt parties must commit to exactly the checkpointed records
  // before any client sees them.
  SAE_ASSIGN_OR_RETURN(crypto::Digest rebuilt, policy_->DigestXor());
  if (rebuilt != rec.snapshot.digest_xor) {
    return Status::Corruption(
        "recovered records do not match the snapshot digest");
  }
  timing.check_ms = watch.LapMs();
  // Replay the WAL tail through the normal apply path. Records at or below
  // the snapshot epoch are already inside it (a crash can land between the
  // snapshot rename and the WAL segment drop); later records must chain
  // epoch-contiguously out of the snapshot.
  for (const WalUpdate& update : rec.wal_tail) {
    if (update.epoch <= rec.snapshot_epoch) continue;
    if (update.epoch != policy_->OwnerEpoch() + 1) {
      return Status::Corruption("wal epoch does not follow recovered state");
    }
    Result<size_t> applied = update.op == WalUpdate::kInsert
                                 ? policy_->ApplyInsert(update.record, true)
                                 : policy_->ApplyDelete(update.id, true);
    if (!applied.ok()) {
      return Status::Corruption("wal replay failed: " +
                                applied.status().message());
    }
    ++timing.replayed;
  }
  timing.replay_ms = watch.LapMs();
  // Authenticate once, after the tail: the unique lock is held and nothing
  // is published before PublishLocked below, so no client can observe a
  // replayed epoch, and replay itself never reads a signature.
  policy_->AuthenticateRecovered();
  timing.sign_ms = watch.LapMs();
  PublishLocked();
  durability_ = std::move(mgr);
  recovery_stats_ = timing;
  return Status::OK();
}

Result<uint64_t> UpdatePipeline::Insert(const Record& record) {
  WalUpdate update;
  update.op = WalUpdate::kInsert;
  update.record = record;
  return Run(std::move(update));
}

Result<uint64_t> UpdatePipeline::Delete(RecordId id) {
  WalUpdate update;
  update.op = WalUpdate::kDelete;
  update.id = id;
  return Run(std::move(update));
}

UpdateStats UpdatePipeline::stats() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return stats_;
}

bool UpdatePipeline::EffectivelyPresent(RecordId id) const {
  auto it = staged_presence_.find(id);
  if (it != staged_presence_.end()) return it->second.first;
  return policy_->HasRecord(id);
}

void UpdatePipeline::RetractLocked(uint64_t first_epoch) {
  if (!wal_dead_ && durability_->RetractStagedFrom(first_epoch).ok()) {
    staged_epoch_ = first_epoch - 1;
    staged_presence_.clear();
    ++wal_generation_;
  } else {
    wal_dead_ = true;
  }
  apply_cv_.notify_all();
}

Status UpdatePipeline::CheckpointIfDueLocked() {
  if (!checkpoint_due_ || staged_epoch_ != policy_->OwnerEpoch()) {
    return Status::OK();
  }
  // Cleared even if the capture fails: the cadence counter stays due, so
  // the next applied update retries.
  checkpoint_due_ = false;
  apply_cv_.notify_all();
  const uint64_t epoch = policy_->OwnerEpoch();
  SAE_ASSIGN_OR_RETURN(crypto::Digest digest_xor, policy_->DigestXor());
  if (durability_->NextCheckpointIsFull()) {
    SAE_ASSIGN_OR_RETURN(std::vector<Record> records,
                         policy_->CaptureRecords());
    return durability_->CheckpointFull(
        epoch, StateOf(std::move(records), digest_xor));
  }
  // O(changes): the pending set accumulated at stage time IS the delta.
  return durability_->CheckpointDelta(epoch, digest_xor);
}

Result<uint64_t> UpdatePipeline::Run(WalUpdate update) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  sim::Stopwatch watch;
  auto fail = [&](Status st) -> Result<uint64_t> {
    ++stats_.failed;
    stats_.latency_ms += watch.ElapsedMs();
    return st;
  };
  if (durability_ != nullptr) {
    apply_cv_.wait(lock, [&] {
      return wal_dead_ || !checkpoint_due_ ||
             staged_epoch_ == policy_->OwnerEpoch();
    });
    if (wal_dead_) {
      return fail(Status::IoError("durable write pipeline failed"));
    }
    Status st = CheckpointIfDueLocked();
    if (!st.ok()) return fail(st);
  }
  const bool insert = update.op == WalUpdate::kInsert;
  const RecordId id = insert ? update.record.id : update.id;
  const bool present = EffectivelyPresent(id);
  if (insert && present) {
    return fail(Status::AlreadyExists("record id already present"));
  }
  if (!insert && !present) {
    return fail(Status::NotFound("no record with this id"));
  }
  const uint64_t my_epoch = staged_epoch_ + 1;
  if (durability_ != nullptr) {
    update.epoch = my_epoch;
    auto staged = durability_->StageUpdate(update);
    if (!staged.ok()) return fail(staged.status());
    staged_epoch_ = my_epoch;
    staged_presence_[id] = {insert, my_epoch};
    const uint64_t my_gen = wal_generation_;
    lock.unlock();
    Status synced = durability_->CommitStaged(staged.value());
    lock.lock();
    if (synced.ok() && !wal_dead_ && wal_generation_ == my_gen) {
      apply_cv_.wait(lock, [&] {
        return wal_dead_ || wal_generation_ != my_gen ||
               policy_->OwnerEpoch() + 1 == my_epoch;
      });
    }
    if (wal_generation_ != my_gen && !wal_dead_) {
      // A failure below us in the pipeline durably retracted the whole
      // staged suffix — this record included — and re-armed. Recovery
      // will never replay it.
      return fail(
          Status::IoError("update retracted: a group-commit neighbor failed"));
    }
    if (!synced.ok() || wal_dead_) {
      // Epochs staged after a failed fsync can never publish. A
      // neighboring leader's retried fsync may still have synced our
      // record, so retract the whole unapplied suffix durably.
      RetractLocked(policy_->OwnerEpoch() + 1);
      return fail(synced.ok()
                      ? Status::IoError("durable write pipeline failed")
                      : synced);
    }
  }
  // The applying update holds the unique lock, so the shipped-bytes delta
  // is exactly this update's traffic.
  const uint64_t shipped0 = policy_->ShippedBytes();
  Result<size_t> applied = insert ? policy_->ApplyInsert(update.record, false)
                                  : policy_->ApplyDelete(id, false);
  const size_t auth_bytes = applied.ok() ? applied.value() : 0;
  stats_.shipment_bytes += policy_->ShippedBytes() - shipped0 - auth_bytes;
  stats_.auth_bytes += auth_bytes;
  stats_.latency_ms += watch.ElapsedMs();
  if (!applied.ok()) {
    ++stats_.failed;
    // Our record may already be durable, and later updates may be staged
    // on top of it: retract from our epoch on.
    if (durability_ != nullptr) RetractLocked(my_epoch);
    return applied.status();
  }
  ++(insert ? stats_.inserts : stats_.deletes);
  const uint64_t epoch = policy_->OwnerEpoch();
  published_epoch_.store(epoch, std::memory_order_release);
  if (durability_ == nullptr) return epoch;
  auto it = staged_presence_.find(id);
  if (it != staged_presence_.end() && it->second.second == my_epoch) {
    staged_presence_.erase(it);
  }
  apply_cv_.notify_all();
  if (durability_->ShouldSnapshot()) checkpoint_due_ = true;
  // The update itself is already durable; a failing capture still
  // surfaces.
  SAE_RETURN_NOT_OK(CheckpointIfDueLocked());
  return epoch;
}

}  // namespace sae::core
