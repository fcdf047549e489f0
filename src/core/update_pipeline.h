// Copyright (c) saedb authors. Licensed under the MIT license.
//
// The update and recovery pipeline both outsourcing models share. SAE and
// TOM differ only in how an update refreshes authentication (an epoch
// notice to the TE vs. a re-signed MB-tree root); everything around that —
// the writer lock, the published epoch, validation, the write-ahead log,
// group commit, ordered apply, retraction, checkpoints and recovery — lives
// here once. A system plugs in through UpdatePolicy.
//
// Concurrency discipline (reader-writer + epoch snapshot): queries hold the
// pipeline's shared_mutex shared for their whole run (ReadLock), so a query
// observes one frozen epoch end to end; updates hold it unique while they
// validate, stage and apply.
//
// One durable update, with durability on:
//   1. validate against the owner state PLUS every staged-but-unapplied
//      change (staged_presence_), so the WAL never records an update its
//      apply would reject;
//   2. stage the WAL record at epoch staged_epoch_ + 1;
//   3. commit it durable OUTSIDE the lock — concurrent committers share one
//      fsync;
//   4. re-enter and wait on apply_cv_ for the update's turn: applies run in
//      staged epoch order, so a synced record precedes every apply it
//      covers;
//   5. apply through the policy and publish the new epoch;
//   6. when the checkpoint cadence is due, capture a checkpoint once
//      nothing is staged-but-unapplied. A due checkpoint holds new stagers
//      until the in-flight group has applied, so steady concurrent commits
//      cannot starve it.
// When a group fsync or an apply fails, the unpublishable staged suffix is
// durably RETRACTED (a WAL kAbort marker) and wal_generation_ bumps:
// waiters from the old generation fail without applying, and the pipeline
// re-arms for new updates. Only if the retraction itself cannot be made
// durable does wal_dead_ set — the suffix's post-crash outcome is then
// unknown, so every later update is refused until restart.

#ifndef SAE_CORE_UPDATE_PIPELINE_H_
#define SAE_CORE_UPDATE_PIPELINE_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/durability.h"
#include "crypto/digest.h"
#include "util/status.h"

namespace sae::core {

/// Aggregate cost of the update pipeline (DO -> parties), accumulated per
/// system across all Insert/Delete calls. `shipment_bytes` is the record /
/// deletion-notice traffic; `auth_bytes` is the epoch-notice (SAE) or
/// root-signature (TOM) traffic riding along with it.
struct UpdateStats {
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t failed = 0;          ///< rejected updates (duplicate id, ...)
  size_t shipment_bytes = 0;
  size_t auth_bytes = 0;
  double latency_ms = 0.0;      ///< summed wall time in the writer section
};

/// What one outsourcing model supplies to the pipeline. Every call runs
/// under the pipeline's unique lock.
class UpdatePolicy {
 public:
  /// The owner's epoch: 1 after outsourcing, +1 per applied update.
  virtual uint64_t OwnerEpoch() const = 0;
  /// Whether the owner's master copy holds `id`.
  virtual bool HasRecord(RecordId id) const = 0;
  /// Outsources `sorted` (storage::KeyIdLess order) to the parties as
  /// epoch 1 and hands the records back as the epoch-1 baseline snapshot
  /// persists them: exactly what CaptureRecords() would return now.
  virtual Result<std::vector<Record>> Outsource(std::vector<Record> sorted) = 0;
  /// Recovery: rebuilds the parties from checkpointed `sorted` records
  /// (KeyIdLess order) and rewinds them to `epoch`. Authentication may be
  /// left stale until AuthenticateRecovered.
  virtual Status Restore(std::vector<Record> sorted, uint64_t epoch) = 0;
  /// Apply one update through the owner to every party, bumping the epoch;
  /// return the authentication bytes shipped with it. `replay` marks a WAL
  /// record re-applied by Recover: the update crossed the network before
  /// the crash, so a model that restores from local disk ships (and
  /// returns) nothing for it, and its epoch is never published, so the
  /// apply need not refresh authentication (TOM does not sign it).
  virtual Result<size_t> ApplyInsert(const Record& record, bool replay) = 0;
  virtual Result<size_t> ApplyDelete(RecordId id, bool replay) = 0;
  /// Recovery, after the WAL tail and before the recovered epoch is
  /// published: authenticates the recovered state once (TOM signs its root
  /// at the recovered epoch; SAE's epoch notices already reached its
  /// parties during Restore and replay, so it has nothing to do).
  virtual void AuthenticateRecovered() = 0;
  /// Bytes the owner has shipped so far, over all its channels.
  virtual uint64_t ShippedBytes() const = 0;
  /// The full dataset in key order (full checkpoints).
  virtual Result<std::vector<Record>> CaptureRecords() const = 0;
  /// XOR of the digests of every current record — what snapshots persist
  /// and recovery checks.
  virtual Result<crypto::Digest> DigestXor() const = 0;

 protected:
  // Never deleted through this base: a system implements its own policy.
  ~UpdatePolicy() = default;
};

class UpdatePipeline {
 public:
  UpdatePipeline(UpdatePolicy* policy, SnapshotState::Model model,
                 uint32_t record_size, crypto::HashScheme scheme,
                 DurabilityOptions durability);

  /// Outsources `records` and publishes epoch 1. With durability enabled,
  /// also opens the WAL and writes the epoch-1 baseline snapshot.
  Status Load(const std::vector<Record>& records);

  /// Rebuilds the system from its durability directory after a crash:
  /// restores the newest intact snapshot chain, checks the rebuilt digest
  /// XOR against the persisted one, replays the WAL tail past the chain
  /// epoch through the normal apply path, authenticates the result once
  /// and republishes. kNotFound when no valid snapshot exists;
  /// kCorruption when the disk contradicts itself or this system's
  /// configuration.
  Status Recover();

  /// The write-ahead update pipeline; returns the epoch the update
  /// published.
  Result<uint64_t> Insert(const Record& record);
  Result<uint64_t> Delete(RecordId id);

  /// Shared (reader) lock for one query.
  std::shared_lock<std::shared_mutex> ReadLock() const {
    return std::shared_lock<std::shared_mutex>(mu_);
  }

  /// Latest published epoch, readable without any lock.
  uint64_t epoch() const {
    return published_epoch_.load(std::memory_order_acquire);
  }

  UpdateStats stats() const;

  /// Phase timings of the Recover() that built this system (zeroed when
  /// it was loaded instead).
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

  /// Attached durability manager; nullptr when durability is off.
  DurabilityManager* durability() { return durability_.get(); }
  DurabilityStats durability_stats() const {
    return durability_ != nullptr ? durability_->stats() : DurabilityStats{};
  }
  Status WaitForCheckpoints() {
    return durability_ != nullptr ? durability_->WaitForCheckpoints()
                                  : Status::OK();
  }

 private:
  Result<uint64_t> Run(WalUpdate update);
  /// Publishes the owner epoch as both the visible and the staged epoch.
  void PublishLocked();
  /// Presence of `id` as the update being validated will observe it.
  bool EffectivelyPresent(RecordId id) const;
  /// Durably retracts every staged record from `first_epoch` on and
  /// re-arms; fails stop when the retraction cannot be made durable.
  void RetractLocked(uint64_t first_epoch);
  /// A full checkpoint's state: `records` under this system's header.
  SnapshotState StateOf(std::vector<Record> records,
                        const crypto::Digest& digest_xor) const;
  /// Captures the due checkpoint once nothing is staged-but-unapplied:
  /// the WAL rotation inside the capture is then barrier-free and the
  /// pending set is exactly the state delta.
  Status CheckpointIfDueLocked();

  UpdatePolicy* policy_;
  const SnapshotState::Model model_;
  const uint32_t record_size_;
  const crypto::HashScheme scheme_;
  const DurabilityOptions durability_options_;

  mutable std::shared_mutex mu_;
  std::atomic<uint64_t> published_epoch_{0};
  UpdateStats stats_;
  RecoveryStats recovery_stats_;  // written once, by Recover

  // Group-commit state, written under the unique lock (see the header
  // comment). staged_presence_ maps id -> (present, staged epoch).
  uint64_t staged_epoch_ = 0;
  uint64_t wal_generation_ = 0;
  std::unordered_map<RecordId, std::pair<bool, uint64_t>> staged_presence_;
  std::condition_variable_any apply_cv_;
  bool wal_dead_ = false;
  bool checkpoint_due_ = false;

  // nullptr when durability is off.
  std::unique_ptr<DurabilityManager> durability_;
};

}  // namespace sae::core

#endif  // SAE_CORE_UPDATE_PIPELINE_H_
