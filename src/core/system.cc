// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the end-to-end SaeSystem and TomSystem harnesses
// (core/system.h): the shared-mutex reader-writer discipline, the
// epoch-versioned update pipeline, and the freshness adversaries
// (kReplayStaleRoot / kStaleVt) that answer from pre-update snapshots.

#include "core/system.h"

#include <algorithm>
#include <future>
#include <limits>

#include "core/messages.h"
#include "core/query_engine.h"
#include "sim/cost_model.h"
#include "util/macros.h"

namespace sae::core {

namespace {

constexpr Key kMinKey = std::numeric_limits<Key>::min();
constexpr Key kMaxKey = std::numeric_limits<Key>::max();

// The epoch a freshness adversary claims: the snapshot's epoch when one
// exists, and in any case strictly behind the published epoch — a replay
// staged before any update occurred still announces itself as stale, so
// "malicious" never silently means "honest".
uint64_t StaleClaim(bool captured, uint64_t stale_epoch, uint64_t published) {
  uint64_t behind = published > 0 ? published - 1 : 0;
  return captured ? std::min(stale_epoch, behind) : behind;
}

}  // namespace

// --- SaeSystem ---------------------------------------------------------------

SaeSystem::SaeSystem(const Options& options)
    : options_(options),
      owner_(options.record_size),
      sp_(ServiceProvider::Options{options.record_size,
                                   options.sp_index_pool_pages,
                                   options.sp_heap_pool_pages,
                                   options.sp_answer_cache}),
      te_(TrustedEntity::Options{options.record_size, options.scheme,
                                 options.te_pool_pages, options.xb_options,
                                 options.te_vt_cache}),
      client_memo_(options.client_memo),
      pipeline_(this, SnapshotState::kSae, uint32_t(options.record_size),
                options.scheme, options.durability) {}

Result<std::unique_ptr<SaeSystem>> SaeSystem::Recover(const Options& options) {
  auto system = std::make_unique<SaeSystem>(options);
  SAE_RETURN_NOT_OK(system->pipeline_.Recover());
  return system;
}

Result<std::vector<Record>> SaeSystem::Outsource(std::vector<Record> sorted) {
  SAE_RETURN_NOT_OK(owner_.Outsource(sorted, &sp_, &te_, &do_sp_, &do_te_));
  return sorted;  // the master copy holds exactly these records
}

Status SaeSystem::Restore(std::vector<Record> sorted, uint64_t epoch) {
  SAE_RETURN_NOT_OK(owner_.Outsource(sorted, &sp_, &te_, &do_sp_, &do_te_));
  owner_.RestoreEpoch(epoch, &sp_, &te_);
  return Status::OK();
}

Result<size_t> SaeSystem::ApplyInsert(const Record& record, bool) {
  SAE_RETURN_NOT_OK(owner_.InsertRecord(record, &sp_, &te_, &do_sp_, &do_te_));
  return 2 * SerializeEpochNotice(0).size();
}

Result<size_t> SaeSystem::ApplyDelete(RecordId id, bool) {
  SAE_RETURN_NOT_OK(owner_.DeleteRecord(id, &sp_, &te_, &do_sp_, &do_te_));
  return 2 * SerializeEpochNotice(0).size();
}

Result<crypto::Digest> SaeSystem::DigestXor() const {
  return te_.xb_tree().GenerateVT(kMinKey, kMaxKey);
}

Result<SaeSystem::QueryOutcome> SaeSystem::Query(
    const dbms::QueryRequest& request, AttackMode attack) {
  QueryEngine engine;  // no workers: the batch of one runs on this thread
  QueryEngine::SaeBatch batch =
      engine.Run(this, {BatchQuery{request, attack}});
  return std::move(batch.outcomes[0]);
}

void SaeSystem::BeforeFirstUpdate() {
  // Freeze the pre-update database once, right before the first update
  // ever applied: the replay adversary will answer from this state.
  auto snapshot = sp_.ExecuteRange(kMinKey, kMaxKey);
  if (!snapshot.ok()) return;  // leave uncaptured; replay degrades cleanly
  stale_records_ = std::move(snapshot.value());
  stale_epoch_ = owner_.epoch();
  stale_captured_ = true;
}

const ServiceProvider* SaeSystem::StaleSp() {
  if (!stale_captured_) return nullptr;
  std::call_once(stale_build_once_, [this] {
    auto sp = std::make_unique<ServiceProvider>(ServiceProvider::Options{
        options_.record_size, options_.sp_index_pool_pages,
        options_.sp_heap_pool_pages, options_.sp_answer_cache});
    if (sp->LoadDataset(stale_records_).ok()) {
      sp->SetEpoch(stale_epoch_);
      stale_sp_ = std::move(sp);
    }
    stale_records_.clear();
    stale_records_.shrink_to_fit();
  });
  return stale_sp_.get();
}

Result<SaeSystem::QueryOutcome> SaeSystem::ExecuteQuery(
    const dbms::QueryRequest& request, AttackMode attack) {
  // Shared (reader) lock for the whole query: the epoch observed by the
  // SP answer, the TE token, and the client check is one frozen snapshot.
  auto lock = pipeline_.ReadLock();
  uint64_t published = owner_.epoch();
  uint64_t seed = attack_seed_.fetch_add(1, std::memory_order_relaxed);

  QueryOutcome outcome;
  outcome.request = request;
  // Per-thread pool counters and per-query channel sessions keep the cost
  // attribution exact when many queries run concurrently.
  storage::BufferPool::Stats sp_index0 = sp_.index_pool_thread_stats();
  storage::BufferPool::Stats sp_heap0 = sp_.heap_pool_thread_stats();
  storage::BufferPool::Stats te0 = te_.pool_thread_stats();

  // Client -> SP: execute the plan; the SP may be compromised. A replaying
  // SP serves from the pre-update snapshot and (honestly) stamps the
  // snapshot's epoch — the freshness check, not the XOR, catches it.
  ServiceProvider::PlanResult plan;
  uint64_t claimed_epoch = sp_.epoch();
  if (attack == AttackMode::kReplayStaleRoot ||
      attack == AttackMode::kStaleCacheReplay) {
    const ServiceProvider* stale = StaleSp();
    claimed_epoch = StaleClaim(stale != nullptr, stale_epoch_, published);
    const ServiceProvider& source = stale != nullptr ? *stale : sp_;
    if (attack == AttackMode::kStaleCacheReplay) {
      // Warm the stale SP's answer cache, then serve from it: the replayed
      // bytes literally come out of a cache entry keyed to the old epoch.
      SAE_RETURN_NOT_OK(source.ExecutePlan(request).status());
    }
    SAE_ASSIGN_OR_RETURN(plan, source.ExecutePlan(request));
  } else if (attack == AttackMode::kPoisonedCache) {
    // The SP poisons its own cache: tampered bytes ship now and persist
    // for later honest queries until an epoch bump flushes the cache.
    SAE_ASSIGN_OR_RETURN(plan, sp_.ExecutePoisonedPlan(request, seed));
  } else {
    SAE_ASSIGN_OR_RETURN(plan, sp_.ExecutePlan(request));
  }
  // Record attacks tamper the witness and re-derive the answer from it (a
  // consistent lie the range proof catches); answer attacks leave the
  // witness honest and falsify the derived fields (CheckAnswer's job).
  std::vector<Record> witness =
      ApplyAttack(std::move(plan.witness), attack, codec(), seed);
  dbms::QueryAnswer answer = IsRecordAttack(attack)
                                 ? dbms::EvaluateAnswer(request, witness)
                                 : std::move(plan.answer);
  ApplyAnswerAttack(&answer, attack, seed);
  std::vector<uint8_t> result_msg =
      SerializeQueryAnswer(answer, witness, claimed_epoch, codec());
  sim::Channel::Session sp_session = sp_client_.OpenSession();
  sp_session.Send(result_msg);
  outcome.costs.result_bytes = sp_session.bytes();
  outcome.costs.sp_index_accesses =
      (sp_.index_pool_thread_stats() - sp_index0).accesses;
  outcome.costs.sp_heap_accesses =
      (sp_.heap_pool_thread_stats() - sp_heap0).accesses;

  // Client -> TE: verification token (the TE itself is always honest; a
  // kStaleVt adversary replays a token captured before the last update).
  SAE_ASSIGN_OR_RETURN(VerificationToken vt, te_.GenerateVt(request));
  if (attack == AttackMode::kStaleVt) {
    vt.epoch = vt.epoch > 0 ? vt.epoch - 1 : 0;
  }
  std::vector<uint8_t> vt_msg = SerializeVt(vt);
  sim::Channel::Session te_session = te_client_.OpenSession();
  te_session.Send(vt_msg);
  outcome.costs.auth_bytes = te_session.bytes();
  outcome.costs.te_accesses = (te_.pool_thread_stats() - te0).accesses;

  // Client: decode and verify — freshness gates, then the XOR check over
  // the witness, then the answer recomputation (Client::VerifyAnswer).
  SAE_ASSIGN_OR_RETURN(QueryAnswerMessage received,
                       DeserializeQueryAnswer(result_msg, codec()));
  outcome.answer = std::move(received.answer);
  outcome.results = std::move(received.witness);
  outcome.claimed_epoch = received.epoch;
  SAE_ASSIGN_OR_RETURN(outcome.vt, DeserializeVt(vt_msg));
  sim::Stopwatch watch;
  outcome.verification = client_memo_.VerifyAnswer(
      request, outcome.answer, outcome.results, outcome.vt,
      outcome.claimed_epoch, published, codec(), options_.scheme);
  outcome.costs.client_verify_ms = watch.ElapsedMs();
  return outcome;
}

// --- TomSystem ---------------------------------------------------------------

TomSystem::TomSystem(const Options& options)
    : options_(options),
      codec_(options.record_size),
      owner_(TomDataOwner::Options{options.record_size, options.scheme,
                                   options.rsa_modulus_bits, options.rsa_seed,
                                   options.do_pool_pages,
                                   options.mb_options}),
      sp_(TomServiceProvider::Options{options.record_size, options.scheme,
                                      options.sp_index_pool_pages,
                                      options.sp_heap_pool_pages,
                                      options.mb_options,
                                      options.sp_answer_cache}),
      client_memo_(options.client_memo),
      pipeline_(this, SnapshotState::kTom, uint32_t(options.record_size),
                options.scheme, options.durability) {}

Result<std::unique_ptr<TomSystem>> TomSystem::Recover(const Options& options) {
  auto system = std::make_unique<TomSystem>(options);
  SAE_RETURN_NOT_OK(system->pipeline_.Recover());
  return system;
}

Status TomSystem::LoadParties(const std::vector<Record>& sorted,
                              uint64_t epoch) {
  // The owner and the SP each build their own ADS from the records and
  // share no state, so they load concurrently. Both stay unsigned until
  // AuthenticateRecovered signs the root.
  auto sp_loaded = std::async(std::launch::async, [&] {
    return sp_.LoadDataset(sorted, crypto::RsaSignature(), epoch);
  });
  Status owner_loaded = owner_.LoadDataset(sorted, epoch);
  SAE_RETURN_NOT_OK(sp_loaded.get());
  return owner_loaded;
}

Result<std::vector<Record>> TomSystem::Outsource(std::vector<Record> sorted) {
  SAE_RETURN_NOT_OK(LoadParties(sorted, 1));  // outsourcing is epoch 1
  AuthenticateRecovered();  // signs epoch 1 and installs it at the SP
  do_sp_.SendBytes(RecordsMessageSize(sorted.size(), codec_));
  do_sp_.Send(SerializeSignature(owner_.signature(), owner_.epoch()));
  // The SP's heap keeps each payload zero-padded to the record size, so
  // padding here yields exactly what CaptureRecords reads back.
  for (Record& record : sorted) record.payload.resize(codec_.payload_size());
  return sorted;
}

Status TomSystem::Restore(std::vector<Record> sorted, uint64_t epoch) {
  // Local disk, unsigned: AuthenticateRecovered signs after the WAL tail.
  return LoadParties(sorted, epoch);
}

void TomSystem::AuthenticateRecovered() {
  owner_.Sign();
  sp_.SetSignature(owner_.signature(), owner_.epoch());
}

size_t TomSystem::ShipWithSignature(const std::vector<uint8_t>& message) {
  std::vector<uint8_t> sig_msg =
      SerializeSignature(owner_.signature(), owner_.epoch());
  do_sp_.Send(message);
  do_sp_.Send(sig_msg);
  return sig_msg.size();
}

Result<size_t> TomSystem::ApplyInsert(const Record& record, bool replay) {
  SAE_RETURN_NOT_OK(owner_.InsertRecord(record, /*sign=*/!replay));
  size_t auth_bytes =
      replay ? 0 : ShipWithSignature(SerializeRecords({record}, codec_));
  SAE_RETURN_NOT_OK(
      sp_.ApplyInsert(record, owner_.signature(), owner_.epoch()));
  return auth_bytes;
}

Result<size_t> TomSystem::ApplyDelete(RecordId id, bool replay) {
  SAE_RETURN_NOT_OK(owner_.DeleteRecord(id, /*sign=*/!replay));
  size_t auth_bytes =
      replay ? 0 : ShipWithSignature(SerializeDelete(id, 0));
  SAE_RETURN_NOT_OK(sp_.ApplyDelete(id, owner_.signature(), owner_.epoch()));
  return auth_bytes;
}

Result<std::vector<Record>> TomSystem::CaptureRecords() const {
  SAE_ASSIGN_OR_RETURN(TomServiceProvider::QueryResponse range,
                       sp_.ExecuteRange(kMinKey, kMaxKey));
  return std::move(range.results);
}

Result<TomSystem::QueryOutcome> TomSystem::Query(
    const dbms::QueryRequest& request, AttackMode attack) {
  QueryEngine engine;  // no workers: the batch of one runs on this thread
  QueryEngine::TomBatch batch =
      engine.Run(this, {BatchQuery{request, attack}});
  return std::move(batch.outcomes[0]);
}

void TomSystem::BeforeFirstUpdate() {
  auto snapshot = sp_.ExecuteRange(kMinKey, kMaxKey);
  if (!snapshot.ok()) return;
  stale_records_ = std::move(snapshot.value().results);
  stale_signature_ = owner_.signature();  // pre-update: not yet re-signed
  stale_epoch_ = owner_.epoch();
  stale_captured_ = true;
}

const TomServiceProvider* TomSystem::StaleSp() {
  if (!stale_captured_) return nullptr;
  std::call_once(stale_build_once_, [this] {
    auto sp = std::make_unique<TomServiceProvider>(
        TomServiceProvider::Options{options_.record_size, options_.scheme,
                                    options_.sp_index_pool_pages,
                                    options_.sp_heap_pool_pages,
                                    options_.mb_options,
                                    options_.sp_answer_cache});
    if (sp->LoadDataset(stale_records_, stale_signature_, stale_epoch_)
            .ok()) {
      stale_sp_ = std::move(sp);
    }
    stale_records_.clear();
    stale_records_.shrink_to_fit();
  });
  return stale_sp_.get();
}

Result<TomSystem::QueryOutcome> TomSystem::ExecuteQuery(
    const dbms::QueryRequest& request, AttackMode attack) {
  auto lock = pipeline_.ReadLock();
  uint64_t published = owner_.epoch();
  uint64_t seed = attack_seed_.fetch_add(1, std::memory_order_relaxed);

  QueryOutcome outcome;
  outcome.request = request;
  storage::BufferPool::Stats sp_index0 = sp_.index_pool_thread_stats();
  storage::BufferPool::Stats sp_heap0 = sp_.heap_pool_thread_stats();

  TomServiceProvider::PlanResponse response;
  if (attack == AttackMode::kReplayStaleRoot ||
      attack == AttackMode::kStaleCacheReplay) {
    // Full replay: stale results + stale VO + the stale epoch-stamped
    // signature — internally consistent, cryptographically valid for its
    // own epoch. Only the freshness gate can reject it. The cache-replay
    // variant serves the second of two identical calls, so the replayed
    // bytes come straight out of a cache entry keyed to the old epoch.
    const TomServiceProvider* stale = StaleSp();
    const TomServiceProvider& source = stale != nullptr ? *stale : sp_;
    if (attack == AttackMode::kStaleCacheReplay) {
      SAE_RETURN_NOT_OK(source.ExecutePlan(request).status());
    }
    SAE_ASSIGN_OR_RETURN(response, source.ExecutePlan(request));
    response.vo.epoch = StaleClaim(stale != nullptr, stale_epoch_, published);
  } else if (attack == AttackMode::kPoisonedCache) {
    // The SP poisons its own cache: tampered witness bytes ship with the
    // honest VO (the VO disproves them) and persist in the cache for later
    // honest queries until a signature install flushes it.
    SAE_ASSIGN_OR_RETURN(response, sp_.ExecutePoisonedPlan(request, seed));
  } else if (attack == AttackMode::kStaleVt) {
    // Stale authentication against the current result: the SP presents an
    // old epoch's signature (TOM's analog of a replayed TE token).
    SAE_ASSIGN_OR_RETURN(response, sp_.ExecutePlan(request));
    response.vo.epoch = StaleClaim(stale_captured_, stale_epoch_, published);
    if (stale_captured_) response.vo.signature = stale_signature_;
  } else {
    SAE_ASSIGN_OR_RETURN(response, sp_.ExecutePlan(request));
  }
  // Record attacks tamper the witness (and the answer re-derives from the
  // tampered set — a consistent lie the VO catches); answer attacks leave
  // the witness honest and falsify only the derived answer.
  std::vector<Record> witness =
      ApplyAttack(std::move(response.witness), attack, codec_, seed);
  dbms::QueryAnswer answer = IsRecordAttack(attack)
                                 ? dbms::EvaluateAnswer(request, witness)
                                 : std::move(response.answer);
  ApplyAnswerAttack(&answer, attack, seed);
  outcome.vo = std::move(response.vo);

  std::vector<uint8_t> result_msg =
      SerializeQueryAnswer(answer, witness, outcome.vo.epoch, codec_);
  std::vector<uint8_t> vo_msg = outcome.vo.Serialize();
  sim::Channel::Session session = sp_client_.OpenSession();
  session.Send(result_msg);
  outcome.costs.result_bytes = session.bytes();
  session.Send(vo_msg);
  outcome.costs.auth_bytes = session.bytes() - outcome.costs.result_bytes;
  outcome.costs.sp_index_accesses =
      (sp_.index_pool_thread_stats() - sp_index0).accesses;
  outcome.costs.sp_heap_accesses =
      (sp_.heap_pool_thread_stats() - sp_heap0).accesses;

  SAE_ASSIGN_OR_RETURN(QueryAnswerMessage received,
                       DeserializeQueryAnswer(result_msg, codec_));
  outcome.answer = std::move(received.answer);
  outcome.results = std::move(received.witness);
  SAE_ASSIGN_OR_RETURN(mbtree::VerificationObject vo,
                       mbtree::VerificationObject::Deserialize(vo_msg));
  sim::Stopwatch watch;
  outcome.verification = client_memo_.VerifyAnswer(
      request, outcome.answer, outcome.results, vo, vo_msg,
      owner_.public_key(), codec_, options_.scheme, published);
  outcome.costs.client_verify_ms = watch.ElapsedMs();
  return outcome;
}

}  // namespace sae::core
