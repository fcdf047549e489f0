// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the two outsourcing models behind System<Model>
// (core/system.h): each model's UpdatePolicy and its body of one query
// run, the SP's attacks included.

#include "core/system.h"

#include <future>
#include <limits>

#include "core/messages.h"
#include "sim/cost_model.h"
#include "util/macros.h"

namespace sae::core {

namespace {

constexpr Key kMinKey = std::numeric_limits<Key>::min();
constexpr Key kMaxKey = std::numeric_limits<Key>::max();

// The epoch a freshness adversary claims: one behind the published epoch,
// over the live state. Only the freshness gate can tell it from an honest
// answer, so the modes pin that gate; genuine old-state replays, served
// by a never-updated twin system, are tested in tests/security_test.cc.
uint64_t StaleClaim(uint64_t published) {
  return published > 0 ? published - 1 : 0;
}

}  // namespace

// --- SaeModel ----------------------------------------------------------------

SaeModel::SaeModel(const Options& options)
    : options_(options),
      owner_(options.record_size),
      sp_(ServiceProvider::Options{options.record_size,
                                   options.sp_index_pool_pages,
                                   options.sp_heap_pool_pages,
                                   options.sp_answer_cache}),
      te_(TrustedEntity::Options{options.record_size, options.scheme,
                                 options.te_pool_pages, options.xb_options,
                                 options.te_vt_cache}),
      client_memo_(options.client_memo) {}

Result<std::vector<Record>> SaeModel::Outsource(std::vector<Record> sorted) {
  SAE_RETURN_NOT_OK(owner_.Outsource(sorted, &sp_, &te_, &do_sp_, &do_te_));
  return sorted;  // the master copy holds exactly these records
}

Status SaeModel::Restore(std::vector<Record> sorted, uint64_t epoch) {
  SAE_RETURN_NOT_OK(owner_.Outsource(sorted, &sp_, &te_, &do_sp_, &do_te_));
  owner_.RestoreEpoch(epoch, &sp_, &te_);
  return Status::OK();
}

Result<size_t> SaeModel::ApplyInsert(const Record& record, bool) {
  SAE_RETURN_NOT_OK(owner_.InsertRecord(record, &sp_, &te_, &do_sp_, &do_te_));
  return 2 * SerializeEpochNotice(0).size();
}

Result<size_t> SaeModel::ApplyDelete(RecordId id, bool) {
  SAE_RETURN_NOT_OK(owner_.DeleteRecord(id, &sp_, &te_, &do_sp_, &do_te_));
  return 2 * SerializeEpochNotice(0).size();
}

Result<crypto::Digest> SaeModel::DigestXor() const {
  return te_.xb_tree().GenerateVT(kMinKey, kMaxKey);
}

Result<SaeModel::QueryOutcome> SaeModel::RunQuery(
    const dbms::QueryRequest& request, AttackMode attack, uint64_t seed) {
  // The caller holds the reader lock: the epoch observed by the SP answer,
  // the TE token, and the client check is one frozen snapshot.
  uint64_t published = owner_.epoch();

  QueryOutcome outcome;
  outcome.request = request;
  // Per-thread pool counters and per-query channel sessions keep the cost
  // attribution exact when many queries run concurrently.
  storage::BufferPool::Stats sp_index0 = sp_.index_pool_thread_stats();
  storage::BufferPool::Stats sp_heap0 = sp_.heap_pool_thread_stats();
  storage::BufferPool::Stats te0 = te_.pool_thread_stats();

  // Client -> SP: execute the plan; the SP may be compromised. A replaying
  // SP claims an epoch behind the published one — the freshness check, not
  // the XOR, catches it.
  ServiceProvider::PlanResult plan;
  uint64_t claimed_epoch = sp_.epoch();
  if (attack == AttackMode::kReplayStaleRoot ||
      attack == AttackMode::kStaleCacheReplay) {
    claimed_epoch = StaleClaim(published);
  }
  if (attack == AttackMode::kStaleCacheReplay) {
    // Warm the answer cache, then serve from it: the replayed bytes
    // literally come out of a cache entry.
    SAE_RETURN_NOT_OK(sp_.ExecutePlan(request).status());
  }
  if (attack == AttackMode::kPoisonedCache) {
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
  // kStaleVt adversary presents it stamped one epoch back).
  SAE_ASSIGN_OR_RETURN(VerificationToken vt, te_.GenerateVt(request));
  if (attack == AttackMode::kStaleVt) vt.epoch = StaleClaim(vt.epoch);
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

// --- TomModel ----------------------------------------------------------------

TomModel::TomModel(const Options& options)
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
      client_memo_(options.client_memo) {}

Status TomModel::LoadParties(const std::vector<Record>& sorted,
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

Result<std::vector<Record>> TomModel::Outsource(std::vector<Record> sorted) {
  SAE_RETURN_NOT_OK(LoadParties(sorted, 1));  // outsourcing is epoch 1
  AuthenticateRecovered();  // signs epoch 1 and installs it at the SP
  do_sp_.SendBytes(RecordsMessageSize(sorted.size(), codec_));
  do_sp_.Send(SerializeSignature(owner_.signature(), owner_.epoch()));
  // The SP's heap keeps each payload zero-padded to the record size, so
  // padding here yields exactly what CaptureRecords reads back.
  for (Record& record : sorted) record.payload.resize(codec_.payload_size());
  return sorted;
}

Status TomModel::Restore(std::vector<Record> sorted, uint64_t epoch) {
  // Local disk, unsigned: AuthenticateRecovered signs after the WAL tail.
  return LoadParties(sorted, epoch);
}

void TomModel::AuthenticateRecovered() {
  owner_.Sign();
  sp_.SetSignature(owner_.signature(), owner_.epoch());
}

size_t TomModel::ShipWithSignature(const std::vector<uint8_t>& message) {
  std::vector<uint8_t> sig_msg =
      SerializeSignature(owner_.signature(), owner_.epoch());
  do_sp_.Send(message);
  do_sp_.Send(sig_msg);
  return sig_msg.size();
}

Result<size_t> TomModel::ApplyInsert(const Record& record, bool replay) {
  SAE_RETURN_NOT_OK(owner_.InsertRecord(record, /*sign=*/!replay));
  size_t auth_bytes =
      replay ? 0 : ShipWithSignature(SerializeRecords({record}, codec_));
  SAE_RETURN_NOT_OK(
      sp_.ApplyInsert(record, owner_.signature(), owner_.epoch()));
  return auth_bytes;
}

Result<size_t> TomModel::ApplyDelete(RecordId id, bool replay) {
  SAE_RETURN_NOT_OK(owner_.DeleteRecord(id, /*sign=*/!replay));
  size_t auth_bytes =
      replay ? 0 : ShipWithSignature(SerializeDelete(id, 0));
  SAE_RETURN_NOT_OK(sp_.ApplyDelete(id, owner_.signature(), owner_.epoch()));
  return auth_bytes;
}

Result<std::vector<Record>> TomModel::CaptureRecords() const {
  return sp_.ReadRange(kMinKey, kMaxKey);
}

Result<TomModel::QueryOutcome> TomModel::RunQuery(
    const dbms::QueryRequest& request, AttackMode attack, uint64_t seed) {
  uint64_t published = owner_.epoch();

  QueryOutcome outcome;
  outcome.request = request;
  storage::BufferPool::Stats sp_index0 = sp_.index_pool_thread_stats();
  storage::BufferPool::Stats sp_heap0 = sp_.heap_pool_thread_stats();

  TomServiceProvider::PlanResponse response;
  if (attack == AttackMode::kStaleCacheReplay) {
    // The cache-replay variant serves the second of two identical calls,
    // so the replayed bytes come straight out of a cache entry.
    SAE_RETURN_NOT_OK(sp_.ExecutePlan(request).status());
  }
  if (attack == AttackMode::kPoisonedCache) {
    // The SP poisons its own cache: tampered witness bytes ship with the
    // honest VO (the VO disproves them) and persist in the cache for later
    // honest queries until a signature install flushes it.
    SAE_ASSIGN_OR_RETURN(response, sp_.ExecutePoisonedPlan(request, seed));
  } else {
    SAE_ASSIGN_OR_RETURN(response, sp_.ExecutePlan(request));
  }
  // Freshness attacks (a replayed answer, or an old epoch's signature
  // presented against the current result) claim an epoch behind the
  // published one: only the VO's epoch gate can reject them.
  if (IsFreshnessAttack(attack)) response.vo.epoch = StaleClaim(published);
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
