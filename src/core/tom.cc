// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the traditional outsourcing model baseline (core/tom.h):
// MB-tree ADS at the SP, root signatures from the DO, VO-based queries.

#include "core/tom.h"

#include <mutex>
#include <utility>

#include "core/malicious_sp.h"
#include "core/messages.h"
#include "util/macros.h"
#include "util/random.h"

namespace sae::core {

// --- TomDataOwner -------------------------------------------------------------

namespace {

/// RsaGenerateKey is deterministic in (seed, bits) and costs tens of
/// milliseconds, so each pair's key is generated once per process.
crypto::RsaPrivateKey KeyFor(uint64_t seed, size_t bits) {
  static std::mutex mu;
  static std::map<std::pair<uint64_t, size_t>, crypto::RsaPrivateKey> keys;
  std::lock_guard<std::mutex> lock(mu);
  auto [it, fresh] = keys.try_emplace({seed, bits});
  if (fresh) {
    Rng rng(seed);
    it->second = crypto::RsaGenerateKey(&rng, bits);
  }
  return it->second;
}

}  // namespace

TomDataOwner::TomDataOwner(const Options& options)
    : options_(options),
      codec_(options.record_size),
      pool_(&store_, options.pool_pages) {
  key_ = KeyFor(options_.rsa_seed, options_.rsa_modulus_bits);
  mbtree::MbTreeOptions mb = options_.mb_options;
  mb.scheme = options_.scheme;
  auto tree = mbtree::MbTree::Create(&pool_, mb);
  SAE_CHECK(tree.ok());
  mb_ = std::move(tree).ValueOrDie();
}

void TomDataOwner::Sign() {
  // Epoch-stamped root signature: binds the signature to the update epoch
  // so replayed pre-update roots are detectable (freshness).
  signature_ = crypto::RsaSignDigest(
      key_,
      crypto::EpochStampedDigest(mb_->root_digest(), epoch_,
                                 options_.scheme));
  ++signatures_;
}

Status TomDataOwner::LoadDataset(const std::vector<Record>& sorted,
                                 uint64_t epoch) {
  std::vector<crypto::Digest> digests =
      storage::DigestRecords(sorted, codec_, options_.scheme);
  std::vector<mbtree::MbEntry> entries;
  entries.reserve(sorted.size());
  digest_xor_ = crypto::Digest::Zero();
  for (size_t i = 0; i < sorted.size(); ++i) {
    entries.push_back(mbtree::MbEntry{sorted[i].key,
                                      storage::Rid(sorted[i].id),
                                      digests[i]});
    key_of_id_[sorted[i].id] = sorted[i].key;
    digest_xor_ ^= digests[i];
  }
  SAE_RETURN_NOT_OK(mb_->BulkLoad(entries));
  epoch_ = epoch;
  return Status::OK();
}

Status TomDataOwner::InsertRecord(const Record& record, bool sign) {
  if (key_of_id_.count(record.id) > 0) {
    return Status::AlreadyExists("record id already present");
  }
  std::vector<uint8_t> bytes = codec_.Serialize(record);
  mbtree::MbEntry entry{
      record.key, storage::Rid(record.id),
      crypto::ComputeDigest(bytes.data(), bytes.size(), options_.scheme)};
  SAE_RETURN_NOT_OK(mb_->Insert(entry));
  key_of_id_[record.id] = record.key;
  digest_xor_ ^= entry.digest;
  ++epoch_;
  if (sign) Sign();
  return Status::OK();
}

Status TomDataOwner::DeleteRecord(RecordId id, bool sign) {
  auto it = key_of_id_.find(id);
  if (it == key_of_id_.end()) {
    return Status::NotFound("no record with this id");
  }
  crypto::Digest removed;
  SAE_RETURN_NOT_OK(mb_->Delete(it->second, storage::Rid(id), &removed));
  key_of_id_.erase(it);
  digest_xor_ ^= removed;
  ++epoch_;
  if (sign) Sign();
  return Status::OK();
}

// --- TomServiceProvider ---------------------------------------------------------

TomServiceProvider::TomServiceProvider(const Options& options)
    : options_(options),
      codec_(options.record_size),
      index_pool_(&index_store_, options.index_pool_pages),
      heap_pool_(&heap_store_, options.heap_pool_pages),
      heap_(&heap_pool_, options.record_size),
      answer_cache_(options.answer_cache) {
  mbtree::MbTreeOptions mb = options_.mb_options;
  mb.scheme = options_.scheme;
  auto tree = mbtree::MbTree::Create(&index_pool_, mb);
  SAE_CHECK(tree.ok());
  mb_ = std::move(tree).ValueOrDie();
}

Status TomServiceProvider::LoadDataset(const std::vector<Record>& sorted,
                                       crypto::RsaSignature signature,
                                       uint64_t epoch) {
  std::vector<crypto::Digest> digests =
      storage::DigestRecords(sorted, codec_, options_.scheme);
  std::vector<mbtree::MbEntry> entries;
  entries.reserve(sorted.size());
  std::vector<uint8_t> scratch(codec_.record_size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    const Record& record = sorted[i];
    if (rid_of_id_.count(record.id) > 0) {
      return Status::InvalidArgument("duplicate record id in dataset");
    }
    codec_.Serialize(record, scratch.data());
    SAE_ASSIGN_OR_RETURN(storage::Rid rid, heap_.Insert(scratch.data()));
    rid_of_id_[record.id] = rid;
    entries.push_back(mbtree::MbEntry{record.key, rid, digests[i]});
  }
  SAE_RETURN_NOT_OK(mb_->BulkLoad(entries));
  signature_ = std::move(signature);
  epoch_ = epoch;
  answer_cache_.InvalidateAll();
  return Status::OK();
}

Status TomServiceProvider::ApplyInsert(const Record& record,
                                       crypto::RsaSignature new_sig,
                                       uint64_t new_epoch) {
  if (rid_of_id_.count(record.id) > 0) {
    return Status::AlreadyExists("record id already present");
  }
  std::vector<uint8_t> bytes = codec_.Serialize(record);
  SAE_ASSIGN_OR_RETURN(storage::Rid rid, heap_.Insert(bytes.data()));
  mbtree::MbEntry entry{
      record.key, rid,
      crypto::ComputeDigest(bytes.data(), bytes.size(), options_.scheme)};
  Status st = mb_->Insert(entry);
  if (!st.ok()) {
    SAE_CHECK_OK(heap_.Delete(rid));
    return st;
  }
  rid_of_id_[record.id] = rid;
  signature_ = std::move(new_sig);
  epoch_ = new_epoch;
  answer_cache_.InvalidateAll();
  return Status::OK();
}

Status TomServiceProvider::ApplyDelete(RecordId id,
                                       crypto::RsaSignature new_sig,
                                       uint64_t new_epoch) {
  auto it = rid_of_id_.find(id);
  if (it == rid_of_id_.end()) {
    return Status::NotFound("no record with this id");
  }
  storage::Rid rid = it->second;
  std::vector<uint8_t> bytes(codec_.record_size());
  SAE_RETURN_NOT_OK(heap_.Get(rid, bytes.data()));
  Record record = codec_.Deserialize(bytes.data());
  SAE_RETURN_NOT_OK(mb_->Delete(record.key, rid));
  SAE_RETURN_NOT_OK(heap_.Delete(rid));
  rid_of_id_.erase(it);
  signature_ = std::move(new_sig);
  epoch_ = new_epoch;
  answer_cache_.InvalidateAll();
  return Status::OK();
}

Result<std::vector<Record>> TomServiceProvider::ReadRange(Key lo,
                                                          Key hi) const {
  // Locate and fetch the records (each dataset page fetched once per
  // contiguous run).
  std::vector<mbtree::MbEntry> postings;
  SAE_RETURN_NOT_OK(mb_->RangeSearch(lo, hi, &postings));
  std::vector<storage::Rid> rids;
  rids.reserve(postings.size());
  for (const auto& posting : postings) rids.push_back(posting.rid);
  std::vector<Record> records;
  records.reserve(rids.size());
  SAE_RETURN_NOT_OK(heap_.GetMany(rids, [&](size_t, const uint8_t* data) {
    records.push_back(codec_.Deserialize(data));
  }));
  return records;
}

Result<TomServiceProvider::QueryResponse> TomServiceProvider::ExecuteRange(
    Key lo, Key hi) const {
  // Traversal 1: the result records.
  QueryResponse response;
  SAE_ASSIGN_OR_RETURN(response.results, ReadRange(lo, hi));

  // Traversal 2: build the VO; boundary records come from the dataset file.
  auto fetch = [this](storage::Rid rid) -> Result<std::vector<uint8_t>> {
    std::vector<uint8_t> bytes(codec_.record_size());
    SAE_RETURN_NOT_OK(heap_.Get(rid, bytes.data()));
    return bytes;
  };
  SAE_ASSIGN_OR_RETURN(response.vo, mb_->BuildVo(lo, hi, fetch));
  response.vo.epoch = epoch_;
  response.vo.signature = signature_;
  return response;
}

Result<TomServiceProvider::PlanResponse> TomServiceProvider::ComputePlan(
    const dbms::QueryRequest& request) const {
  SAE_ASSIGN_OR_RETURN(QueryResponse response,
                       ExecuteRange(request.lo, request.hi));
  PlanResponse plan;
  plan.answer = dbms::EvaluateAnswer(request, response.results);
  plan.witness = std::move(response.results);
  plan.vo = std::move(response.vo);
  return plan;
}

Result<TomServiceProvider::PlanResponse> TomServiceProvider::ExecutePlan(
    const dbms::QueryRequest& request) const {
  if (!answer_cache_.enabled()) return ComputePlan(request);
  AnswerCache::Key key = AnswerCache::Key::For(request, epoch_);
  if (auto hit = answer_cache_.Lookup(key)) {
    SAE_ASSIGN_OR_RETURN(QueryAnswerMessage msg,
                         DeserializeQueryAnswer(hit->answer_msg, codec_));
    PlanResponse plan;
    plan.answer = std::move(msg.answer);
    plan.witness = std::move(msg.witness);
    SAE_ASSIGN_OR_RETURN(
        plan.vo, mbtree::VerificationObject::Deserialize(hit->proof_msg));
    return plan;
  }
  SAE_ASSIGN_OR_RETURN(PlanResponse plan, ComputePlan(request));
  CachedAnswer entry;
  entry.answer_msg =
      SerializeQueryAnswer(plan.answer, plan.witness, key.epoch, codec_);
  entry.proof_msg = plan.vo.Serialize();
  answer_cache_.Insert(key, std::move(entry));
  return plan;
}

Result<TomServiceProvider::PlanResponse>
TomServiceProvider::ExecutePoisonedPlan(const dbms::QueryRequest& request,
                                        uint64_t seed) const {
  SAE_ASSIGN_OR_RETURN(PlanResponse plan, ComputePlan(request));
  plan.witness =
      ApplyAttack(plan.witness, AttackMode::kTamperPayload, codec_, seed);
  plan.answer = dbms::EvaluateAnswer(request, plan.witness);
  if (answer_cache_.enabled()) {
    AnswerCache::Key key = AnswerCache::Key::For(request, epoch_);
    CachedAnswer entry;
    entry.answer_msg =
        SerializeQueryAnswer(plan.answer, plan.witness, key.epoch, codec_);
    entry.proof_msg = plan.vo.Serialize();
    answer_cache_.Insert(key, std::move(entry));
  }
  return plan;
}

// --- TomClient ----------------------------------------------------------------

Status TomClient::Verify(Key lo, Key hi, const std::vector<Record>& results,
                         const mbtree::VerificationObject& vo,
                         const crypto::RsaPublicKey& owner_key,
                         const RecordCodec& codec,
                         crypto::HashScheme scheme, uint64_t current_epoch) {
  return mbtree::VerifyVO(vo, lo, hi, results, owner_key, codec, scheme,
                          current_epoch);
}

Status TomClient::VerifyAnswer(const dbms::QueryRequest& request,
                               const dbms::QueryAnswer& claimed,
                               const std::vector<Record>& witness,
                               const mbtree::VerificationObject& vo,
                               const crypto::RsaPublicKey& owner_key,
                               const RecordCodec& codec,
                               crypto::HashScheme scheme,
                               uint64_t current_epoch) {
  SAE_RETURN_NOT_OK(Verify(request.lo, request.hi, witness, vo, owner_key,
                           codec, scheme, current_epoch));
  return dbms::CheckAnswer(request, witness, claimed);
}

}  // namespace sae::core
