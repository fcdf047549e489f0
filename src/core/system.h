// Copyright (c) saedb authors. Licensed under the MIT license.
//
// End-to-end harnesses wiring the entities of each outsourcing model with
// byte-metered channels. These are the top-level public API used by the
// examples and the figure benches: load a dataset, run authenticated
// queries over the verified plan layer (range/point scans and
// COUNT/SUM/MIN/MAX/top-k aggregates, dbms::QueryRequest) AND
// epoch-versioned updates — concurrently, from any number of threads —
// optionally under an attacking SP, and read back per-party costs.
//
// One front, System<Model>, serves both models (SaeSystem, TomSystem). It
// owns the shared UpdatePipeline (core/update_pipeline.h), and with it the
// reader-writer lock, and defines every public operation once. A model
// supplies only what differs: its parties, channels and client memo; its
// UpdatePolicy — how an update reaches its parties and refreshes
// authentication (SAE: an epoch notice to SP and TE; TOM: a re-signed
// MB-tree root); and the body of one query run. ExecuteQuery holds the
// pipeline's lock shared for the whole query (SP execution, TE token / VO,
// client verification), so a query observes one frozen epoch end to end;
// queries and updates interleave freely on the same system.

#ifndef SAE_CORE_SYSTEM_H_
#define SAE_CORE_SYSTEM_H_

#include <atomic>
#include <memory>
#include <vector>

#include "core/client.h"
#include "core/client_memo.h"
#include "core/data_owner.h"
#include "core/durability.h"
#include "core/epoch.h"
#include "core/malicious_sp.h"
#include "core/service_provider.h"
#include "core/tom.h"
#include "core/trusted_entity.h"
#include "core/update_pipeline.h"
#include "sim/channel.h"
#include "util/status.h"

namespace sae::core {

/// Per-query measurements shared by both models.
struct QueryCosts {
  uint64_t sp_index_accesses = 0;  ///< index node accesses at the SP
  uint64_t sp_heap_accesses = 0;   ///< dataset-page accesses at the SP
  uint64_t te_accesses = 0;        ///< node accesses at the TE (SAE only)
  size_t auth_bytes = 0;     ///< authentication traffic (VT or VO message)
  size_t result_bytes = 0;   ///< result traffic (excluded from Fig. 5)
  double client_verify_ms = 0.0;  ///< wall-clock client verification time
};

/// Component-wise accumulation — per-query costs compose into batch totals.
inline QueryCosts& operator+=(QueryCosts& a, const QueryCosts& b) {
  a.sp_index_accesses += b.sp_index_accesses;
  a.sp_heap_accesses += b.sp_heap_accesses;
  a.te_accesses += b.te_accesses;
  a.auth_bytes += b.auth_bytes;
  a.result_bytes += b.result_bytes;
  a.client_verify_ms += b.client_verify_ms;
  return a;
}

/// The one end-to-end front over an outsourcing model (SaeModel,
/// TomModel). The model is the base, so its accessors (sp(), owner(), ...)
/// and cache_stats() are the system's own; the pipeline is a member, and
/// members are destroyed before bases, so the checkpoint thread is joined
/// before the parties it snapshots go away.
template <class Model>
class System : public Model {
 public:
  using Options = typename Model::Options;
  using QueryOutcome = typename Model::QueryOutcome;

  explicit System(const Options& options = {})
      : Model(options),
        pipeline_(this, Model::kSnapshotModel, uint32_t(options.record_size),
                  options.scheme, options.durability) {}

  /// Installs and outsources the dataset to the parties, publishing epoch
  /// 1. With durability enabled, also opens the WAL and writes the epoch-1
  /// baseline snapshot before returning.
  Status Load(const std::vector<Record>& records) {
    return pipeline_.Load(records);
  }

  /// Rebuilds a system from its durability directory after a crash (see
  /// UpdatePipeline::Recover). kNotFound when no valid snapshot exists (the
  /// crash predates the first durable checkpoint); kCorruption when the
  /// disk contradicts itself or `options`. Under TOM the owner signs the
  /// recovered root once, at the recovered epoch, after the WAL tail.
  static Result<std::unique_ptr<System>> Recover(const Options& options) {
    auto system = std::make_unique<System>(options);
    Status recovered = system->pipeline_.Recover();
    if (!recovered.ok()) return recovered;
    return system;
  }

  /// The thread-safe single-query operation: runs SP execution, the TE
  /// token (SAE) or VO (TOM), and client verification entirely on the
  /// calling thread under a shared (reader) lock, attributing costs via
  /// per-thread pool counters and per-query channel sessions. Any number of
  /// threads may call this concurrently, and Insert/Delete may interleave
  /// with it — writers simply serialize against in-flight queries through
  /// the lock. For multi-query load, hand a batch to a core::QueryEngine.
  Result<QueryOutcome> ExecuteQuery(const dbms::QueryRequest& request,
                                    AttackMode attack = AttackMode::kNone) {
    auto lock = pipeline_.ReadLock();
    return this->RunQuery(request, attack,
                          attack_seed_.fetch_add(1, std::memory_order_relaxed));
  }
  /// Range-scan compatibility wrapper.
  Result<QueryOutcome> ExecuteQuery(Key lo, Key hi,
                                    AttackMode attack = AttackMode::kNone) {
    return ExecuteQuery(dbms::QueryRequest::Scan(lo, hi), attack);
  }
  /// The client issues the plan and verifies the answer (= ExecuteQuery).
  Result<QueryOutcome> Query(const dbms::QueryRequest& request,
                             AttackMode attack = AttackMode::kNone) {
    return ExecuteQuery(request, attack);
  }
  Result<QueryOutcome> Query(Key lo, Key hi,
                             AttackMode attack = AttackMode::kNone) {
    return ExecuteQuery(dbms::QueryRequest::Scan(lo, hi), attack);
  }

  /// DO-side updates, propagated to the parties under the writer (unique)
  /// lock with a fresh epoch. Safe to call concurrently with queries and
  /// other updates. The Versioned variants return the epoch the update
  /// published — the serialization point of the update, which the
  /// interleaved stress suite replays against a serial oracle.
  Result<uint64_t> InsertVersioned(const Record& record) {
    return pipeline_.Insert(record);
  }
  Result<uint64_t> DeleteVersioned(RecordId id) {
    return pipeline_.Delete(id);
  }
  Status Insert(const Record& record) {
    return InsertVersioned(record).status();
  }
  Status Delete(RecordId id) { return DeleteVersioned(id).status(); }

  /// Latest published epoch (the client's freshness reference).
  uint64_t epoch() const { return pipeline_.epoch(); }

  /// Accumulated update-pipeline costs (snapshot by value).
  UpdateStats update_stats() const { return pipeline_.stats(); }

  /// Attached durability manager; nullptr when durability is off.
  DurabilityManager* durability() { return pipeline_.durability(); }

  /// Durability counters (zeroed struct when durability is off).
  DurabilityStats durability_stats() const {
    return pipeline_.durability_stats();
  }

  /// Phase timings of the Recover() that built this system.
  const RecoveryStats& recovery_stats() const {
    return pipeline_.recovery_stats();
  }

  /// Blocks until every captured checkpoint is durable; returns the first
  /// checkpoint failure since the last wait. Call without holding a query
  /// open on this thread.
  Status WaitForCheckpoints() { return pipeline_.WaitForCheckpoints(); }

 private:
  std::atomic<uint64_t> attack_seed_{0xBADC0DE};
  UpdatePipeline pipeline_;
};

struct SaeSystemOptions {
  size_t record_size = storage::kDefaultRecordSize;
  crypto::HashScheme scheme = crypto::HashScheme::kSha1;
  size_t sp_index_pool_pages = 1024;
  size_t sp_heap_pool_pages = 1024;
  size_t te_pool_pages = 1024;
  /// TE tree fanout + hot-level digest cache knobs.
  xbtree::XbTreeOptions xb_options;
  /// SP answer cache and TE token memo (both epoch-keyed, never trusted).
  AnswerCacheOptions sp_answer_cache;
  AnswerCacheOptions te_vt_cache;
  /// Client-side verification memo (the client's own pure work, replayed
  /// on byte-identical responses; freshness gates still run every query).
  AnswerCacheOptions client_memo;
  /// Crash safety: epoch snapshots + WAL (core/durability.h). Off by
  /// default — the simulation harness runs purely in memory.
  DurabilityOptions durability;

  /// The uncached control configuration the parity harness compares
  /// against: every verified-path cache off, everything else identical.
  SaeSystemOptions& DisableCaches() {
    xb_options.hot_cache_levels = 0;
    sp_answer_cache.enabled = false;
    te_vt_cache.enabled = false;
    client_memo.enabled = false;
    return *this;
  }
};

/// Cache counters of one SaeSystem; snapshot by value, diff components to
/// measure a span.
struct SaeCacheStats {
  AnswerCacheStats sp_answer;         ///< SP answer cache (hit = no scan)
  AnswerCacheStats te_vt;             ///< TE token memo (hit = no traversal)
  storage::NodeCacheStats te_digest;  ///< XB-tree hot-level node cache
  AnswerCacheStats client_memo;       ///< client verification memo
};

/// SAE: DO + conventional SP + TE + verifying client.
class SaeModel : protected UpdatePolicy {
 public:
  using Options = SaeSystemOptions;
  static constexpr SnapshotState::Model kSnapshotModel = SnapshotState::kSae;

  struct QueryOutcome {
    dbms::QueryRequest request;   ///< the executed plan
    dbms::QueryAnswer answer;     ///< the SP's claimed (possibly tampered)
                                  ///< derived answer, as received
    std::vector<Record> results;  ///< witness records the SP sent (for
                                  ///< scans these ARE the answer rows)
    uint64_t claimed_epoch = 0;   ///< the epoch the SP stamped its answer
    VerificationToken vt;         ///< the TE's epoch-stamped token
    Status verification;          ///< OK iff the client accepted the result
    QueryCosts costs;
  };

  /// Cache counters across all three verified-path caches.
  SaeCacheStats cache_stats() const {
    return SaeCacheStats{sp_.answer_cache_stats(), te_.vt_cache_stats(),
                         te_.xb_tree().digest_cache_stats(),
                         client_memo_.stats()};
  }

  DataOwner& owner() { return owner_; }
  ServiceProvider& sp() { return sp_; }
  TrustedEntity& te() { return te_; }
  sim::Channel& do_sp_channel() { return do_sp_; }
  sim::Channel& do_te_channel() { return do_te_; }
  sim::Channel& sp_client_channel() { return sp_client_; }
  sim::Channel& te_client_channel() { return te_client_; }
  const RecordCodec& codec() const { return owner_.codec(); }

  /// The full dataset in key order: what a full checkpoint persists, and
  /// what a sharded deployment rebuilds its id -> key directory from.
  Result<std::vector<Record>> CaptureRecords() const override {
    return owner_.SortedDataset();
  }

 protected:
  explicit SaeModel(const Options& options);

  /// One query, with the system's reader lock held: SP execution (the SP
  /// may attack, per `attack` and `seed`), the TE token, and client
  /// verification against the owner's published epoch.
  Result<QueryOutcome> RunQuery(const dbms::QueryRequest& request,
                                AttackMode attack, uint64_t seed);

 private:
  // UpdatePolicy: updates travel DO -> SP and DO -> TE with an epoch
  // notice; the TE's XB-tree root holds the digest XOR. Recovery
  // re-outsources to the parties, so its WAL replay is metered like any
  // update.
  uint64_t OwnerEpoch() const override { return owner_.epoch(); }
  bool HasRecord(RecordId id) const override { return owner_.HasRecord(id); }
  Result<std::vector<Record>> Outsource(std::vector<Record> sorted) override;
  Status Restore(std::vector<Record> sorted, uint64_t epoch) override;
  Result<size_t> ApplyInsert(const Record& record, bool replay) override;
  Result<size_t> ApplyDelete(RecordId id, bool replay) override;
  void AuthenticateRecovered() override {}
  uint64_t ShippedBytes() const override {
    return do_sp_.total_bytes() + do_te_.total_bytes();
  }
  Result<crypto::Digest> DigestXor() const override;

  Options options_;
  DataOwner owner_;
  ServiceProvider sp_;
  TrustedEntity te_;
  // mutable: const-shaped query paths feed it; the memo locks internally.
  mutable SaeClientMemo client_memo_;
  sim::Channel do_sp_{"DO->SP"};
  sim::Channel do_te_{"DO->TE"};
  sim::Channel sp_client_{"SP->Client"};
  sim::Channel te_client_{"TE->Client"};
};

struct TomSystemOptions {
  size_t record_size = storage::kDefaultRecordSize;
  crypto::HashScheme scheme = crypto::HashScheme::kSha1;
  size_t rsa_modulus_bits = 1024;
  uint64_t rsa_seed = 0x5AE2009;
  size_t do_pool_pages = 1024;
  size_t sp_index_pool_pages = 1024;
  size_t sp_heap_pool_pages = 1024;
  /// ADS fanout + hot-level digest cache knobs (owner and SP mirrors).
  mbtree::MbTreeOptions mb_options;
  /// SP answer cache (epoch-keyed, never trusted).
  AnswerCacheOptions sp_answer_cache;
  /// Client-side verification memo (the client's own pure work, replayed
  /// on byte-identical responses; the VO epoch gate still runs every
  /// query).
  AnswerCacheOptions client_memo;
  /// Crash safety: epoch snapshots + WAL (core/durability.h). Off by
  /// default.
  DurabilityOptions durability;

  /// The uncached control configuration the parity harness compares
  /// against: every verified-path cache off, everything else identical.
  TomSystemOptions& DisableCaches() {
    mb_options.hot_cache_levels = 0;
    sp_answer_cache.enabled = false;
    client_memo.enabled = false;
    return *this;
  }
};

/// Cache counters of one TomSystem; snapshot by value, diff components to
/// measure a span.
struct TomCacheStats {
  AnswerCacheStats sp_answer;            ///< SP answer + VO cache
  storage::NodeCacheStats sp_digest;     ///< SP MB-tree hot-level cache
  storage::NodeCacheStats owner_digest;  ///< DO's local ADS hot-level cache
  AnswerCacheStats client_memo;          ///< client verification memo
};

/// TOM: ADS-building DO + ADS-mirroring SP + VO-verifying client.
class TomModel : protected UpdatePolicy {
 public:
  using Options = TomSystemOptions;
  static constexpr SnapshotState::Model kSnapshotModel = SnapshotState::kTom;

  struct QueryOutcome {
    dbms::QueryRequest request;     ///< the executed plan
    dbms::QueryAnswer answer;       ///< the SP's claimed derived answer
    std::vector<Record> results;    ///< witness records the SP sent
    mbtree::VerificationObject vo;  ///< epoch-stamped, root-signed
    Status verification;
    QueryCosts costs;
  };

  /// Cache counters across the SP answer cache and both ADS node caches.
  TomCacheStats cache_stats() const {
    return TomCacheStats{sp_.answer_cache_stats(),
                         sp_.ads().digest_cache_stats(),
                         owner_.ads().digest_cache_stats(),
                         client_memo_.stats()};
  }

  TomDataOwner& owner() { return owner_; }
  TomServiceProvider& sp() { return sp_; }
  sim::Channel& do_sp_channel() { return do_sp_; }
  sim::Channel& sp_client_channel() { return sp_client_; }
  const RecordCodec& codec() const { return codec_; }

  /// The full dataset in key order, read from the SP's heap (records
  /// only, no VO): what a full checkpoint persists, and what a sharded
  /// deployment rebuilds its id -> key directory from.
  Result<std::vector<Record>> CaptureRecords() const override;

 protected:
  explicit TomModel(const Options& options);

  /// One query, with the system's reader lock held: SP execution and VO
  /// (the SP may attack, per `attack` and `seed`), then client
  /// verification against the owner's key and published epoch.
  Result<QueryOutcome> RunQuery(const dbms::QueryRequest& request,
                                AttackMode attack, uint64_t seed);

 private:
  // UpdatePolicy: updates travel DO -> SP with a re-signed root; the
  // owner keeps the digest XOR. Recovery, WAL replay included, reads local
  // disk and ships nothing; it restores and replays unsigned, then signs
  // the recovered root once.
  uint64_t OwnerEpoch() const override { return owner_.epoch(); }
  bool HasRecord(RecordId id) const override { return owner_.HasRecord(id); }
  Result<std::vector<Record>> Outsource(std::vector<Record> sorted) override;
  Status Restore(std::vector<Record> sorted, uint64_t epoch) override;
  Result<size_t> ApplyInsert(const Record& record, bool replay) override;
  Result<size_t> ApplyDelete(RecordId id, bool replay) override;
  void AuthenticateRecovered() override;
  uint64_t ShippedBytes() const override { return do_sp_.total_bytes(); }
  Result<crypto::Digest> DigestXor() const override {
    return owner_.digest_xor();
  }

  /// Builds the owner's and the SP's ADS over `sorted` at `epoch`, both
  /// unsigned.
  Status LoadParties(const std::vector<Record>& sorted, uint64_t epoch);
  /// Ships one update's `message` plus the new root signature to the SP;
  /// returns the signature message's size.
  size_t ShipWithSignature(const std::vector<uint8_t>& message);

  Options options_;
  RecordCodec codec_;
  TomDataOwner owner_;
  TomServiceProvider sp_;
  // mutable: const-shaped query paths feed it; the memo locks internally.
  mutable TomClientMemo client_memo_;
  sim::Channel do_sp_{"DO->SP"};
  sim::Channel sp_client_{"SP->Client"};
};

using SaeSystem = System<SaeModel>;
using TomSystem = System<TomModel>;

}  // namespace sae::core

#endif  // SAE_CORE_SYSTEM_H_
