// Copyright (c) saedb authors. Licensed under the MIT license.

#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/client.h"
#include "core/client_memo.h"
#include "core/messages.h"
#include "core/system.h"
#include "histogram.h"
#include "inputs.h"
#include "mbtree/vo.h"
#include "metered_vfs.h"
#include "steal.h"
#include "net/client_transport.h"
#include "net/server.h"
#include "storage/fault_fs.h"
#include "trace.h"

namespace perfbench {

namespace {

namespace core = sae::core;
namespace net = sae::net;
namespace storage = sae::storage;
using sae::Result;
using sae::Status;

// The flush policy: every durability barrier (Sync, Rename) of the
// in-memory FaultFs sleeps this long, the simulated device fsync.
constexpr uint32_t kSyncLatencyUs = 200;
// Set-up and recovery are timed at least a minimum number of times, and
// more (up to kMaxTrials) while the trials so far took under their budget,
// and report the median over the quieter half of the trials, as the window
// does over its slices. Both are single-threaded, so host contention moves
// them more than the four-thread window: the median of three multi-second
// recovery trials moved by 20-30% between runs of the same code.
constexpr size_t kMaxTrials = 400;
constexpr size_t kMinSetupTrials = 3;
constexpr double kSetupBudgetS = 3.0;
constexpr size_t kMinRecoveryTrials = 7;
constexpr double kRecoveryBudgetS = 8.0;
// Durable updates after the read window, and per count slice. A fixed
// count leaves the disk in the same state on every run, so recovery
// replays the same work.
constexpr uint64_t kTailUpdates = 6000;
constexpr uint64_t kUpdatesPerSlice = 1000;
constexpr size_t kRecoveryChecksPerThread = 16;

std::string Fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

std::string Describe(const QueryRequest& r) {
  return Fmt("%s[%u,%u]", sae::dbms::QueryOpName(r.op), r.lo, r.hi);
}

// ---------------------------------------------------------------------------
// Deployments: one saedb system (plus, for the networked workload, its
// servers and clients), durable over an in-memory FaultFs behind the
// metered Vfs. The untraced query path is the public entry point; the
// traced one composes the same calls SaeSystem/TomSystem::ExecuteQuery
// make, with a span around each.

struct QueryResult {
  Status status;        // the call itself failed (execution, transport)
  Status verification;  // the client's verdict
  QueryAnswer answer;
  std::vector<Record> witness;
  size_t auth_bytes = 0;    // VT or VO
  size_t result_bytes = 0;  // the answer shipment
  size_t frame_bytes = 0;   // every frame on the wire, prefixes included
};

struct Counters {
  storage::BufferPool::Stats sp_index, sp_heap, te_pool;
  core::AnswerCacheStats sp_answer, te_vt, client_memo;
  storage::NodeCacheStats digest;  // XB-tree (SAE) or SP MB-tree (TOM)
  core::DurabilityStats durability;
  VfsCounters vfs;
};

class Deployment {
 public:
  virtual ~Deployment() = default;

  /// `trace_id` 0 runs the public query entry point; otherwise the traced
  /// composition, as request `trace_id`.
  virtual QueryResult Query(size_t thread, const QueryRequest& request,
                            uint64_t trace_id) = 0;
  virtual Result<uint64_t> Insert(const Record& record) = 0;
  virtual Result<uint64_t> Delete(RecordId id) = 0;
  /// Runs the model's attack probes; returns each one that was accepted.
  virtual std::vector<std::string> Probe(const QueryRequest& scan) = 0;
  virtual Counters counters() const = 0;
  virtual uint64_t epoch() const = 0;
  /// Bytes the serving parties store (SP + TE, or the TOM SP).
  virtual double StorageBytes() const = 0;
  virtual Status WaitForCheckpoints() = 0;
  virtual core::DurabilityStats durability_stats() const = 0;
  virtual uint64_t recovered_tail_records() = 0;
  /// The networked servers front the parties directly, so in-process
  /// updates run only while serving is paused.
  virtual Status PauseServing() { return Status::OK(); }
  virtual Status ResumeServing() { return Status::OK(); }

  storage::FaultFs& fs() { return *fs_; }

  /// Power loss: stops the parties (without draining anything further)
  /// and hands back the disk.
  virtual std::unique_ptr<storage::FaultFs> PowerOff() = 0;

 protected:
  explicit Deployment(std::unique_ptr<storage::FaultFs> fs)
      : fs_(std::move(fs)), vfs_(std::make_unique<MeteredVfs>(fs_.get())) {
    fs_->SetSyncLatency(kSyncLatencyUs);
  }

  std::unique_ptr<storage::FaultFs> fs_;
  std::unique_ptr<MeteredVfs> vfs_;
};

template <typename System>
class SystemDeployment : public Deployment {
 public:
  /// Loads `dataset` (non-null) into the empty disk, or recovers from it.
  Status Open(const WorkloadSpec& spec, const std::vector<Record>* dataset) {
    typename System::Options options;
    options.record_size = spec.record_size;
    options.durability.enabled = true;
    options.durability.dir = "/db";
    options.durability.vfs = vfs_.get();
    if (spec.model == Model::kTom) {
      // WAL only, no cadence checkpoints: TomSystem::Recover re-signs the
      // bulk-loaded checkpoint and requires the signature to match the
      // live ADS's, which fails once a checkpoint follows any random-key
      // update. Recovering the load baseline plus the WAL replays the
      // updates in epoch order and succeeds.
      options.durability.snapshot_interval = 0;
    }
    if (dataset != nullptr) {
      system_ = std::make_unique<System>(options);
      return system_->Load(*dataset);
    }
    auto recovered = System::Recover(options);
    if (!recovered.ok()) return recovered.status();
    system_ = std::move(recovered).ValueOrDie();
    return Status::OK();
  }

  Result<uint64_t> Insert(const Record& record) override {
    return system_->InsertVersioned(record);
  }
  Result<uint64_t> Delete(RecordId id) override {
    return system_->DeleteVersioned(id);
  }
  uint64_t epoch() const override { return system_->epoch(); }
  Status WaitForCheckpoints() override { return system_->WaitForCheckpoints(); }
  core::DurabilityStats durability_stats() const override {
    return system_->durability_stats();
  }
  uint64_t recovered_tail_records() override {
    core::DurabilityManager* d = system_->durability();
    return d != nullptr ? d->recovered().wal_tail.size() : 0;
  }
  std::unique_ptr<storage::FaultFs> PowerOff() override {
    system_.reset();
    return std::move(fs_);
  }
  std::vector<std::string> Probe(const QueryRequest& scan) override {
    std::vector<std::string> accepted;
    for (core::AttackMode mode :
         {core::AttackMode::kDropOne, core::AttackMode::kReplayStaleRoot}) {
      auto outcome = system_->ExecuteQuery(scan, mode);
      if (outcome.ok() && outcome.value().verification.ok()) {
        accepted.push_back(mode == core::AttackMode::kDropOne
                               ? "kDropOne"
                               : "kReplayStaleRoot");
      }
    }
    return accepted;
  }

 protected:
  using Deployment::Deployment;
  std::unique_ptr<System> system_;
};

class SaeDeployment : public SystemDeployment<core::SaeSystem> {
 public:
  SaeDeployment(std::unique_ptr<storage::FaultFs> fs, const WorkloadSpec& spec)
      : SystemDeployment(std::move(fs)),
        codec_(spec.record_size),
        memo_(core::AnswerCacheOptions{}) {}

  QueryResult Query(size_t, const QueryRequest& request,
                    uint64_t trace_id) override {
    QueryResult r;
    if (trace_id != 0) return Composed(request, trace_id);
    auto outcome = system_->ExecuteQuery(request);
    if (!outcome.ok()) {
      r.status = outcome.status();
      return r;
    }
    core::SaeSystem::QueryOutcome& o = outcome.value();
    r.verification = o.verification;
    r.answer = std::move(o.answer);
    r.witness = std::move(o.results);
    r.auth_bytes = o.costs.auth_bytes;
    r.result_bytes = o.costs.result_bytes;
    return r;
  }

  Counters counters() const override {
    Counters c;
    c.sp_index = system_->sp().index_pool_stats();
    c.sp_heap = system_->sp().heap_pool_stats();
    c.te_pool = system_->te().pool_stats();
    core::SaeCacheStats caches = system_->cache_stats();
    c.sp_answer = caches.sp_answer;
    c.te_vt = caches.te_vt;
    c.digest = caches.te_digest;
    c.client_memo = memo_.stats();
    c.durability = system_->durability_stats();
    c.vfs = vfs_->counters();
    return c;
  }

  double StorageBytes() const override {
    return double(system_->sp().StorageBytes() + system_->te().StorageBytes());
  }

 protected:
  // SaeSystem::ExecuteQuery's calls, one span per module boundary.
  QueryResult Composed(const QueryRequest& request, uint64_t trace_id) {
    ScopedSpan root("query", trace_id);
    QueryResult r;
    uint64_t published = system_->epoch();
    core::ServiceProvider& sp = system_->sp();
    core::ServiceProvider::PlanResult plan;
    {
      ScopedSpan span("core.sp.execute_plan");
      auto p = sp.ExecutePlan(request);
      if (!p.ok()) {
        r.status = p.status();
        return r;
      }
      plan = std::move(p).ValueOrDie();
    }
    std::vector<uint8_t> result_msg;
    {
      ScopedSpan span("core.messages.encode");
      result_msg = core::SerializeQueryAnswer(plan.answer, plan.witness,
                                              sp.epoch(), codec_);
    }
    core::VerificationToken vt;
    {
      ScopedSpan span("core.te.generate_vt");
      auto t = system_->te().GenerateVt(request);
      if (!t.ok()) {
        r.status = t.status();
        return r;
      }
      vt = t.value();
    }
    std::vector<uint8_t> vt_msg;
    {
      ScopedSpan span("core.messages.encode");
      vt_msg = core::SerializeVt(vt);
    }
    Result<core::QueryAnswerMessage> message = Status::Corruption("unset");
    Result<core::VerificationToken> received_vt = Status::Corruption("unset");
    {
      ScopedSpan span("core.messages.decode");
      message = core::DeserializeQueryAnswer(result_msg, codec_);
      received_vt = core::DeserializeVt(vt_msg);
    }
    if (!message.ok() || !received_vt.ok()) {
      r.status = !message.ok() ? message.status() : received_vt.status();
      return r;
    }
    core::QueryAnswerMessage& m = message.value();
    {
      ScopedSpan span("core.client.verify");
      r.verification = memo_.VerifyAnswer(
          request, m.answer, m.witness, received_vt.value(), m.epoch,
          published, codec_, sae::crypto::HashScheme::kSha1);
    }
    r.answer = std::move(m.answer);
    r.witness = std::move(m.witness);
    r.auth_bytes = vt_msg.size();
    r.result_bytes = result_msg.size();
    return r;
  }

  storage::RecordCodec codec_;
  // The traced composition's client memo (the system's own is private).
  mutable core::SaeClientMemo memo_;
};

class TomDeployment : public SystemDeployment<core::TomSystem> {
 public:
  TomDeployment(std::unique_ptr<storage::FaultFs> fs, const WorkloadSpec& spec)
      : SystemDeployment(std::move(fs)),
        codec_(spec.record_size),
        memo_(core::AnswerCacheOptions{}) {}

  QueryResult Query(size_t, const QueryRequest& request,
                    uint64_t trace_id) override {
    QueryResult r;
    if (trace_id != 0) return Composed(request, trace_id);
    auto outcome = system_->ExecuteQuery(request);
    if (!outcome.ok()) {
      r.status = outcome.status();
      return r;
    }
    core::TomSystem::QueryOutcome& o = outcome.value();
    r.verification = o.verification;
    r.answer = std::move(o.answer);
    r.witness = std::move(o.results);
    r.auth_bytes = o.costs.auth_bytes;
    r.result_bytes = o.costs.result_bytes;
    return r;
  }

  Counters counters() const override {
    Counters c;
    c.sp_index = system_->sp().index_pool_stats();
    c.sp_heap = system_->sp().heap_pool_stats();
    core::TomCacheStats caches = system_->cache_stats();
    c.sp_answer = caches.sp_answer;
    c.digest = caches.sp_digest;
    c.client_memo = memo_.stats();
    c.durability = system_->durability_stats();
    c.vfs = vfs_->counters();
    return c;
  }

  double StorageBytes() const override {
    return double(system_->sp().StorageBytes());
  }

 private:
  // TomSystem::ExecuteQuery's calls, one span per module boundary.
  QueryResult Composed(const QueryRequest& request, uint64_t trace_id) {
    ScopedSpan root("query", trace_id);
    QueryResult r;
    uint64_t published = system_->epoch();
    std::call_once(key_once_, [this] {
      owner_key_ = std::make_unique<sae::crypto::RsaPublicKey>(
          system_->owner().public_key());
    });
    core::TomServiceProvider::PlanResponse plan;
    {
      ScopedSpan span("core.sp.execute_plan");
      auto p = system_->sp().ExecutePlan(request);
      if (!p.ok()) {
        r.status = p.status();
        return r;
      }
      plan = std::move(p).ValueOrDie();
    }
    std::vector<uint8_t> result_msg, vo_msg;
    {
      ScopedSpan span("core.messages.encode");
      result_msg = core::SerializeQueryAnswer(plan.answer, plan.witness,
                                              plan.vo.epoch, codec_);
      vo_msg = plan.vo.Serialize();
    }
    Result<core::QueryAnswerMessage> message = Status::Corruption("unset");
    Result<sae::mbtree::VerificationObject> vo = Status::Corruption("unset");
    {
      ScopedSpan span("core.messages.decode");
      message = core::DeserializeQueryAnswer(result_msg, codec_);
      vo = sae::mbtree::VerificationObject::Deserialize(vo_msg);
    }
    if (!message.ok() || !vo.ok()) {
      r.status = !message.ok() ? message.status() : vo.status();
      return r;
    }
    core::QueryAnswerMessage& m = message.value();
    {
      ScopedSpan span("core.client.verify");
      r.verification = memo_.VerifyAnswer(
          request, m.answer, m.witness, vo.value(), vo_msg, *owner_key_,
          codec_, sae::crypto::HashScheme::kSha1, published);
    }
    r.answer = std::move(m.answer);
    r.witness = std::move(m.witness);
    r.auth_bytes = vo_msg.size();
    r.result_bytes = result_msg.size();
    return r;
  }

  storage::RecordCodec codec_;
  mutable core::TomClientMemo memo_;
  std::once_flag key_once_;
  std::unique_ptr<sae::crypto::RsaPublicKey> owner_key_;
};

// SAE behind SpServer + TeServer on localhost; each client thread owns a
// NetSaeClient (one SP and one TE connection). No owner endpoint: the TE
// token's epoch is the freshness reference.
class NetDeployment : public SaeDeployment {
 public:
  NetDeployment(std::unique_ptr<storage::FaultFs> fs, const WorkloadSpec& spec)
      : SaeDeployment(std::move(fs), spec), spec_(spec) {}
  ~NetDeployment() override { PauseServing(); }

  std::unique_ptr<storage::FaultFs> PowerOff() override {
    PauseServing();
    return SaeDeployment::PowerOff();
  }

  Status ResumeServing() override {
    sp_server_ = std::make_unique<net::SpServer>(&system_->sp());
    te_server_ = std::make_unique<net::TeServer>(&system_->te());
    SAE_RETURN_NOT_OK(sp_server_->Start());
    SAE_RETURN_NOT_OK(te_server_->Start());
    net::NetSaeClientOptions options;
    options.sp.port = sp_server_->port();
    options.te.port = te_server_->port();
    options.record_size = spec_.record_size;
    for (size_t t = 0; t < spec_.threads; ++t) {
      clients_.push_back(std::make_unique<net::NetSaeClient>(options));
    }
    return Status::OK();
  }

  Status PauseServing() override {
    clients_.clear();
    if (sp_server_ != nullptr) sp_server_->Stop();
    if (te_server_ != nullptr) te_server_->Stop();
    sp_server_.reset();
    te_server_.reset();
    return Status::OK();
  }

  QueryResult Query(size_t thread, const QueryRequest& request,
                    uint64_t trace_id) override {
    QueryResult r;
    net::NetSaeClient& client = *clients_[thread];
    if (trace_id != 0) return Composed(&client, request, trace_id);
    auto verified = client.Query(request);
    if (!verified.ok()) {
      // The networked client folds the verdict into its status.
      r.verification = verified.status();
      return r;
    }
    r.answer = std::move(verified.value().answer);
    r.witness = std::move(verified.value().witness);
    r.auth_bytes = core::SerializeVt(verified.value().vt).size();
    return r;
  }

  std::vector<std::string> Probe(const QueryRequest& scan) override {
    if (clients_[0]->QueryPoisoned(scan).ok()) return {"poisoned SP plan"};
    return {};
  }

 private:
  // NetSaeClient::Query's calls, one span per boundary: both requests go
  // out, then the SP answer and the TE token come back.
  QueryResult Composed(net::NetSaeClient* client, const QueryRequest& request,
                       uint64_t trace_id) {
    ScopedSpan root("query", trace_id);
    QueryResult r;
    auto sp_lease = client->sp().Acquire();
    auto te_lease = client->te().Acquire();
    if (!sp_lease.ok() || !te_lease.ok()) {
      r.status = !sp_lease.ok() ? sp_lease.status() : te_lease.status();
      return r;
    }
    std::vector<uint8_t> request_msg;
    {
      ScopedSpan span("core.messages.encode");
      request_msg = core::SerializeQueryRequest(request);
    }
    {
      ScopedSpan span("net.send");
      r.status = sp_lease.value().Send(request_msg);
      if (r.status.ok()) r.status = te_lease.value().Send(request_msg);
    }
    if (!r.status.ok()) return r;
    Result<std::vector<uint8_t>> answer = Status::Corruption("unset");
    Result<std::vector<uint8_t>> token = Status::Corruption("unset");
    {
      ScopedSpan span("net.sp_wait");
      answer = sp_lease.value().Recv();
    }
    {
      ScopedSpan span("net.te_wait");
      token = te_lease.value().Recv();
    }
    if (!answer.ok() || !token.ok()) {
      r.status = !answer.ok() ? answer.status() : token.status();
      return r;
    }
    Result<core::QueryAnswerMessage> message = Status::Corruption("unset");
    Result<core::VerificationToken> vt = Status::Corruption("unset");
    {
      ScopedSpan span("core.messages.decode");
      r.status = net::CheckFrame(answer.value());
      if (r.status.ok()) r.status = net::CheckFrame(token.value());
      if (r.status.ok()) {
        message = core::DeserializeQueryAnswer(answer.value(), codec_);
        vt = core::DeserializeVt(token.value());
      }
    }
    if (!r.status.ok()) return r;
    if (!message.ok() || !vt.ok()) {
      r.status = !message.ok() ? message.status() : vt.status();
      return r;
    }
    core::QueryAnswerMessage& m = message.value();
    {
      ScopedSpan span("core.client.verify");
      r.verification = core::Client::VerifyAnswer(
          request, m.answer, m.witness, vt.value(), m.epoch, vt.value().epoch,
          codec_, sae::crypto::HashScheme::kSha1);
    }
    r.answer = std::move(m.answer);
    r.witness = std::move(m.witness);
    r.auth_bytes = token.value().size();
    r.result_bytes = answer.value().size();
    r.frame_bytes = 2 * (request_msg.size() + 4) + answer.value().size() + 4 +
                    token.value().size() + 4;
    return r;
  }

  WorkloadSpec spec_;
  std::unique_ptr<net::SpServer> sp_server_;
  std::unique_ptr<net::TeServer> te_server_;
  std::vector<std::unique_ptr<net::NetSaeClient>> clients_;
};

/// Builds the workload's deployment: a fresh Load of `dataset` into an
/// empty disk, or (dataset == nullptr) recovery from `disk`.
Result<std::unique_ptr<Deployment>> Launch(const WorkloadSpec& spec,
                                           const std::vector<Record>* dataset,
                                           std::unique_ptr<storage::FaultFs> disk) {
  if (disk == nullptr) disk = std::make_unique<storage::FaultFs>();
  std::unique_ptr<Deployment> out;
  Status st;
  switch (spec.model) {
    case Model::kSae: {
      auto d = std::make_unique<SaeDeployment>(std::move(disk), spec);
      st = d->Open(spec, dataset);
      out = std::move(d);
      break;
    }
    case Model::kTom: {
      auto d = std::make_unique<TomDeployment>(std::move(disk), spec);
      st = d->Open(spec, dataset);
      out = std::move(d);
      break;
    }
    case Model::kNet: {
      auto d = std::make_unique<NetDeployment>(std::move(disk), spec);
      st = d->Open(spec, dataset);
      if (st.ok()) st = d->ResumeServing();
      out = std::move(d);
      break;
    }
  }
  if (!st.ok()) return st;
  return out;
}

// ---------------------------------------------------------------------------
// The closed-loop load generator.

/// Admits any number of holders of one class at a time, never both, and
/// alternates between the classes when both wait. The traced mixed window
/// takes it around each composed query (class 0) and update (class 1):
/// the composition calls the parties outside SaeSystem's own lock, so it
/// must not overlap an update, while updates still overlap each other and
/// keep their group commit.
class RoomLock {
 public:
  void Enter(int cls) {
    std::unique_lock<std::mutex> lock(mu_);
    ++waiting_[cls];
    cv_.wait(lock, [&] {
      return active_[1 - cls] == 0 && (waiting_[1 - cls] == 0 || turn_ == cls);
    });
    --waiting_[cls];
    ++active_[cls];
  }
  void Leave(int cls) {
    std::lock_guard<std::mutex> lock(mu_);
    --active_[cls];
    if (waiting_[1 - cls] > 0) turn_ = 1 - cls;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int active_[2] = {0, 0};
  int waiting_[2] = {0, 0};
  int turn_ = 0;
};

class RoomGuard {
 public:
  RoomGuard(RoomLock* room, int cls) : room_(room), cls_(cls) {
    if (room_ != nullptr) room_->Enter(cls_);
  }
  ~RoomGuard() {
    if (room_ != nullptr) room_->Leave(cls_);
  }
  RoomGuard(const RoomGuard&) = delete;
  RoomGuard& operator=(const RoomGuard&) = delete;

 private:
  RoomLock* room_;
  int cls_;
};

/// A slice of a phase: a second of a timed phase, or kUpdatesPerSlice
/// updates of a counted one. Metrics are taken over the quieter half of
/// the slices (steal.h), so a burst of outside load moves a few slices
/// rather than the whole run.
struct Slice {
  Histogram query_ns, update_ns;
  int64_t last_done_ns = 0;

  void Merge(const Slice& o) {
    query_ns.Merge(o.query_ns);
    update_ns.Merge(o.update_ns);
    last_done_ns = std::max(last_done_ns, o.last_done_ns);
  }
};

struct PhaseStats {
  Histogram query_ns, update_ns;
  std::vector<Slice> slices;
  int64_t start_ns = 0;
  int64_t slice_ns = 0;  // 0: count slices, see `chunk`
  size_t chunk = 0;      // the count slice of the update in flight
  uint64_t queries = 0, updates = 0, failed = 0;
  uint64_t auth_bytes = 0, result_bytes = 0, frame_bytes = 0;
  uint64_t max_epoch = 0;
  std::vector<std::string> errors;  // the first few

  void Error(std::string what) {
    ++failed;
    if (errors.size() < 4) errors.push_back(std::move(what));
  }
  /// The slice an operation finishing at `done_ns` falls in; nullptr past
  /// the last one (the overshoot after the deadline).
  Slice* SliceAt(int64_t done_ns) {
    size_t i = slice_ns > 0 ? size_t((done_ns - start_ns) / slice_ns) : chunk;
    if (i >= slices.size()) return nullptr;
    slices[i].last_done_ns = std::max(slices[i].last_done_ns, done_ns);
    return &slices[i];
  }
  void Merge(const PhaseStats& o) {
    query_ns.Merge(o.query_ns);
    update_ns.Merge(o.update_ns);
    if (slices.size() < o.slices.size()) slices.resize(o.slices.size());
    for (size_t i = 0; i < o.slices.size(); ++i) slices[i].Merge(o.slices[i]);
    queries += o.queries;
    updates += o.updates;
    failed += o.failed;
    auth_bytes += o.auth_bytes;
    result_bytes += o.result_bytes;
    frame_bytes += o.frame_bytes;
    max_epoch = std::max(max_epoch, o.max_epoch);
    for (const std::string& e : o.errors) {
      if (errors.size() < 8) errors.push_back(e);
    }
  }
};

/// One client thread: its request stream and the ids it owns. Thread t
/// deletes only ids it owns (originals with id % threads == t, and its own
/// inserts), and inserts fresh ids n + 1 + t + k * threads, so updates
/// never collide and none fails.
struct Worker {
  Worker(const Inputs& inputs, size_t index)
      : index(index),
        stream(inputs, index),
        codec(inputs.spec.record_size),
        stride(inputs.spec.threads),
        next_fresh(inputs.spec.records + 1 + index) {}

  size_t index;
  RequestStream stream;
  storage::RecordCodec codec;
  uint64_t stride;
  uint64_t next_fresh;
  bool insert_next = true;
  std::vector<RecordId> live;
  std::unordered_map<RecordId, Key> key_of;
  std::vector<std::pair<RecordId, Key>> deleted;  // recent, for recovery
  PhaseStats phase;
};

struct Phase {
  double seconds = 0.0;  // a timed phase of queries or of the mix, ...
  bool mixed = false;
  uint64_t updates = 0;  // ... or this many updates from one writer
  bool traced = false;
  const Oracle* oracle = nullptr;  // static dataset: check every answer
  RoomLock* room = nullptr;
  std::function<bool()> monitor;  // polled every 5 ms; true ends the phase
};

struct PhaseResult {
  PhaseStats stats;
  double wall_s = 0.0;
};

std::atomic<uint64_t> g_next_request{1};
StealClock g_steal;  // sampled by the main thread only

void DoQuery(Deployment& d, Worker& w, const Phase& phase) {
  QueryRequest request = w.stream.NextQuery();
  uint64_t trace_id = phase.traced ? g_next_request.fetch_add(1) : 0;
  int64_t start = NowNs();
  QueryResult r;
  {
    RoomGuard guard(phase.room, 0);
    r = d.Query(w.index, request, trace_id);
  }
  int64_t done = NowNs();
  int64_t ns = done - start;
  PhaseStats& s = w.phase;
  ++s.queries;
  if (!r.status.ok() || !r.verification.ok()) {
    s.Error(Describe(request) + ": " +
            (!r.status.ok() ? r.status : r.verification).ToString());
    return;
  }
  s.query_ns.Record(uint64_t(ns));
  if (Slice* slice = s.SliceAt(done)) slice->query_ns.Record(uint64_t(ns));
  s.auth_bytes += r.auth_bytes;
  s.result_bytes += r.result_bytes;
  s.frame_bytes += r.frame_bytes;
  if (phase.oracle != nullptr) {
    std::string bad = phase.oracle->Check(request, r.answer, r.witness);
    if (!bad.empty()) s.Error("oracle disagrees on " + bad + " for " +
                              Describe(request));
  }
}

void DoUpdate(Deployment& d, Worker& w, bool insert, const Phase& phase) {
  if (w.live.empty()) insert = true;
  uint64_t trace_id = phase.traced ? g_next_request.fetch_add(1) : 0;
  RecordId id = 0;
  Key key = 0;
  size_t slot = 0;
  Result<uint64_t> result = Status::Corruption("unset");
  int64_t start = NowNs();
  {
    RoomGuard guard(phase.room, 1);
    ScopedSpan root("update", trace_id);
    if (insert) {
      id = w.next_fresh;
      key = w.stream.NextKey();
      result = d.Insert(w.codec.MakeRecord(id, key));
    } else {
      slot = size_t(w.stream.NextIndex(w.live.size()));
      id = w.live[slot];
      key = w.key_of[id];
      result = d.Delete(id);
    }
  }
  int64_t done = NowNs();
  int64_t ns = done - start;
  PhaseStats& s = w.phase;
  ++s.updates;
  if (!result.ok()) {
    s.Error(Fmt("%s %llu: ", insert ? "insert" : "delete",
                (unsigned long long)id) + result.status().ToString());
    return;
  }
  s.update_ns.Record(uint64_t(ns));
  if (Slice* slice = s.SliceAt(done)) slice->update_ns.Record(uint64_t(ns));
  s.max_epoch = std::max(s.max_epoch, result.value());
  if (insert) {
    w.next_fresh += w.stride;
    w.live.push_back(id);
    w.key_of[id] = key;
  } else {
    w.live[slot] = w.live.back();
    w.live.pop_back();
    w.key_of.erase(id);
    if (w.deleted.size() == kRecoveryChecksPerThread) {
      w.deleted.erase(w.deleted.begin());
    }
    w.deleted.emplace_back(id, key);
  }
}

PhaseResult RunPhase(Deployment& d, std::vector<Worker>& workers,
                     const Phase& phase) {
  // Slices of about a second tiling a timed phase, or count slices.
  const bool counted = phase.updates > 0;
  size_t n_slices =
      counted ? size_t(std::max<uint64_t>(1, phase.updates / kUpdatesPerSlice))
              : std::max<size_t>(1, size_t(phase.seconds));
  int64_t start = NowNs();
  for (Worker& w : workers) {
    w.phase = PhaseStats();
    w.phase.slices.resize(n_slices);
    w.phase.start_ns = start;
    w.phase.slice_ns =
        counted ? 0 : int64_t(phase.seconds * 1e9) / int64_t(n_slices);
  }
  // Counted updates come from one writer: with more and no readers, the
  // checkpointer never finds the quiescent point its cadence waits for,
  // the WAL segment keeps growing, and the in-memory disk's sync (a copy
  // of the whole segment) slows every update as the phase runs.
  size_t active = counted ? 1 : workers.size();
  std::atomic<bool> stop{false};
  std::atomic<size_t> running{active};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < active; ++i) {
    threads.emplace_back([&d, &phase, &stop, &running, &w = workers[i]] {
      for (uint64_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
        if (phase.updates > 0) {
          if (k == phase.updates) break;
          w.phase.chunk = size_t(k / kUpdatesPerSlice);
          DoUpdate(d, w, w.insert_next, phase);
          w.insert_next = !w.insert_next;
        } else if (phase.mixed) {
          int kind = w.stream.NextKind();
          if (kind == 0) {
            DoQuery(d, w, phase);
          } else {
            DoUpdate(d, w, kind == 1, phase);
          }
        } else {
          DoQuery(d, w, phase);
        }
      }
      running.fetch_sub(1);
    });
  }
  int64_t deadline =
      counted ? INT64_MAX : start + int64_t(phase.seconds * 1e9);
  g_steal.Sample();
  for (int tick = 1; running.load() > 0 && NowNs() < deadline; ++tick) {
    if (phase.monitor && phase.monitor()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (tick % 20 == 0) g_steal.Sample();
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  g_steal.Sample();
  PhaseResult out;
  out.wall_s = double(NowNs() - start) / 1e9;
  out.stats.start_ns = start;
  out.stats.slice_ns = workers[0].phase.slice_ns;
  for (const Worker& w : workers) out.stats.Merge(w.phase);
  return out;
}

// ---------------------------------------------------------------------------
// Reporting helpers.

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double HitRatio(const core::AnswerCacheStats& s) {
  return Ratio(double(s.hits), double(s.hits + s.misses));
}
double HitRatio(const storage::NodeCacheStats& s) {
  return Ratio(double(s.hits), double(s.hits + s.misses));
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string TimingLine(const Histogram& h) {
  std::string p99 = h.P99Supported()
                        ? Fmt("%.4f ms", h.QuantileMs(0.99))
                        : std::string("none (fewer than 1000 samples)");
  return Fmt("median %.4f ms, p99 %s, n=%llu", h.QuantileMs(0.5),
             p99.c_str(), (unsigned long long)h.count());
}

struct PhaseSummary {
  double rate = 0.0, p50 = 0.0, p99 = 0.0;
  size_t slices = 0;
  uint64_t samples = 0;
  bool p99_ok = false;
  std::string rates;  // per slice, for judging steadiness
};

/// The completion rate, p50 and p99 of a phase's queries or updates: over
/// the quieter half of a timed phase's slices, over the whole of a counted
/// one. A count slice lasts from the previous slice's last completion to
/// its own.
PhaseSummary Summarize(const PhaseResult& p, bool updates) {
  std::vector<double> rate, steal;
  std::vector<const Histogram*> latencies;
  PhaseSummary out;
  int64_t begin = p.stats.start_ns;
  for (const Slice& slice : p.stats.slices) {
    const Histogram& h = updates ? slice.update_ns : slice.query_ns;
    int64_t end = p.stats.slice_ns > 0 ? begin + p.stats.slice_ns
                                       : slice.last_done_ns;
    double secs = double(end - begin) / 1e9;
    double share = g_steal.Share(begin, end);
    begin = end;
    if (h.count() == 0 || secs <= 0) continue;
    rate.push_back(double(h.count()) / secs);
    latencies.push_back(&h);
    steal.push_back(share);
    out.rates += Fmt(" %.0f (%.0f%%)", rate.back(), 100 * share);
  }
  if (p.stats.slice_ns == 0) {
    // A counted phase is taken whole: each slice holds one or two of the
    // periodic full checkpoints, so slices differ by more than steal.
    const Histogram& h = updates ? p.stats.update_ns : p.stats.query_ns;
    out.rate = Ratio(double(h.count()), double(begin - p.stats.start_ns) / 1e9);
    out.p50 = h.QuantileMs(0.5);
    out.p99 = h.QuantileMs(0.99);
    out.slices = rate.size();
    out.samples = h.count();
    out.p99_ok = h.P99Supported();
    return out;
  }
  // The rate is the median over the quiet slices; the latencies come from
  // their merged distribution, which has more samples beyond its p99.
  std::vector<double> kept;
  Histogram merged;
  for (size_t i : QuietHalf(steal)) {
    kept.push_back(rate[i]);
    merged.Merge(*latencies[i]);
  }
  out.rate = Median(kept);
  out.p50 = merged.QuantileMs(0.5);
  out.p99 = merged.QuantileMs(0.99);
  out.slices = kept.size();
  out.samples = merged.count();
  out.p99_ok = merged.P99Supported();
  return out;
}

/// Repeated timings of one single-threaded step, each with the host CPU
/// steal during it.
struct Trials {
  std::vector<double> seconds;
  std::vector<double> steal;

  /// Times one call of `step` (on the thread that samples g_steal).
  template <typename Step>
  auto Time(Step step) {
    g_steal.Sample();
    int64_t t0 = NowNs();
    auto result = step();
    int64_t t1 = NowNs();
    g_steal.Sample();
    seconds.push_back(double(t1 - t0) / 1e9);
    steal.push_back(g_steal.Share(t0, t1));
    return result;
  }

  double total() const {
    double sum = 0.0;
    for (double s : seconds) sum += s;
    return sum;
  }

  /// The median over the quieter half of the trials (steal.h), with the
  /// shares rounded to whole percents: a few ticks of steal in a
  /// multi-second trial rank no trial above another.
  double QuietMedian() const {
    std::vector<double> kept;
    for (size_t i : QuietHalf(RoundedSteal())) kept.push_back(seconds[i]);
    return Median(kept);
  }

  std::vector<double> RoundedSteal() const {
    std::vector<double> out;
    for (double share : steal) out.push_back(std::round(100 * share));
    return out;
  }

  std::string Describe() const {
    std::string out = Fmt("median of the %zu of %zu trials with the least "
                          "host CPU steal:", QuietHalf(RoundedSteal()).size(),
                          seconds.size());
    if (seconds.size() <= 9) {
      for (size_t i = 0; i < seconds.size(); ++i) {
        out += Fmt(" %.4f (%.0f%%)", seconds[i], 100 * steal[i]);
      }
      return out;
    }
    std::vector<double> sorted = seconds;
    std::sort(sorted.begin(), sorted.end());
    size_t n = sorted.size();
    return out + Fmt(" all trials min %.4f, quartiles %.4f %.4f, max %.4f; "
                     "steal up to %.0f%%", sorted[0], sorted[n / 4],
                     sorted[(3 * n) / 4], sorted[n - 1],
                     100 * *std::max_element(steal.begin(), steal.end()));
  }
};

class Report {
 public:
  explicit Report(RunReport* out) : out_(out) {}

  void Line(std::string line) { out_->lines.push_back(std::move(line)); }
  void Error(std::string what) {
    out_->lines.push_back("ERROR: " + what);
    out_->errors.push_back(std::move(what));
  }
  /// A metric of the result JSON, also printed in the report.
  void Metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "") {
    out_->metrics.push_back({name, value, unit});
    Info(name, value, unit, note);
  }
  /// A figure printed in the report only.
  void Info(const std::string& name, double value, const std::string& unit,
            const std::string& note = "") {
    Line(Fmt("%-36s %.6g %s%s%s", name.c_str(), value, unit.c_str(),
             note.empty() ? "" : "  ", note.c_str()));
  }
 private:
  RunReport* out_;
};

/// Tracks checkpoint bytes per update over each full-compaction cycle of
/// the durable mix; the window may start once the mean of the last three
/// cycles is within 10% of the mean of the three before (single cycles
/// scatter by about 20%).
class CheckpointLevel {
 public:
  bool Observe(const core::DurabilityStats& s) {
    if (s.checkpoints_full > last_full_) {
      if (started_) {
        cycles_.push_back(Ratio(double(s.checkpoint_bytes_total - last_bytes_),
                                double(s.wal_records - last_records_)));
      }
      started_ = true;
      last_full_ = s.checkpoints_full;
      last_bytes_ = s.checkpoint_bytes_total;
      last_records_ = s.wal_records;
    }
    return levelled();
  }
  bool levelled() const {
    size_t n = cycles_.size();
    if (n < 6) return false;
    double last = (cycles_[n - 1] + cycles_[n - 2] + cycles_[n - 3]) / 3;
    double prev = (cycles_[n - 4] + cycles_[n - 5] + cycles_[n - 6]) / 3;
    return std::abs(last - prev) <= 0.10 * prev;
  }
  std::string Describe() const {
    std::string out;
    for (double c : cycles_) out += Fmt(" %.0f", c);
    return out;
  }

 private:
  bool started_ = false;
  uint64_t last_full_ = 0, last_bytes_ = 0, last_records_ = 0;
  std::vector<double> cycles_;
};

/// After recovery: the epoch covers every acknowledged update, and a
/// sample of acknowledged inserts reads back verified while a sample of
/// acknowledged deletes stays gone.
void CheckRecovered(Deployment& r, const std::vector<Worker>& workers,
                    size_t original_records, uint64_t max_acked,
                    Report* report) {
  if (r.epoch() < max_acked) {
    report->Error(Fmt("recovered epoch %llu is below the highest "
                      "acknowledged %llu", (unsigned long long)r.epoch(),
                      (unsigned long long)max_acked));
  }
  size_t checked = 0;
  for (const Worker& w : workers) {
    std::vector<std::pair<RecordId, Key>> probes;
    for (RecordId id : w.live) {
      if (id > original_records && probes.size() < kRecoveryChecksPerThread) {
        probes.emplace_back(id, w.key_of.at(id));
      }
    }
    size_t inserted = probes.size();
    probes.insert(probes.end(), w.deleted.begin(), w.deleted.end());
    for (size_t k = 0; k < probes.size(); ++k) {
      // A deleted key is read back with the range that starts at it, which
      // also holds live records: TOM fails to verify any range that lies
      // entirely below the smallest stored key ("digest hidden inside the
      // result span"), a defect of its own this check is not about.
      Key key = probes[k].second;
      QueryResult q = r.Query(
          0, k < inserted ? QueryRequest::Point(key)
                          : QueryRequest::Scan(key, key + kScanExtent - 1),
          0);
      bool present = false;
      for (const Record& rec : q.witness) present |= rec.id == probes[k].first;
      ++checked;
      bool verified = q.status.ok() && q.verification.ok();
      if (!verified || present != (k < inserted)) {
        Status why = !q.status.ok() ? q.status : q.verification;
        report->Error(
            Fmt("after recovery, acknowledged %s of id %llu (key %u) ",
                k < inserted ? "insert" : "delete",
                (unsigned long long)probes[k].first, probes[k].second) +
            (verified ? "is not reflected" : "does not verify: " +
                                                 why.ToString()));
      }
    }
  }
  report->Line(Fmt("# recovery: epoch %llu (highest acknowledged %llu), "
                   "%zu acknowledged updates read back",
                   (unsigned long long)r.epoch(),
                   (unsigned long long)max_acked, checked));
}

}  // namespace

RunReport RunWorkload(const RunConfig& config) {
  RunReport out;
  Report report(&out);
  WorkloadSpec spec;
  if (!LookupWorkload(config.workload, config.quick, &spec)) {
    report.Error("unknown workload " + config.workload);
    return out;
  }
  Inputs inputs = MakeInputs(spec, config.seed);
  Oracle oracle(inputs.dataset);
  const bool trace = config.trace;

  report.Line(Fmt("# workload %s, seed %llu, %s run, window %.1f s",
                  spec.name.c_str(), (unsigned long long)config.seed,
                  trace ? "traced" : "untraced", config.seconds));
  report.Line(Fmt("# model %s; %zu records x %zu B (UNF keys in [0, %u]); "
                  "%zu closed-loop client threads",
                  spec.model == Model::kTom ? "TOM" :
                  spec.model == Model::kNet ? "SAE over TCP (localhost)" : "SAE",
                  spec.records, spec.record_size, kDomainMax, spec.threads));
  report.Line(Fmt("# traffic: %s",
                  spec.mixed ? "50% uniform 0.5% scans, 25% inserts of fresh "
                               "ids, 25% deletes of live ids"
                  : spec.zipf_pool
                      ? "scan/point/count/sum/min/max/top-5 pool of 4096, "
                        "Zipf(0.8) popularity"
                      : "uniform 0.5%-extent scans, fresh per query"));
  report.Line(Fmt("# flush policy: in-memory FaultFs, %u us simulated fsync "
                  "per barrier; durability defaults (WAL group commit, delta "
                  "checkpoint every 64 updates, full every 8th, background "
                  "checkpoint thread)%s", kSyncLatencyUs,
                  spec.model == Model::kTom
                      ? "; TOM: no cadence checkpoints (snapshot_interval 0), "
                        "see the note in workloads.cc"
                      : ""));
  if (!spec.mixed) {
    report.Line(Fmt("# after the read window: %llu durable updates "
                    "(alternating inserts of fresh ids and deletes of live "
                    "ids) from one writer thread",
                    (unsigned long long)(config.quick ? 1000 : kTailUpdates)));
  }

  // --- set-up: Load (+ baseline snapshot, + server start), N trials.
  // Whether to time one more set-up or recovery trial (one when traced).
  auto more_trials = [trace](const Trials& trials, size_t min_trials,
                             double budget_s) {
    size_t n = trials.seconds.size();
    if (trace) return n == 0;
    return n < min_trials || (n < kMaxTrials && trials.total() < budget_s);
  };
  Trials setup;
  std::unique_ptr<Deployment> d;
  while (more_trials(setup, kMinSetupTrials, kSetupBudgetS)) {
    d.reset();
    auto launched =
        setup.Time([&] { return Launch(spec, &inputs.dataset, nullptr); });
    if (!launched.ok()) {
      report.Error("set-up failed: " + launched.status().ToString());
      return out;
    }
    d = std::move(launched).ValueOrDie();
  }

  std::vector<Worker> workers;
  for (size_t t = 0; t < spec.threads; ++t) workers.emplace_back(inputs, t);
  for (const Record& r : inputs.dataset) {
    Worker& w = workers[r.id % spec.threads];
    w.live.push_back(r.id);
    w.key_of[r.id] = r.key;
  }

  auto account = [&](const PhaseResult& p, const char* phase_name) {
    out.attempted += p.stats.queries + p.stats.updates;
    out.failed += p.stats.failed;
    for (const std::string& e : p.stats.errors) {
      report.Error(std::string(phase_name) + ": " + e);
    }
  };

  // --- warm-up: fill pools and caches; for the durable mix, run until
  // checkpoint bytes per update have levelled off.
  {
    Phase warm;
    warm.mixed = spec.mixed;
    warm.oracle = spec.mixed ? nullptr : &oracle;
    CheckpointLevel level;
    if (spec.mixed) {
      warm.seconds = config.quick ? 15.0 : 60.0;
      warm.monitor = [&] { return level.Observe(d->durability_stats()); };
    } else {
      warm.seconds = config.quick ? 0.5 : 2.0;
    }
    PhaseResult p = RunPhase(*d, workers, warm);
    account(p, "warm-up");
    if (spec.mixed) {
      report.Line(Fmt("# warm-up %.1f s; checkpoint bytes per update by "
                      "compaction cycle:%s", p.wall_s,
                      level.Describe().c_str()));
      if (!level.levelled()) {
        report.Error("checkpoint bytes per update did not level off");
      }
    }
  }

  // --- the measured window. The traced run measures half of it untraced
  // (for trace.overhead) and half traced.
  Phase window;
  window.mixed = spec.mixed;
  window.oracle = spec.mixed ? nullptr : &oracle;
  RoomLock room;
  Counters before, after;
  PhaseResult measured, traced;
  uint64_t pending_max = 0;
  auto watch_pending = [&] {
    pending_max = std::max(pending_max,
                           d->durability_stats().pending_checkpoints);
    return false;
  };
  if (!trace) {
    window.seconds = config.seconds;
    measured = RunPhase(*d, workers, window);
    account(measured, "window");
  } else {
    window.seconds = config.seconds / 2;
    measured = RunPhase(*d, workers, window);
    account(measured, "untraced window");
    window.traced = true;
    if (spec.mixed) {
      window.room = &room;
      window.monitor = watch_pending;
    }
    before = d->counters();
    Tracer::Get().Enable();
    traced = RunPhase(*d, workers, window);
    Tracer::Get().Disable();
    account(traced, "traced window");
    if (Status st = d->WaitForCheckpoints(); !st.ok()) {
      report.Error("checkpoint failed: " + st.ToString());
    }
    after = d->counters();
  }

  // --- attack probes, outside the window.
  {
    QueryRequest scan = QueryRequest::Scan(0, kDomainMax / 100);
    for (const std::string& accepted : d->Probe(scan)) {
      report.Error("attack probe accepted: " + accepted);
    }
  }

  // --- durable updates: the mixed window already ran them; the other
  // workloads run a timed update phase now.
  PhaseResult updates = trace ? traced : measured;
  Counters update_before = before, update_after = after;
  if (!spec.mixed) {
    Phase tail;
    tail.updates = config.quick ? 1000 : kTailUpdates;
    tail.traced = trace;
    pending_max = 0;
    tail.monitor = watch_pending;
    if (Status st = d->PauseServing(); !st.ok()) report.Error(st.ToString());
    update_before = d->counters();
    if (trace) Tracer::Get().Enable();
    updates = RunPhase(*d, workers, tail);
    Tracer::Get().Disable();
    account(updates, "updates");
    if (Status st = d->WaitForCheckpoints(); !st.ok()) {
      report.Error("checkpoint failed: " + st.ToString());
    }
    update_after = d->counters();
    if (Status st = d->ResumeServing(); !st.ok()) report.Error(st.ToString());
  } else if (Status st = d->WaitForCheckpoints(); !st.ok()) {
    report.Error("checkpoint failed: " + st.ToString());
  }

  // --- space at run end: the serving parties' storage, plus the durable
  // disk on the durable mix. Elsewhere the disk holds one or two full
  // snapshots depending on where the short update phase left the
  // compaction cycle, which would make the figure jump between runs.
  uint64_t live_records = 0;
  for (const Worker& w : workers) live_records += w.live.size();
  double space_amp = Ratio(
      d->StorageBytes() + (spec.mixed ? double(d->fs().durable_bytes()) : 0.0),
      double(live_records * spec.record_size));
  uint64_t skipped = d->durability_stats().checkpoints_skipped;
  if (skipped != 0) {
    report.Error(Fmt("%llu checkpoints skipped", (unsigned long long)skipped));
  }

  // --- power loss, then recovery from the durable bytes, N trials.
  uint64_t max_acked = std::max(measured.stats.max_epoch,
                                updates.stats.max_epoch);
  // Every trial recovers from the same disk: recovery writes no
  // checkpoint, so the next power loss leaves the same durable state.
  std::unique_ptr<storage::FaultFs> disk = d->PowerOff();
  d.reset();
  Trials recovery;
  uint64_t tail_records = 0;
  while (more_trials(recovery, kMinRecoveryTrials, kRecoveryBudgetS)) {
    disk->DropVolatile();
    auto recovered =
        recovery.Time([&] { return Launch(spec, nullptr, std::move(disk)); });
    if (!recovered.ok()) {
      report.Error("recovery failed: " + recovered.status().ToString());
      break;
    }
    if (recovery.seconds.size() == 1) {
      tail_records = recovered.value()->recovered_tail_records();
      CheckRecovered(*recovered.value(), workers, spec.records, max_acked,
                     &report);
    }
    disk = recovered.value()->PowerOff();
  }

  // --- metrics.
  const PhaseStats& m = measured.stats;
  const PhaseStats& u = updates.stats;
  PhaseSummary q = Summarize(measured, /*updates=*/false);

  if (!trace) {
    PhaseSummary up = Summarize(updates, /*updates=*/true);
    if (!q.p99_ok || !up.p99_ok) {
      report.Error("too few samples for a p99 (10 beyond it)");
    }
    report.Line("# end-to-end metrics: rates are medians over the quieter "
                "half of the slices (host CPU steal in parentheses), "
                "latencies come from those slices' merged distribution, "
                "whole-phase distributions in brackets");
    report.Line("# query rate by slice:" + q.rates);
    report.Line("# update rate by slice:" + up.rates);
    // Printed, not bounded: fail_frac is 0 on honest traffic, and the
    // p99s swing by more than any allowed bound from run to run on a
    // shared host (see README.md).
    report.Info("fail_frac", Ratio(double(out.failed), double(out.attempted)),
                "ratio", Fmt("(failed + rejected %llu of %llu attempted)",
                             (unsigned long long)out.failed,
                             (unsigned long long)out.attempted));
    report.Info("query_p99_ms", q.p99, "ms",
                Fmt("(n=%llu)", (unsigned long long)q.samples));
    report.Info("update_p99_ms", up.p99, "ms",
                Fmt("(n=%llu)", (unsigned long long)up.samples));
    report.Metric("setup_s", setup.QuietMedian(), "s",
                  "(" + setup.Describe() + ")");
    report.Metric("query_qps", q.rate, "1/s",
                  Fmt("(median of %zu slices; %llu verified queries in "
                      "%.2f s)", q.slices,
                      (unsigned long long)m.query_ns.count(), measured.wall_s));
    report.Metric("query_p50_ms", q.p50, "ms",
                  Fmt("(n=%llu) [", (unsigned long long)q.samples) +
                      TimingLine(m.query_ns) + "]");
    report.Metric("update_ups", up.rate, "1/s",
                  Fmt("(%llu durable updates acknowledged)",
                      (unsigned long long)u.update_ns.count()));
    report.Metric("update_p50_ms", up.p50, "ms",
                  Fmt("(n=%llu) [", (unsigned long long)up.samples) +
                      TimingLine(u.update_ns) + "]");
    report.Metric("recovery_s", recovery.QuietMedian(), "s",
                  "(" + recovery.Describe() + ")");
    report.Metric("auth_bytes_per_query",
                  Ratio(double(m.auth_bytes), double(m.query_ns.count())),
                  "B");
    report.Metric("peak_rss_mb", PeakRssMb(), "MB");
    report.Metric("space_amp", space_amp, "x",
                  Fmt("(%llu live records)", (unsigned long long)live_records));
    return out;
  }

  // Traced run: per-layer metrics.
  std::map<std::string, Histogram> self = Tracer::Get().SelfTimes();
  auto self_ms = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.QuantileMs(0.5);
  };
  report.Line("# per-layer self time per call");
  for (const auto& [name, h] : self) {
    report.Line(Fmt("# %-28s ", name.c_str()) + TimingLine(h));
  }

  const PhaseStats& t = traced.stats;
  double nq = double(t.queries - t.failed);
  Counters w{};  // the traced window's deltas
  w.sp_index = after.sp_index - before.sp_index;
  w.sp_heap = after.sp_heap - before.sp_heap;
  w.te_pool = after.te_pool - before.te_pool;
  w.sp_answer = after.sp_answer - before.sp_answer;
  w.te_vt = after.te_vt - before.te_vt;
  w.client_memo = after.client_memo - before.client_memo;
  w.digest.hits = after.digest.hits - before.digest.hits;
  w.digest.misses = after.digest.misses - before.digest.misses;
  const bool tom = spec.model == Model::kTom;

  report.Line("# per-layer metrics");
  report.Metric("core.sp.execute_plan_ms", self_ms("core.sp.execute_plan"),
                "ms");
  report.Metric("core.te.generate_vt_ms", self_ms("core.te.generate_vt"),
                "ms");
  report.Metric("core.client.verify_ms", self_ms("core.client.verify"), "ms");
  report.Metric("core.messages.encode_ms", self_ms("core.messages.encode"),
                "ms");
  report.Metric("core.messages.decode_ms", self_ms("core.messages.decode"),
                "ms");
  report.Metric("core.result_bytes_per_query", Ratio(double(t.result_bytes), nq),
                "B");
  report.Metric("core.cache.sp_answer_hit_ratio", HitRatio(w.sp_answer),
                "ratio");
  report.Metric("core.cache.te_vt_hit_ratio", HitRatio(w.te_vt), "ratio");
  report.Metric("core.cache.client_memo_hit_ratio", HitRatio(w.client_memo),
                "ratio");
  report.Metric("btree.index_pages_per_query",
                tom ? 0.0 : Ratio(double(w.sp_index.accesses), nq), "pages");
  report.Metric("xbtree.te_pages_per_query",
                Ratio(double(w.te_pool.accesses), nq), "pages");
  report.Metric("xbtree.digest_cache_hit_ratio",
                tom ? 0.0 : HitRatio(w.digest), "ratio");
  report.Metric("mbtree.sp_pages_per_query",
                tom ? Ratio(double(w.sp_index.accesses), nq) : 0.0, "pages");
  report.Metric("mbtree.digest_cache_hit_ratio", tom ? HitRatio(w.digest) : 0.0,
                "ratio");
  report.Metric("mbtree.vo_bytes_per_query",
                tom ? Ratio(double(t.auth_bytes), nq) : 0.0, "B");
  report.Metric("storage.sp_heap_pages_per_query",
                Ratio(double(w.sp_heap.accesses), nq), "pages");
  report.Metric("storage.sp_heap_miss_ratio",
                Ratio(double(w.sp_heap.misses), double(w.sp_heap.accesses)),
                "ratio");
  report.Metric("storage.sp_index_miss_ratio",
                Ratio(double(w.sp_index.misses), double(w.sp_index.accesses)),
                "ratio");
  report.Metric("storage.te_pool_miss_ratio",
                Ratio(double(w.te_pool.misses), double(w.te_pool.accesses)),
                "ratio");
  report.Metric("storage.evictions_per_query",
                Ratio(double(w.sp_index.evictions + w.sp_heap.evictions +
                             w.te_pool.evictions), nq),
                "count");

  // The update path, over the durable updates the run made.
  const double n_updates = double(u.update_ns.count());
  VfsCounters vfs = update_after.vfs - update_before.vfs;
  const core::DurabilityStats& d0 = update_before.durability;
  const core::DurabilityStats& d1 = update_after.durability;
  report.Metric("storage.vfs.syncs_per_update", Ratio(double(vfs.syncs),
                                                      n_updates), "count");
  report.Metric("storage.vfs.sync_wait_ms", self_ms("storage.vfs.sync"), "ms");
  report.Metric("storage.vfs.bytes_written_per_update",
                Ratio(double(vfs.bytes_written), n_updates), "B");
  report.Metric("storage.vfs.write_amp",
                Ratio(double(vfs.bytes_written),
                      n_updates * double(spec.record_size)), "x");
  report.Metric("durability.wal.records_per_sync",
                Ratio(double(d1.wal_records - d0.wal_records),
                      double(d1.wal_syncs - d0.wal_syncs)), "count");
  report.Metric("durability.wal.bytes_per_update",
                Ratio(double(vfs.wal_bytes_written), n_updates), "B");
  report.Metric("durability.ckpt.bytes_per_update",
                Ratio(double(d1.checkpoint_bytes_total -
                             d0.checkpoint_bytes_total), n_updates), "B");
  report.Metric("durability.ckpt.full_per_kupdate",
                Ratio(1000.0 * double(d1.checkpoints_full -
                                      d0.checkpoints_full), n_updates),
                "count");
  report.Metric("durability.ckpt.delta_per_kupdate",
                Ratio(1000.0 * double(d1.checkpoints_delta -
                                      d0.checkpoints_delta), n_updates),
                "count");
  report.Metric("durability.ckpt.last_ms", d1.last_checkpoint_ms, "ms");
  report.Metric("durability.ckpt.pending_max", double(pending_max), "count");
  report.Metric("durability.ckpt.skipped",
                double(d1.checkpoints_skipped - d0.checkpoints_skipped),
                "count");
  report.Metric("durability.recovery.tail_records", double(tail_records),
                "count");

  report.Metric("net.send_ms", self_ms("net.send"), "ms");
  report.Metric("net.sp_wait_ms", self_ms("net.sp_wait"), "ms");
  report.Metric("net.te_wait_ms", self_ms("net.te_wait"), "ms");
  report.Metric("net.frame_bytes_per_query", Ratio(double(t.frame_bytes), nq),
                "B");

  double traced_qps = Summarize(traced, /*updates=*/false).rate;
  report.Metric("trace.coverage", Tracer::Get().Coverage({"query", "update"}),
                "ratio");
  report.Metric("trace.overhead", 1.0 - Ratio(traced_qps, q.rate), "ratio",
                Fmt("(traced %.1f vs untraced %.1f queries/s)", traced_qps,
                    q.rate));
  if (!config.trace_out.empty()) {
    if (Tracer::Get().WriteTsv(config.trace_out)) {
      report.Line(Fmt("# wrote %zu spans to %s", Tracer::Get().span_count(),
                      config.trace_out.c_str()));
    } else {
      report.Error("cannot write " + config.trace_out);
    }
  }
  return out;
}

}  // namespace perfbench
