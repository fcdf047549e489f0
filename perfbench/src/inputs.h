// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Seeded inputs and the answer oracle. Everything a workload sends to the
// program is derived here from (workload, seed): the dataset, each client
// thread's query and update streams, and the fixed request pool of the
// networked workload. The program only ever sees the generated values.
//
// The oracle is built from the generated sorted keys alone (prefix sums
// of keys and ids), independently of the program's trees, and checks the
// derived answer fields and the witness of every query on a static
// dataset.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dbms/query.h"
#include "storage/record.h"
#include "util/random.h"
#include "util/zipf.h"

namespace perfbench {

using sae::dbms::QueryAnswer;
using sae::dbms::QueryRequest;
using sae::storage::Key;
using sae::storage::Record;
using sae::storage::RecordId;

enum class Model { kSae, kTom, kNet };

/// The shape of one named workload (see BENCHMARK.json for why each).
struct WorkloadSpec {
  std::string name;
  Model model = Model::kSae;
  size_t records = 0;
  size_t record_size = 0;
  size_t threads = 0;
  bool mixed = false;     // 50% scans / 25% inserts / 25% deletes
  bool zipf_pool = false; // requests drawn from a Zipf-ranked fixed pool
};

/// The four workloads; `quick` caps the datasets at 20K records (self-test).
bool LookupWorkload(const std::string& name, bool quick, WorkloadSpec* spec);
std::vector<std::string> WorkloadNames();

inline constexpr uint32_t kDomainMax = 10'000'000;
inline constexpr double kExtentFraction = 0.005;  // 0.5% of the domain
inline constexpr uint32_t kScanExtent = uint32_t(kDomainMax * kExtentFraction);
inline constexpr uint32_t kTopK = 5;

/// Mixes a seed with a stream label (splitmix64 finalizer).
uint64_t MixSeed(uint64_t seed, uint64_t stream);

class Oracle {
 public:
  explicit Oracle(const std::vector<Record>& sorted);

  /// Empty when `answer`/`witness` match the dataset for `request`;
  /// otherwise names the first disagreeing field.
  std::string Check(const QueryRequest& request, const QueryAnswer& answer,
                    const std::vector<Record>& witness) const;

 private:
  std::vector<Key> keys_;
  std::vector<RecordId> ids_;
  std::vector<uint64_t> key_prefix_;  // key_prefix_[i] = sum of keys_[0, i)
  std::vector<uint64_t> id_prefix_;
};

struct Inputs {
  WorkloadSpec spec;
  std::vector<Record> dataset;  // sorted by (key, id)
  std::vector<QueryRequest> pool;  // zipf_pool workloads only
  uint64_t seed = 0;
};

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

/// One client thread's deterministic request stream.
class RequestStream {
 public:
  RequestStream(const Inputs& inputs, size_t thread);

  /// The next read: a fresh uniform 0.5% scan, or a Zipf-ranked pool entry.
  QueryRequest NextQuery();
  /// For mixed workloads: 0 = query, 1 = insert, 2 = delete.
  int NextKind();
  Key NextKey() { return Key(rng_.NextRange(0, kDomainMax)); }
  uint64_t NextIndex(uint64_t bound) { return rng_.NextBounded(bound); }

 private:
  const Inputs& inputs_;
  sae::Rng rng_;
  sae::ZipfGenerator zipf_;
};

/// FNV-1a fingerprint of a workload's generated inputs: the dataset and
/// the first `queries` requests of every thread's stream.
uint64_t Fingerprint(const Inputs& inputs, size_t queries);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
