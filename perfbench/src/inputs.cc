// Copyright (c) saedb authors. Licensed under the MIT license.

#include "inputs.h"

#include <algorithm>

#include "workload/dataset.h"

namespace perfbench {

namespace {

// The pool is four times the 1024-entry answer/token cache capacity, so
// the caches hold only its popular head.
constexpr size_t kPoolSize = 4 * 1024;
constexpr double kZipfTheta = 0.8;

QueryRequest UniformScan(sae::Rng* rng) {
  Key lo = Key(rng->NextRange(0, kDomainMax - kScanExtent));
  return QueryRequest::Scan(lo, lo + kScanExtent - 1);
}

// The operator mix of bench_net_serving: scan, point, count, sum, min,
// max and top-k, equally likely. Points hit a stored key.
QueryRequest MixedRequest(sae::Rng* rng, const std::vector<Record>& dataset) {
  QueryRequest scan = UniformScan(rng);
  switch (rng->NextBounded(7)) {
    case 0: return scan;
    case 1: return QueryRequest::Point(
        dataset[rng->NextBounded(dataset.size())].key);
    case 2: return QueryRequest::Count(scan.lo, scan.hi);
    case 3: return QueryRequest::Sum(scan.lo, scan.hi);
    case 4: return QueryRequest::Min(scan.lo, scan.hi);
    case 5: return QueryRequest::Max(scan.lo, scan.hi);
    default: return QueryRequest::TopK(scan.lo, scan.hi, kTopK);
  }
}

}  // namespace

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<std::string> WorkloadNames() {
  return {"sae-scan-uniform", "tom-scan-uniform", "sae-net-zipf",
          "sae-durable-mixed"};
}

bool LookupWorkload(const std::string& name, bool quick, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  if (name == "sae-scan-uniform" || name == "tom-scan-uniform") {
    s.model = name[0] == 's' ? Model::kSae : Model::kTom;
    s.records = 100'000;
    s.record_size = 500;
    s.threads = 4;
  } else if (name == "sae-net-zipf") {
    s.model = Model::kNet;
    s.records = 20'000;
    s.record_size = 64;
    s.threads = 2;
    s.zipf_pool = true;
  } else if (name == "sae-durable-mixed") {
    s.model = Model::kSae;
    s.records = 20'000;
    s.record_size = 500;
    s.threads = 4;
    s.mixed = true;
  } else {
    return false;
  }
  // Smaller still, the durable mix's writers leave the checkpointer no
  // quiescent point, so it never compacts and never levels off.
  if (quick) s.records = std::min<size_t>(s.records, 20'000);
  *spec = s;
  return true;
}

Oracle::Oracle(const std::vector<Record>& sorted) {
  keys_.reserve(sorted.size());
  ids_.reserve(sorted.size());
  key_prefix_.assign(1, 0);
  id_prefix_.assign(1, 0);
  for (const Record& r : sorted) {
    keys_.push_back(r.key);
    ids_.push_back(r.id);
    key_prefix_.push_back(key_prefix_.back() + r.key);
    id_prefix_.push_back(id_prefix_.back() + r.id);
  }
}

std::string Oracle::Check(const QueryRequest& request,
                          const QueryAnswer& answer,
                          const std::vector<Record>& witness) const {
  size_t begin = size_t(std::lower_bound(keys_.begin(), keys_.end(),
                                         request.lo) - keys_.begin());
  size_t end = size_t(std::upper_bound(keys_.begin(), keys_.end(),
                                       request.hi) - keys_.begin());
  if (end < begin) end = begin;
  uint64_t count = end - begin;
  uint64_t sum = key_prefix_[end] - key_prefix_[begin];
  if (answer.op != request.op) return "op";
  if (answer.count != count) return "count";
  if (answer.sum != sum) return "sum";
  if (answer.has_extrema != (count > 0)) return "extrema presence";
  if (count > 0 &&
      (answer.min_key != keys_[begin] || answer.max_key != keys_[end - 1])) {
    return "min/max";
  }
  // The witness is the whole range for every operator.
  uint64_t witness_keys = 0, witness_ids = 0;
  for (const Record& r : witness) {
    if (r.key < request.lo || r.key > request.hi) return "witness range";
    witness_keys += r.key;
    witness_ids += r.id;
  }
  if (witness.size() != count || witness_keys != sum ||
      witness_ids != id_prefix_[end] - id_prefix_[begin]) {
    return "witness";
  }
  if (request.op == sae::dbms::QueryOp::kTopK) {
    // Sorted by (key, id) ascending, so the winners are the range's tail
    // read backwards: descending key, then descending id.
    size_t k = std::min<size_t>(request.limit, count);
    if (answer.records.size() != k) return "top-k size";
    for (size_t i = 0; i < k; ++i) {
      const Record& r = answer.records[i];
      if (r.key != keys_[end - 1 - i] || r.id != ids_[end - 1 - i]) {
        return "top-k order";
      }
    }
  }
  return "";
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs inputs;
  inputs.spec = spec;
  inputs.seed = seed;
  sae::workload::DatasetSpec data;
  data.cardinality = spec.records;
  data.record_size = spec.record_size;
  data.domain_max = kDomainMax;
  data.seed = MixSeed(seed, 1000);
  inputs.dataset = sae::workload::GenerateDataset(data);
  if (spec.zipf_pool) {
    sae::Rng rng(MixSeed(seed, 2000));
    inputs.pool.reserve(kPoolSize);
    for (size_t i = 0; i < kPoolSize; ++i) {
      inputs.pool.push_back(MixedRequest(&rng, inputs.dataset));
    }
  }
  return inputs;
}

RequestStream::RequestStream(const Inputs& inputs, size_t thread)
    : inputs_(inputs),
      rng_(MixSeed(inputs.seed, 3000 + thread)),
      zipf_(std::max<size_t>(inputs.pool.size(), 2), kZipfTheta) {}

QueryRequest RequestStream::NextQuery() {
  if (inputs_.pool.empty()) return UniformScan(&rng_);
  uint64_t rank = std::min<uint64_t>(zipf_.Next(&rng_),
                                     inputs_.pool.size() - 1);
  return inputs_.pool[rank];
}

int RequestStream::NextKind() {
  double u = rng_.NextDouble();
  return u < 0.5 ? 0 : (u < 0.75 ? 1 : 2);
}

uint64_t Fingerprint(const Inputs& inputs, size_t queries) {
  uint64_t h = 0xCBF29CE484222325ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ull;
    }
  };
  for (const Record& r : inputs.dataset) {
    mix(r.id);
    mix(r.key);
  }
  for (size_t t = 0; t < inputs.spec.threads; ++t) {
    RequestStream stream(inputs, t);
    for (size_t i = 0; i < queries; ++i) {
      QueryRequest q = stream.NextQuery();
      mix(uint64_t(q.op));
      mix(q.lo);
      mix(q.hi);
      mix(q.limit);
      mix(uint64_t(stream.NextKind()));
      mix(stream.NextKey());
    }
  }
  return h;
}

}  // namespace perfbench
