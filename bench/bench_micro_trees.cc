// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Micro benchmarks for the three index structures (google-benchmark):
// range search, VT generation, VO construction and point updates, with
// node-access counters reported alongside wall time.

#include <benchmark/benchmark.h>

#include <memory>

#include "btree/bplus_tree.h"
#include "mbtree/mb_tree.h"
#include "storage/page_store.h"
#include "util/random.h"
#include "xbtree/xb_tree.h"

namespace {

using namespace sae;
using storage::BufferPool;
using storage::PageStore;

constexpr size_t kTreeSize = 100'000;
constexpr uint32_t kDomain = 10'000'000;
constexpr uint32_t kExtent = kDomain / 200;  // 0.5%

crypto::Digest DigestFor(uint64_t id) {
  return crypto::ComputeDigest(&id, sizeof(id));
}

// --- B+-tree -------------------------------------------------------------------

struct BTreeBundle {
  PageStore store;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<btree::BPlusTree> tree;
};

BTreeBundle* SharedBTree() {
  static BTreeBundle* bundle = [] {
    auto* b = new BTreeBundle;
    b->pool = std::make_unique<BufferPool>(&b->store, 4096);
    b->tree = btree::BPlusTree::Create(b->pool.get()).ValueOrDie();
    std::vector<btree::BTreeEntry> entries;
    Rng rng(1);
    entries.reserve(kTreeSize);
    for (uint64_t id = 1; id <= kTreeSize; ++id) {
      entries.push_back(
          btree::BTreeEntry{uint32_t(rng.NextBounded(kDomain)), id});
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.key < b.key; });
    SAE_CHECK_OK(b->tree->BulkLoad(entries));
    return b;
  }();
  return bundle;
}

void BM_BPlusTree_RangeSearch(benchmark::State& state) {
  auto* b = SharedBTree();
  Rng rng(2);
  uint64_t accesses = 0, queries = 0;
  for (auto _ : state) {
    uint32_t lo = uint32_t(rng.NextBounded(kDomain - kExtent));
    std::vector<btree::BTreeEntry> out;
    b->pool->ResetStats();
    SAE_CHECK_OK(b->tree->RangeSearch(lo, lo + kExtent, &out));
    accesses += b->pool->stats().accesses;
    ++queries;
    benchmark::DoNotOptimize(out);
  }
  state.counters["node_accesses"] =
      benchmark::Counter(double(accesses) / double(queries));
}
BENCHMARK(BM_BPlusTree_RangeSearch);

// --- MB-tree -------------------------------------------------------------------

struct MbBundle {
  PageStore store;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<mbtree::MbTree> tree;
};

MbBundle* SharedMbTree() {
  static MbBundle* bundle = [] {
    auto* b = new MbBundle;
    b->pool = std::make_unique<BufferPool>(&b->store, 4096);
    b->tree = mbtree::MbTree::Create(b->pool.get()).ValueOrDie();
    std::vector<mbtree::MbEntry> entries;
    Rng rng(1);
    entries.reserve(kTreeSize);
    for (uint64_t id = 1; id <= kTreeSize; ++id) {
      entries.push_back(mbtree::MbEntry{uint32_t(rng.NextBounded(kDomain)),
                                        id, DigestFor(id)});
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.key < b.key; });
    SAE_CHECK_OK(b->tree->BulkLoad(entries));
    return b;
  }();
  return bundle;
}

void BM_MbTree_BuildVo(benchmark::State& state) {
  auto* b = SharedMbTree();
  Rng rng(3);
  std::vector<uint8_t> fake_record(500, 0x11);
  auto fetch = [&](storage::Rid) -> Result<std::vector<uint8_t>> {
    return fake_record;
  };
  uint64_t accesses = 0, queries = 0, vo_bytes = 0;
  for (auto _ : state) {
    uint32_t lo = uint32_t(rng.NextBounded(kDomain - kExtent));
    b->pool->ResetStats();
    auto vo = b->tree->BuildVo(lo, lo + kExtent, fetch);
    SAE_CHECK(vo.ok());
    accesses += b->pool->stats().accesses;
    vo_bytes += vo.value().Serialize().size();
    ++queries;
  }
  state.counters["node_accesses"] =
      benchmark::Counter(double(accesses) / double(queries));
  state.counters["vo_bytes"] =
      benchmark::Counter(double(vo_bytes) / double(queries));
}
BENCHMARK(BM_MbTree_BuildVo);

void BM_MbTree_Insert(benchmark::State& state) {
  PageStore store;
  BufferPool pool(&store, 4096);
  auto tree = mbtree::MbTree::Create(&pool).ValueOrDie();
  Rng rng(4);
  uint64_t id = 0;
  for (auto _ : state) {
    ++id;
    SAE_CHECK_OK(tree->Insert(mbtree::MbEntry{
        uint32_t(rng.NextBounded(kDomain)), id, DigestFor(id)}));
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_MbTree_Insert);

// --- XB-tree -------------------------------------------------------------------

struct XbBundle {
  PageStore store;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<xbtree::XbTree> tree;
};

XbBundle* SharedXbTree() {
  static XbBundle* bundle = [] {
    auto* b = new XbBundle;
    b->pool = std::make_unique<BufferPool>(&b->store, 4096);
    b->tree = xbtree::XbTree::Create(b->pool.get()).ValueOrDie();
    std::vector<xbtree::XbTuple> tuples;
    Rng rng(1);
    tuples.reserve(kTreeSize);
    for (uint64_t id = 1; id <= kTreeSize; ++id) {
      tuples.push_back(xbtree::XbTuple{uint32_t(rng.NextBounded(kDomain)), id,
                                       DigestFor(id)});
    }
    std::sort(tuples.begin(), tuples.end(),
              [](const auto& a, const auto& b) { return a.key < b.key; });
    SAE_CHECK_OK(b->tree->BulkLoad(tuples));
    return b;
  }();
  return bundle;
}

void BM_XbTree_GenerateVT(benchmark::State& state) {
  auto* b = SharedXbTree();
  Rng rng(5);
  uint64_t accesses = 0, queries = 0;
  for (auto _ : state) {
    uint32_t lo = uint32_t(rng.NextBounded(kDomain - kExtent));
    b->pool->ResetStats();
    auto vt = b->tree->GenerateVT(lo, lo + kExtent);
    SAE_CHECK(vt.ok());
    accesses += b->pool->stats().accesses;
    ++queries;
    benchmark::DoNotOptimize(vt);
  }
  state.counters["node_accesses"] =
      benchmark::Counter(double(accesses) / double(queries));
}
BENCHMARK(BM_XbTree_GenerateVT);

void BM_XbTree_Insert(benchmark::State& state) {
  PageStore store;
  BufferPool pool(&store, 4096);
  auto tree = xbtree::XbTree::Create(&pool).ValueOrDie();
  Rng rng(6);
  uint64_t id = 0;
  for (auto _ : state) {
    ++id;
    SAE_CHECK_OK(
        tree->Insert(uint32_t(rng.NextBounded(kDomain)), id, DigestFor(id)));
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_XbTree_Insert);

}  // namespace
