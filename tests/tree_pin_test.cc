// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Pins both B+-tree variants — the SP's plain tree and the MB-tree — on one
// seeded workload: a SHA-256 over every page the tree owns, the exact
// buffer-pool accesses of each operation class, the shape, and the MB-tree's
// root digest. Any change to the node page codec, to split/borrow/merge, or
// to which pages an operation reads or writes moves these values, so they
// change only with a change that means to alter the page format or the
// access pattern (Fig. 6 counts these accesses; Fig. 8 counts these pages).
//
// A second test runs one sequence through both variants at equal fanouts
// and checks they keep one shape: the digest column is the only difference.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <type_traits>
#include <vector>

#include "btree/bplus_tree.h"
#include "crypto/sha256.h"
#include "mbtree/mb_tree.h"
#include "storage/page_store.h"
#include "util/codec.h"
#include "util/hex.h"
#include "util/random.h"

namespace sae {
namespace {

using btree::BPlusTree;
using btree::BPlusTreeOptions;
using btree::BTreeEntry;
using mbtree::MbEntry;
using mbtree::MbTree;
using mbtree::MbTreeOptions;
using storage::BufferPool;
using storage::Key;
using storage::PageId;
using storage::PageStore;
using storage::Rid;

struct Op {
  enum class Kind { kInsert, kDelete, kRange };
  Kind kind;
  Key key;
  Rid rid;  // kInsert/kDelete
  Key hi;   // kRange
};

struct Workload {
  std::vector<BTreeEntry> bulk;  // key-sorted
  std::vector<Op> ops;
};

// A bulk load of 300 postings over 150 keys, ~2000 mixed inserts and
// deletes over 400 keys (so duplicate runs straddle leaves and splits,
// borrows and merges all happen), then 200 range searches.
Workload MakeWorkload(uint64_t seed) {
  Rng rng(seed);
  Workload w;
  for (Rid rid = 1; rid <= 300; ++rid) {
    w.bulk.push_back(BTreeEntry{Key(rng.NextBounded(150)), rid});
  }
  std::stable_sort(w.bulk.begin(), w.bulk.end(),
                   [](const BTreeEntry& a, const BTreeEntry& b) {
                     return a.key < b.key;
                   });
  std::vector<BTreeEntry> live = w.bulk;
  Rid next_rid = 301;
  for (int i = 0; i < 2000; ++i) {
    if (live.empty() || rng.NextBool(0.55)) {
      BTreeEntry e{Key(rng.NextBounded(400)), next_rid++};
      live.push_back(e);
      w.ops.push_back(Op{Op::Kind::kInsert, e.key, e.rid, 0});
    } else {
      size_t at = rng.NextBounded(live.size());
      w.ops.push_back(Op{Op::Kind::kDelete, live[at].key, live[at].rid, 0});
      live[at] = live.back();
      live.pop_back();
    }
  }
  for (int i = 0; i < 200; ++i) {
    Key lo = Key(rng.NextBounded(420));
    w.ops.push_back(
        Op{Op::Kind::kRange, lo, 0, lo + Key(rng.NextBounded(60))});
  }
  return w;
}

crypto::Digest PostingDigest(Key key, Rid rid) {
  uint8_t buf[12];
  EncodeU32(buf, key);
  EncodeU64(buf + 4, rid);
  return crypto::ComputeDigest(buf, sizeof(buf));
}

MbEntry ToMb(const BTreeEntry& e) {
  return MbEntry{e.key, e.rid, PostingDigest(e.key, e.rid)};
}

// SHA-256 over every live page of `store` (which holds one tree only), in
// page-id order.
std::string PagesSha256(BufferPool* pool, const PageStore& store) {
  EXPECT_TRUE(pool->FlushAll().ok());
  crypto::Sha256 h;
  storage::Page page;
  size_t seen = 0;
  for (PageId id = 0; seen < store.LivePageCount() && id < 100000; ++id) {
    if (!store.Read(id, &page).ok()) continue;
    h.Update(page.bytes(), storage::kPageSize);
    ++seen;
  }
  uint8_t out[crypto::Sha256::kDigestSize];
  h.Finish(out);
  return HexEncode(out, sizeof(out));
}

struct Pinned {
  std::string pages_sha256;
  uint64_t bulk_accesses = 0;
  uint64_t insert_accesses = 0;
  uint64_t delete_accesses = 0;
  uint64_t range_accesses = 0;
  uint64_t vo_accesses = 0;  // MB-tree only
  size_t node_count = 0;
  size_t height = 0;
  std::string root_digest;  // MB-tree only
  size_t range_results = 0;
};

// Runs `w` through one tree. `Tree` is BPlusTree or MbTree.
template <class Tree>
Pinned RunWorkload(Tree* tree, BufferPool* pool, const Workload& w) {
  Pinned p;
  auto accesses = [&] { return pool->stats().accesses; };
  for (const Op& op : w.ops) {
    uint64_t before = accesses();
    if (op.kind == Op::Kind::kInsert) {
      if constexpr (std::is_same_v<Tree, MbTree>) {
        EXPECT_TRUE(tree->Insert(ToMb(BTreeEntry{op.key, op.rid})).ok());
      } else {
        EXPECT_TRUE(tree->Insert(op.key, op.rid).ok());
      }
      p.insert_accesses += accesses() - before;
    } else if (op.kind == Op::Kind::kDelete) {
      EXPECT_TRUE(tree->Delete(op.key, op.rid).ok());
      p.delete_accesses += accesses() - before;
    } else {
      if constexpr (std::is_same_v<Tree, MbTree>) {
        std::vector<MbEntry> out;
        EXPECT_TRUE(tree->RangeSearch(op.key, op.hi, &out).ok());
        p.range_results += out.size();
        p.range_accesses += accesses() - before;
        before = accesses();
        auto fetch = [](Rid rid) -> Result<std::vector<uint8_t>> {
          return std::vector<uint8_t>(8, uint8_t(rid));
        };
        EXPECT_TRUE(tree->BuildVo(op.key, op.hi, fetch).ok());
        p.vo_accesses += accesses() - before;
      } else {
        std::vector<BTreeEntry> out;
        EXPECT_TRUE(tree->RangeSearch(op.key, op.hi, &out).ok());
        p.range_results += out.size();
        p.range_accesses += accesses() - before;
      }
    }
  }
  EXPECT_TRUE(tree->Validate().ok());
  p.node_count = tree->node_count();
  p.height = tree->height();
  if constexpr (std::is_same_v<Tree, MbTree>) {
    p.root_digest = tree->root_digest().ToHex();
  }
  return p;
}

constexpr uint64_t kSeed = 0x5EED15;
constexpr size_t kLeaf = 6;
constexpr size_t kInternal = 5;

TEST(TreePinTest, PlainTreePagesAndAccesses) {
  Workload w = MakeWorkload(kSeed);
  PageStore store;
  BufferPool pool(&store, 4096);
  BPlusTreeOptions options;
  options.max_leaf_entries = kLeaf;
  options.max_internal_keys = kInternal;
  auto tree = BPlusTree::Create(&pool, options).ValueOrDie();
  uint64_t before = pool.stats().accesses;
  ASSERT_TRUE(tree->BulkLoad(w.bulk).ok());
  uint64_t bulk_accesses = pool.stats().accesses - before;
  Pinned p = RunWorkload(tree.get(), &pool, w);
  p.bulk_accesses = bulk_accesses;
  p.pages_sha256 = PagesSha256(&pool, store);

  EXPECT_EQ(p.pages_sha256,
            "9cc60351e61e4efd34a113b34d6bc491ecb61053b034369f4f96202ad2fba799");
  EXPECT_EQ(p.bulk_accesses, 221u);
  // Insert probes for the exact posting (one range scan over its key,
  // each leaf fetched once) before it descends to insert.
  EXPECT_EQ(p.insert_accesses, 12302u);
  EXPECT_EQ(p.delete_accesses, 7077u);
  // A range search fetches each page on its path once: the leaf the
  // descent ends on starts the leaf walk.
  EXPECT_EQ(p.range_accesses, 2843u);
  EXPECT_EQ(p.range_results, 6950u);
  EXPECT_EQ(p.node_count, 165u);
  EXPECT_EQ(p.height, 5u);
}

TEST(TreePinTest, MbTreePagesAccessesAndRootDigest) {
  Workload w = MakeWorkload(kSeed);
  PageStore store;
  BufferPool pool(&store, 4096);
  MbTreeOptions options;  // production hot-node cache settings
  options.max_leaf_entries = kLeaf;
  options.max_internal_keys = kInternal;
  auto tree = MbTree::Create(&pool, options).ValueOrDie();
  std::vector<MbEntry> bulk;
  for (const BTreeEntry& e : w.bulk) bulk.push_back(ToMb(e));
  uint64_t before = pool.stats().accesses;
  ASSERT_TRUE(tree->BulkLoad(bulk).ok());
  uint64_t bulk_accesses = pool.stats().accesses - before;
  Pinned p = RunWorkload(tree.get(), &pool, w);
  p.bulk_accesses = bulk_accesses;
  p.pages_sha256 = PagesSha256(&pool, store);

  EXPECT_EQ(p.pages_sha256,
            "4abbf10e53b7912f3ae79b1a31ee031ed65fbed51c8389b9ecf02880b0cb32ce");
  EXPECT_EQ(p.bulk_accesses, 221u);
  // Every node on an update path is rewritten with its new digest; the
  // hot-node cache serves the top two levels of reads.
  EXPECT_EQ(p.insert_accesses, 10470u);
  EXPECT_EQ(p.delete_accesses, 10079u);
  EXPECT_EQ(p.range_accesses, 2446u);  // each page once, as above
  EXPECT_EQ(p.vo_accesses, 4372u);
  EXPECT_EQ(p.range_results, 6950u);
  EXPECT_EQ(p.node_count, 165u);
  EXPECT_EQ(p.height, 5u);
  EXPECT_EQ(p.root_digest, "2c2848f395b025974ddc5a77b25e55bef07c93ae");
}

// With equal fanouts and the MB-tree's node cache off, both variants keep
// the same shape after every operation, return the same postings, and make
// the same page accesses on range searches.
TEST(TreePinTest, BothVariantsKeepOneShapeAtEqualFanouts) {
  for (size_t fanout : {4, 5, 8}) {
    SCOPED_TRACE("fanout " + std::to_string(fanout));
    Workload w = MakeWorkload(kSeed + fanout);
    PageStore plain_store, mb_store;
    BufferPool plain_pool(&plain_store, 4096), mb_pool(&mb_store, 4096);
    BPlusTreeOptions plain_options;
    plain_options.max_leaf_entries = fanout;
    plain_options.max_internal_keys = fanout;
    MbTreeOptions mb_options;
    mb_options.max_leaf_entries = fanout;
    mb_options.max_internal_keys = fanout;
    mb_options.hot_cache_levels = 0;
    auto plain = BPlusTree::Create(&plain_pool, plain_options).ValueOrDie();
    auto mb = MbTree::Create(&mb_pool, mb_options).ValueOrDie();
    std::vector<MbEntry> bulk;
    for (const BTreeEntry& e : w.bulk) bulk.push_back(ToMb(e));
    ASSERT_TRUE(plain->BulkLoad(w.bulk).ok());
    ASSERT_TRUE(mb->BulkLoad(bulk).ok());

    for (size_t i = 0; i < w.ops.size(); ++i) {
      const Op& op = w.ops[i];
      if (op.kind == Op::Kind::kInsert) {
        ASSERT_TRUE(plain->Insert(op.key, op.rid).ok());
        ASSERT_TRUE(mb->Insert(ToMb(BTreeEntry{op.key, op.rid})).ok());
      } else if (op.kind == Op::Kind::kDelete) {
        ASSERT_TRUE(plain->Delete(op.key, op.rid).ok());
        ASSERT_TRUE(mb->Delete(op.key, op.rid).ok());
      } else {
        std::vector<BTreeEntry> plain_out;
        std::vector<MbEntry> mb_out;
        uint64_t plain_before = plain_pool.stats().accesses;
        uint64_t mb_before = mb_pool.stats().accesses;
        ASSERT_TRUE(plain->RangeSearch(op.key, op.hi, &plain_out).ok());
        ASSERT_TRUE(mb->RangeSearch(op.key, op.hi, &mb_out).ok());
        EXPECT_EQ(plain_pool.stats().accesses - plain_before,
                  mb_pool.stats().accesses - mb_before);
        ASSERT_EQ(plain_out.size(), mb_out.size()) << "op " << i;
        for (size_t j = 0; j < plain_out.size(); ++j) {
          EXPECT_EQ(plain_out[j].key, mb_out[j].key);
          EXPECT_EQ(plain_out[j].rid, mb_out[j].rid);
        }
      }
      ASSERT_EQ(plain->node_count(), mb->node_count()) << "op " << i;
      ASSERT_EQ(plain->height(), mb->height()) << "op " << i;
      ASSERT_EQ(plain->size(), mb->size()) << "op " << i;
    }
    EXPECT_TRUE(plain->Validate().ok());
    EXPECT_TRUE(mb->Validate().ok());
  }
}

}  // namespace
}  // namespace sae
