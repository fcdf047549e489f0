// Copyright (c) saedb authors. Licensed under the MIT license.
//
// SAE's SP index: the *conventional* disk B+-tree over (Key, Rid) pairs
// with duplicate-key support (paper §II: "query processing is as fast as in
// conventional database systems"). The algorithm is btree::NodeTree (shared
// with the MB-tree); this type fixes the plain layout, which has no digest
// column, and adds the exact-posting lookup.
//
// Node format (4096-byte pages):
//   header  : [magic u32][is_leaf u8][pad u8][count u16][next u32][rsvd u32]
//   leaf    : count x (key u32, rid u64)                       -> 12 B/entry
//   internal: child0 u32, then count x (key u32, child u32)    ->  8 B/entry
//
// With 4096-byte pages this yields fanouts of 340 (leaf) and 509+1
// (internal); the MB-tree's digest-per-entry layout is what shrinks *its*
// fanout, producing the Fig. 6 SP-cost gap.

#ifndef SAE_BTREE_BPLUS_TREE_H_
#define SAE_BTREE_BPLUS_TREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "btree/node_tree.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "storage/record.h"
#include "util/status.h"

namespace sae::btree {

/// A key->rid posting.
struct BTreeEntry {
  Key key;
  Rid rid;

  friend bool operator==(const BTreeEntry& a, const BTreeEntry& b) {
    return a.key == b.key && a.rid == b.rid;
  }
};

/// Tuning knobs; defaults derive from the page size. Tests shrink the
/// fanouts to force deep trees on small datasets.
struct BPlusTreeOptions {
  /// Max entries per leaf (0 = derive from page size).
  size_t max_leaf_entries = 0;
  /// Max keys per internal node (0 = derive from page size).
  size_t max_internal_keys = 0;
};

/// The plain page layout: no digest column.
struct PlainLayout {
  static constexpr uint32_t kMagic = 0x4254524Eu;  // "BTRN"
  static constexpr bool kDigests = false;
};

/// Disk-based B+-tree. Const methods (RangeSearch, Contains, Validate) are
/// safe to call from many threads over a thread-safe BufferPool; mutations
/// (single-writer model) require exclusive access to the tree.
class BPlusTree {
 public:
  /// Creates an empty tree rooted at a fresh leaf page.
  static Result<std::unique_ptr<BPlusTree>> Create(
      BufferPool* pool, const BPlusTreeOptions& options = {});

  /// Inserts a posting; duplicates (same key, different rid) are allowed,
  /// and re-inserting an identical (key, rid) pair is an error.
  Status Insert(Key key, Rid rid);

  /// Removes the posting (key, rid); NotFound if absent.
  Status Delete(Key key, Rid rid);

  /// Appends all postings with lo <= key <= hi to `out` in key order.
  Status RangeSearch(Key lo, Key hi, std::vector<BTreeEntry>* out) const;

  /// True iff the exact posting exists.
  Result<bool> Contains(Key key, Rid rid) const;

  /// Bottom-up bulk load from key-sorted postings into an empty tree.
  /// `fill` in (0, 1] controls leaf/internal occupancy.
  Status BulkLoad(const std::vector<BTreeEntry>& sorted, double fill = 1.0);

  size_t size() const { return core_.size(); }
  size_t node_count() const { return core_.node_count(); }
  size_t height() const { return core_.height(); }
  PageId root() const { return core_.root(); }
  size_t SizeBytes() const { return node_count() * storage::kPageSize; }

  size_t max_leaf_entries() const { return core_.max_leaf(); }
  size_t max_internal_keys() const { return core_.max_internal(); }

  /// Exhaustively checks structural invariants (ordering, occupancy, uniform
  /// leaf depth, leaf-chain consistency). Test hook; O(n).
  Status Validate() const;

 private:
  BPlusTree(BufferPool* pool, const BPlusTreeOptions& options)
      : core_(pool, options.max_leaf_entries, options.max_internal_keys,
              PlainLayout{}) {}

  NodeTree<PlainLayout> core_;
};

}  // namespace sae::btree

#endif  // SAE_BTREE_BPLUS_TREE_H_
