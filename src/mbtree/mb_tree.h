// Copyright (c) saedb authors. Licensed under the MIT license.
//
// MB-Tree: the state-of-the-art ADS for disk-based range authentication
// (Li et al., SIGMOD'06), as the paper summarizes it in §I. A B+-tree where
// every leaf entry carries H(record) and every internal entry carries the
// digest of the child page's concatenated digests; the DO signs the root
// digest. The B+-tree is btree::NodeTree, the same one SAE's SP runs; this
// type fixes the layout with the digest column and adds what is Merkle-
// specific: node and root digests, VO construction, and the hot-node cache.
//
// Node format (4096-byte pages):
//   header  : [magic u32][is_leaf u8][pad u8][count u16][next u32][rsvd u32]
//   leaf    : count x (key u32, rid u64, digest 20B)            -> 32 B/entry
//   internal: (child0 u32, digest0 20B), count x (key u32, child u32,
//              digest 20B)                                      -> 28 B/entry
//
// The digest payload shrinks fanout to 127 (leaf) / 144+1 (internal) versus
// the plain B+-tree's 340 / 509+1 — the root cause of TOM's higher SP cost
// in Fig. 6 and larger index in Fig. 8.

#ifndef SAE_MBTREE_MB_TREE_H_
#define SAE_MBTREE_MB_TREE_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "btree/node_tree.h"
#include "crypto/digest.h"
#include "mbtree/vo.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "storage/node_cache.h"
#include "storage/record.h"
#include "util/status.h"

namespace sae::mbtree {

using storage::BufferPool;
using storage::Key;
using storage::PageId;
using storage::Rid;

/// A leaf posting: key, record location, record digest.
struct MbEntry {
  Key key;
  Rid rid;
  crypto::Digest digest;
};

/// The MB-tree page layout: the plain B+-tree's plus a digest column,
/// hashed under `scheme`.
struct MbLayout {
  static constexpr uint32_t kMagic = 0x4D42544Eu;  // "MBTN"
  static constexpr bool kDigests = true;

  crypto::HashScheme scheme = crypto::HashScheme::kSha1;

  /// H(d_1 || ... || d_n) over the node's digest column; an empty tree's
  /// root hashes the empty string.
  crypto::Digest NodeDigest(const btree::Node& node) const;
  /// NodeDigest of every column in one batched hash call.
  std::vector<crypto::Digest> LevelDigests(
      const std::vector<std::vector<crypto::Digest>>& columns) const;
};

/// Fanout overrides for tests (0 = derive from page size).
struct MbTreeOptions {
  size_t max_leaf_entries = 0;
  size_t max_internal_keys = 0;
  crypto::HashScheme scheme = crypto::HashScheme::kSha1;
  /// Hot-level digest cache: parsed nodes at depth < hot_cache_levels are
  /// memoized and invalidated precisely along every update path, so
  /// steady-state traversals only parse (and hash over) the leaf frontier.
  /// 0 disables the cache entirely.
  size_t hot_cache_levels = 2;
  size_t hot_cache_entries = 1024;
};

/// Merkle B+-tree: the shared B+-tree under MbLayout, so every mutation
/// also rewrites each node on its path with the node's refreshed digest. Const methods (RangeSearch, BuildVo,
/// Validate) are safe to call from many threads over a thread-safe
/// BufferPool; mutations require exclusive access to the tree.
class MbTree {
 public:
  static Result<std::unique_ptr<MbTree>> Create(
      BufferPool* pool, const MbTreeOptions& options = {});

  /// Inserts a posting, updating digests along the path.
  Status Insert(const MbEntry& entry);

  /// Removes the posting (key, rid); NotFound if absent. `removed`, when
  /// non-null, receives the removed posting's digest.
  Status Delete(Key key, Rid rid, crypto::Digest* removed = nullptr);

  /// Bottom-up bulk load from key-sorted postings into an empty tree.
  Status BulkLoad(const std::vector<MbEntry>& sorted, double fill = 1.0);

  /// Plain range search (no VO) — what the SP uses to locate result rids.
  Status RangeSearch(Key lo, Key hi, std::vector<MbEntry>* out) const;

  /// Fetches a record's canonical bytes given its rid — supplied by the SP
  /// so boundary records are pulled from the (access-counted) dataset file.
  using RecordFetcher =
      std::function<Result<std::vector<uint8_t>>(Rid)>;

  /// Builds the covering-subtree VO for [lo, hi] (paper §I). The signature
  /// field is left empty; the SP attaches the DO's current root signature.
  Result<VerificationObject> BuildVo(Key lo, Key hi,
                                     const RecordFetcher& fetch) const;

  /// Current root digest (the value the DO signs).
  const crypto::Digest& root_digest() const { return root_digest_; }

  size_t size() const { return core_.size(); }
  size_t node_count() const { return core_.node_count(); }
  size_t height() const { return core_.height(); }
  size_t SizeBytes() const { return node_count() * storage::kPageSize; }
  size_t max_leaf_entries() const { return core_.max_leaf(); }
  size_t max_internal_keys() const { return core_.max_internal(); }

  /// Hot-level node cache counters (hits/misses/invalidations/evictions);
  /// snapshot by value, diff to measure a span.
  storage::NodeCacheStats digest_cache_stats() const {
    return node_cache_.stats();
  }

  /// Structural + digest-consistency check. Test hook; O(n).
  Status Validate() const;

 private:
  MbTree(BufferPool* pool, const MbTreeOptions& options);

  Result<std::optional<MbEntry>> Predecessor(Key lo) const;
  Result<std::optional<MbEntry>> Successor(Key hi) const;
  Result<std::optional<MbEntry>> PredecessorRec(PageId page, size_t depth,
                                                Key lo) const;
  Result<std::optional<MbEntry>> SuccessorRec(PageId page, size_t depth,
                                              Key hi) const;

  Status BuildVoRec(PageId page, size_t depth, Key lo, Key hi,
                    const std::optional<MbEntry>& left_boundary,
                    const std::optional<MbEntry>& right_boundary,
                    const RecordFetcher& fetch, VoNode* out) const;

  // Declared before core_, which holds a pointer to it.
  mutable btree::NodeCache node_cache_;
  btree::NodeTree<MbLayout> core_;
  crypto::Digest root_digest_;
};

}  // namespace sae::mbtree

#endif  // SAE_MBTREE_MB_TREE_H_
