// Copyright (c) saedb authors. Licensed under the MIT license.
//
// The one disk B+-tree behind both SP indexes of the paper: SAE's
// conventional btree::BPlusTree (§II) and TOM's mbtree::MbTree (§I).
// NodeTree<Layout> owns the node page codec, split, borrow, merge, root
// collapse, bulk-load chunking, range descent and structural validation
// over (key, rid) postings with duplicate keys.
//
// The layout's only variant is the digest column. With Layout::kDigests a
// leaf entry also carries its record's digest and an internal entry its
// child's node digest; every node an update passes through is rewritten
// with its refreshed digest, and the layout supplies the Merkle hashing.
//
// Node format (4096-byte pages; [..] = digest column, 20 B):
//   header  : [magic u32][is_leaf u8][pad u8][count u16][next u32][rsvd u32]
//   leaf    : count x (key u32, rid u64[, digest])
//   internal: slot_0, then count x (key u32, slot_i), slot = child u32[, digest]
//
// A Layout is a copyable type with
//   static constexpr uint32_t kMagic;  // node page magic
//   static constexpr bool kDigests;    // digest column present
// and, when kDigests,
//   crypto::Digest NodeDigest(const Node&) const;  // over the digest column
//   std::vector<crypto::Digest> LevelDigests(      // NodeDigest of each
//       const std::vector<std::vector<crypto::Digest>>& columns) const;
// The plain and the MB-tree layouts are fixed by the tree types that use
// them (btree/bplus_tree.h, mbtree/mb_tree.h).

#ifndef SAE_BTREE_NODE_TREE_H_
#define SAE_BTREE_NODE_TREE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "crypto/digest.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "storage/node_cache.h"
#include "storage/record.h"
#include "util/codec.h"
#include "util/macros.h"
#include "util/status.h"

namespace sae::btree {

using storage::BufferPool;
using storage::Key;
using storage::PageId;
using storage::Rid;

/// In-memory image of one node page.
struct Node {
  bool is_leaf = true;
  std::vector<Key> keys;
  std::vector<Rid> rids;         // leaf: parallel to keys
  std::vector<PageId> children;  // internal: keys.size() + 1
  /// Digest column; empty without one. Leaf: one per key; internal: one
  /// per child.
  std::vector<crypto::Digest> digests;
  PageId next = storage::kInvalidPageId;  // leaf chain
};

/// Parsed nodes at hot depths, shared by readers (storage/node_cache.h).
using NodeCache = storage::HotNodeCache<Node>;

/// A node as a reader holds it: shared with the NodeCache, or owned. A
/// reader that reuses one NodeRef for a walk reuses its owned buffers.
class NodeRef {
 public:
  const Node& operator*() const { return shared_ ? *shared_ : owned_; }
  const Node* operator->() const { return &**this; }

 private:
  template <class Layout>
  friend class NodeTree;

  Node owned_;
  std::shared_ptr<const Node> shared_;
};

/// The shared B+-tree. Const methods are safe to call from many threads over
/// a thread-safe BufferPool; mutations require exclusive access. Postings
/// (`Entry`) have `key` and `rid`, and `digest` under a digest layout.
template <class Layout>
class NodeTree {
 public:
  static constexpr bool kDigests = Layout::kDigests;
  static constexpr size_t kHeaderSize = 16;
  static constexpr size_t kDigestSize = kDigests ? crypto::Digest::kSize : 0;
  static constexpr size_t kLeafEntrySize = 4 + 8 + kDigestSize;
  static constexpr size_t kSlotSize = 4 + kDigestSize;
  static constexpr size_t kInternalEntrySize = 4 + kSlotSize;
  static constexpr size_t kMaxLeaf =
      (storage::kPageSize - kHeaderSize) / kLeafEntrySize;
  static constexpr size_t kMaxInternal =
      (storage::kPageSize - kHeaderSize - kSlotSize) / kInternalEntrySize;

  /// Fanouts of 0 derive from the page size. `cache`, when non-null, serves
  /// Read() at its hot depths and is invalidated on every page this tree
  /// rewrites or frees; it must outlive the tree.
  NodeTree(BufferPool* pool, size_t max_leaf, size_t max_internal,
           Layout layout, NodeCache* cache = nullptr)
      : pool_(pool),
        layout_(std::move(layout)),
        cache_(cache),
        max_leaf_(max_leaf ? max_leaf : kMaxLeaf),
        max_internal_(max_internal ? max_internal : kMaxInternal) {
    SAE_CHECK(max_leaf_ >= 2 && max_leaf_ <= kMaxLeaf);
    SAE_CHECK(max_internal_ >= 2 && max_internal_ <= kMaxInternal);
  }

  NodeTree(const NodeTree&) = delete;
  NodeTree& operator=(const NodeTree&) = delete;

  /// Allocates the empty root leaf.
  Status Init() {
    SAE_ASSIGN_OR_RETURN(root_, NewNode(Node{}));
    return Status::OK();
  }

  /// Decodes a node page into `*node`, reusing its buffers (uncached).
  Status Decode(PageId id, Node* node) const;

  Result<Node> Load(PageId id) const {
    Node node;
    SAE_RETURN_NOT_OK(Decode(id, &node));
    return node;
  }

  /// Reads the node at `depth` (root = 0) into `*ref`, through the cache
  /// when it holds that depth.
  Status Read(PageId id, size_t depth, NodeRef* ref) const;

  /// Inserts a posting; `root_digest` (digest layouts) receives the new
  /// root digest.
  template <class Entry>
  Status Insert(const Entry& entry, crypto::Digest* root_digest);

  /// Removes the posting (key, rid); NotFound if absent. Under a digest
  /// layout, `removed` (if non-null) receives its digest and `root_digest`
  /// the new root digest.
  Status Delete(Key key, Rid rid, crypto::Digest* removed,
                crypto::Digest* root_digest);

  /// Bottom-up bulk load from key-sorted postings into an empty tree;
  /// `fill` in (0, 1] sets node occupancy.
  template <class Entry>
  Status BulkLoad(const std::vector<Entry>& sorted, double fill,
                  crypto::Digest* root_digest);

  /// Calls emit(leaf, pos) for every posting with lo <= key <= hi, in key
  /// order.
  template <class Emit>
  Status RangeScan(Key lo, Key hi, const Emit& emit) const;

  /// Checks ordering, separator bounds, occupancy, uniform leaf depth, the
  /// counters, the leaf chain and (digest layouts) every child digest;
  /// `root_digest` receives the recomputed root digest. O(n).
  Status Validate(crypto::Digest* root_digest) const;

  const Layout& layout() const { return layout_; }
  PageId root() const { return root_; }
  size_t size() const { return entry_count_; }
  size_t node_count() const { return node_count_; }
  size_t height() const { return height_; }
  size_t max_leaf() const { return max_leaf_; }
  size_t max_internal() const { return max_internal_; }

 private:
  struct Split {
    Key separator;
    PageId right_page;
    crypto::Digest right_digest;
  };

  struct Census {
    size_t leaf_depth = 0;
    size_t entries = 0;
    size_t nodes = 0;
    std::vector<PageId> leaves;  // left to right
  };

  Status Store(PageId id, const Node& node);
  Result<PageId> NewNode(const Node& node);
  Status FreeNode(PageId id);

  size_t MaxKeys(const Node& node) const {
    return node.is_leaf ? max_leaf_ : max_internal_;
  }
  size_t MinOccupancy(const Node& node) const { return MaxKeys(node) / 2; }

  // Applies f(a_column, b_column) to each column parallel to the entries
  // (rids or children, and the digest column), so moves keep them aligned.
  template <class F>
  static void ForEachColumn(Node* a, Node* b, const F& f) {
    if (a->is_leaf) {
      f(&a->rids, &b->rids);
    } else {
      f(&a->children, &b->children);
    }
    if constexpr (kDigests) f(&a->digests, &b->digests);
  }

  // Refreshes the parent's digests of children j and j + 1.
  void SetPairDigests(Node* parent, size_t j, const Node& left,
                      const Node& right) const {
    if constexpr (kDigests) {
      parent->digests[j] = layout_.NodeDigest(left);
      parent->digests[j + 1] = layout_.NodeDigest(right);
    }
  }

  // Moves the upper half of an overfull node to a new right sibling.
  Result<Split> SplitNode(Node* node);

  template <class Entry>
  Status InsertRec(PageId page, const Entry& entry,
                   std::optional<Split>* split, crypto::Digest* self_digest);

  Status DeleteRec(PageId page, Key key, Rid rid, bool* underflow,
                   crypto::Digest* self_digest, crypto::Digest* removed);

  // Resolves an underflowing child `i` of `parent` (loaded, mutable) by a
  // borrow from a sibling or a merge; may free a page and mutate parent.
  Status FixUnderflow(Node* parent, size_t i);

  Status ValidateRec(PageId page, size_t depth, std::optional<Key> lo,
                     std::optional<Key> hi, Census* census,
                     crypto::Digest* digest) const;

  BufferPool* pool_;
  Layout layout_;
  NodeCache* cache_;
  size_t max_leaf_;
  size_t max_internal_;
  PageId root_ = storage::kInvalidPageId;
  size_t entry_count_ = 0;
  size_t node_count_ = 0;
  size_t height_ = 1;
};

namespace node_tree_internal {

inline size_t LowerBound(const std::vector<Key>& keys, Key key) {
  return std::lower_bound(keys.begin(), keys.end(), key) - keys.begin();
}
inline size_t UpperBound(const std::vector<Key>& keys, Key key) {
  return std::upper_bound(keys.begin(), keys.end(), key) - keys.begin();
}

inline crypto::Digest DecodeDigest(const uint8_t* p) {
  crypto::Digest d;
  std::memcpy(d.bytes.data(), p, crypto::Digest::kSize);
  return d;
}

// Splits `total` items into near-equal chunks aiming at `target` items per
// chunk while honoring the hard occupancy bounds [min_size, hard_cap].
// A single (possibly slim) chunk is returned when total <= min_size — that
// chunk becomes the root. Used by bulk load so no node over- or underflows.
inline std::vector<size_t> PlanChunks(size_t total, size_t target,
                                      size_t hard_cap, size_t min_size) {
  SAE_CHECK(min_size >= 1 && min_size <= hard_cap && target >= 1);
  if (total <= min_size) return {total};
  size_t n = (total + target - 1) / target;
  if (n == 0) n = 1;
  while (n > 1 && total / n < min_size) --n;
  while ((total + n - 1) / n > hard_cap) ++n;
  SAE_CHECK(n >= 1 && total / n >= std::min(min_size, total));
  std::vector<size_t> sizes(n, total / n);
  for (size_t i = 0; i < total % n; ++i) ++sizes[i];
  return sizes;
}

}  // namespace node_tree_internal

template <class Layout>
Status NodeTree<Layout>::Decode(PageId id, Node* node) const {
  using node_tree_internal::DecodeDigest;
  SAE_ASSIGN_OR_RETURN(auto ref, pool_->Fetch(id));
  const uint8_t* p = ref.Get().bytes();
  if (DecodeU32(p) != Layout::kMagic) {
    return Status::Corruption("bad tree node magic");
  }
  node->is_leaf = p[4] != 0;
  uint16_t count = DecodeU16(p + 6);
  node->next = DecodeU32(p + 8);
  node->keys.clear();
  node->rids.clear();
  node->children.clear();
  node->digests.clear();
  const uint8_t* body = p + kHeaderSize;
  if (node->is_leaf) {
    node->keys.reserve(count);
    node->rids.reserve(count);
    if constexpr (kDigests) node->digests.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      const uint8_t* e = body + i * kLeafEntrySize;
      node->keys.push_back(DecodeU32(e));
      node->rids.push_back(DecodeU64(e + 4));
      if constexpr (kDigests) node->digests.push_back(DecodeDigest(e + 12));
    }
  } else {
    node->keys.reserve(count);
    node->children.reserve(count + 1);
    if constexpr (kDigests) node->digests.reserve(count + 1);
    for (size_t i = 0; i <= count; ++i) {
      const uint8_t* slot = body + i * kInternalEntrySize;
      node->children.push_back(DecodeU32(slot));
      if constexpr (kDigests) node->digests.push_back(DecodeDigest(slot + 4));
      if (i < count) node->keys.push_back(DecodeU32(slot + kSlotSize));
    }
  }
  return Status::OK();
}

template <class Layout>
Status NodeTree<Layout>::Read(PageId id, size_t depth, NodeRef* ref) const {
  ref->shared_.reset();
  if (cache_ == nullptr || !cache_->Caches(depth)) {
    return Decode(id, &ref->owned_);
  }
  ref->shared_ = cache_->Lookup(id, depth);
  if (ref->shared_ == nullptr) {
    SAE_ASSIGN_OR_RETURN(Node node, Load(id));
    ref->shared_ = cache_->Insert(id, depth, std::move(node));
  }
  return Status::OK();
}

template <class Layout>
Status NodeTree<Layout>::Store(PageId id, const Node& node) {
  if (cache_ != nullptr) cache_->Invalidate(id);
  SAE_ASSIGN_OR_RETURN(auto ref, pool_->Fetch(id));
  storage::Page& page = ref.Mutable();
  page.Zero();
  uint8_t* p = page.bytes();
  EncodeU32(p, Layout::kMagic);
  p[4] = node.is_leaf ? 1 : 0;
  EncodeU16(p + 6, uint16_t(node.keys.size()));
  EncodeU32(p + 8, node.next);
  uint8_t* body = p + kHeaderSize;
  if (node.is_leaf) {
    SAE_CHECK(node.keys.size() == node.rids.size());
    SAE_CHECK(node.keys.size() <= kMaxLeaf);
    if constexpr (kDigests) SAE_CHECK(node.digests.size() == node.keys.size());
    for (size_t i = 0; i < node.keys.size(); ++i) {
      uint8_t* e = body + i * kLeafEntrySize;
      EncodeU32(e, node.keys[i]);
      EncodeU64(e + 4, node.rids[i]);
      if constexpr (kDigests) {
        std::memcpy(e + 12, node.digests[i].bytes.data(), kDigestSize);
      }
    }
  } else {
    SAE_CHECK(node.children.size() == node.keys.size() + 1);
    SAE_CHECK(node.keys.size() <= kMaxInternal);
    if constexpr (kDigests) {
      SAE_CHECK(node.digests.size() == node.children.size());
    }
    for (size_t i = 0; i < node.children.size(); ++i) {
      uint8_t* slot = body + i * kInternalEntrySize;
      EncodeU32(slot, node.children[i]);
      if constexpr (kDigests) {
        std::memcpy(slot + 4, node.digests[i].bytes.data(), kDigestSize);
      }
      if (i < node.keys.size()) EncodeU32(slot + kSlotSize, node.keys[i]);
    }
  }
  return Status::OK();
}

template <class Layout>
Result<PageId> NodeTree<Layout>::NewNode(const Node& node) {
  SAE_ASSIGN_OR_RETURN(auto ref, pool_->New());
  PageId id = ref.id();
  ref.Release();
  SAE_RETURN_NOT_OK(Store(id, node));
  ++node_count_;
  return id;
}

template <class Layout>
Status NodeTree<Layout>::FreeNode(PageId id) {
  if (cache_ != nullptr) cache_->Invalidate(id);
  SAE_RETURN_NOT_OK(pool_->Free(id));
  --node_count_;
  return Status::OK();
}

template <class Layout>
Result<typename NodeTree<Layout>::Split> NodeTree<Layout>::SplitNode(
    Node* node) {
  size_t mid = node->keys.size() / 2;
  // A leaf's right half starts at keys[mid]; an internal node pushes
  // keys[mid] up and hands the children after it to the right half.
  size_t cut = node->is_leaf ? mid : mid + 1;
  Split split{node->keys[mid], storage::kInvalidPageId, {}};
  Node right;
  right.is_leaf = node->is_leaf;
  right.next = node->next;
  right.keys.assign(node->keys.begin() + cut, node->keys.end());
  node->keys.resize(mid);
  ForEachColumn(node, &right, [cut](auto* from, auto* to) {
    to->assign(from->begin() + cut, from->end());
    from->resize(cut);
  });
  SAE_ASSIGN_OR_RETURN(split.right_page, NewNode(right));
  if (node->is_leaf) node->next = split.right_page;
  if constexpr (kDigests) split.right_digest = layout_.NodeDigest(right);
  return split;
}

template <class Layout>
template <class Entry>
Status NodeTree<Layout>::Insert(const Entry& entry,
                                crypto::Digest* root_digest) {
  std::optional<Split> split;
  crypto::Digest digest;
  SAE_RETURN_NOT_OK(InsertRec(root_, entry, &split, &digest));
  if (split.has_value()) {
    Node new_root;
    new_root.is_leaf = false;
    new_root.keys.push_back(split->separator);
    new_root.children = {root_, split->right_page};
    if constexpr (kDigests) {
      new_root.digests = {digest, split->right_digest};
      digest = layout_.NodeDigest(new_root);
    }
    SAE_ASSIGN_OR_RETURN(root_, NewNode(new_root));
    ++height_;
  }
  if constexpr (kDigests) *root_digest = digest;
  ++entry_count_;
  return Status::OK();
}

template <class Layout>
template <class Entry>
Status NodeTree<Layout>::InsertRec(PageId page, const Entry& entry,
                                   std::optional<Split>* split,
                                   crypto::Digest* self_digest) {
  SAE_ASSIGN_OR_RETURN(Node node, Load(page));
  split->reset();
  size_t idx = node_tree_internal::UpperBound(node.keys, entry.key);
  if (node.is_leaf) {
    node.keys.insert(node.keys.begin() + idx, entry.key);
    node.rids.insert(node.rids.begin() + idx, entry.rid);
    if constexpr (kDigests) {
      node.digests.insert(node.digests.begin() + idx, entry.digest);
    }
  } else {
    std::optional<Split> child_split;
    crypto::Digest child_digest;
    SAE_RETURN_NOT_OK(
        InsertRec(node.children[idx], entry, &child_split, &child_digest));
    if constexpr (kDigests) {
      node.digests[idx] = child_digest;
    } else if (!child_split.has_value()) {
      return Status::OK();  // a plain node changes only when a child splits
    }
    if (child_split.has_value()) {
      node.keys.insert(node.keys.begin() + idx, child_split->separator);
      node.children.insert(node.children.begin() + idx + 1,
                           child_split->right_page);
      if constexpr (kDigests) {
        node.digests.insert(node.digests.begin() + idx + 1,
                            child_split->right_digest);
      }
    }
  }
  if (node.keys.size() > MaxKeys(node)) {
    SAE_ASSIGN_OR_RETURN(*split, SplitNode(&node));
  }
  if constexpr (kDigests) *self_digest = layout_.NodeDigest(node);
  return Store(page, node);
}

template <class Layout>
Status NodeTree<Layout>::Delete(Key key, Rid rid, crypto::Digest* removed,
                                crypto::Digest* root_digest) {
  bool underflow = false;
  crypto::Digest digest, removed_digest;
  SAE_RETURN_NOT_OK(
      DeleteRec(root_, key, rid, &underflow, &digest, &removed_digest));
  if (underflow) {
    SAE_ASSIGN_OR_RETURN(Node root, Load(root_));
    if (!root.is_leaf && root.keys.empty()) {
      PageId old = root_;
      root_ = root.children[0];
      if constexpr (kDigests) digest = root.digests[0];
      SAE_RETURN_NOT_OK(FreeNode(old));
      --height_;
    }
  }
  if constexpr (kDigests) {
    if (removed != nullptr) *removed = removed_digest;
    *root_digest = digest;
  }
  --entry_count_;
  return Status::OK();
}

template <class Layout>
Status NodeTree<Layout>::DeleteRec(PageId page, Key key, Rid rid,
                                   bool* underflow,
                                   crypto::Digest* self_digest,
                                   crypto::Digest* removed) {
  SAE_ASSIGN_OR_RETURN(Node node, Load(page));
  *underflow = false;

  if (node.is_leaf) {
    for (size_t pos = node_tree_internal::LowerBound(node.keys, key);
         pos < node.keys.size() && node.keys[pos] == key; ++pos) {
      if (node.rids[pos] != rid) continue;
      node.keys.erase(node.keys.begin() + pos);
      node.rids.erase(node.rids.begin() + pos);
      if constexpr (kDigests) {
        *removed = node.digests[pos];
        node.digests.erase(node.digests.begin() + pos);
        *self_digest = layout_.NodeDigest(node);
      }
      *underflow = node.keys.size() < MinOccupancy(node);
      return Store(page, node);
    }
    return Status::NotFound("posting not found");
  }

  // Duplicate keys may live in any child whose separator range touches
  // `key`; probe candidates left to right.
  size_t first = node_tree_internal::LowerBound(node.keys, key);
  size_t last = node_tree_internal::UpperBound(node.keys, key);
  for (size_t idx = first; idx <= last; ++idx) {
    bool child_underflow = false;
    crypto::Digest child_digest;
    Status st = DeleteRec(node.children[idx], key, rid, &child_underflow,
                          &child_digest, removed);
    if (st.code() == StatusCode::kNotFound) continue;
    SAE_RETURN_NOT_OK(st);
    if constexpr (kDigests) {
      node.digests[idx] = child_digest;
    } else if (!child_underflow) {
      return Status::OK();  // a plain node changes only on an underflow
    }
    if (child_underflow) {
      SAE_RETURN_NOT_OK(FixUnderflow(&node, idx));
      *underflow = node.keys.size() < MinOccupancy(node);
    }
    if constexpr (kDigests) *self_digest = layout_.NodeDigest(node);
    return Store(page, node);
  }
  return Status::NotFound("posting not found");
}

template <class Layout>
Status NodeTree<Layout>::FixUnderflow(Node* parent, size_t i) {
  PageId child_page = parent->children[i];
  SAE_ASSIGN_OR_RETURN(Node child, Load(child_page));

  // Borrow the left sibling's last entry.
  if (i > 0) {
    PageId left_page = parent->children[i - 1];
    SAE_ASSIGN_OR_RETURN(Node left, Load(left_page));
    if (left.keys.size() > MinOccupancy(left)) {
      Key& separator = parent->keys[i - 1];
      child.keys.insert(child.keys.begin(),
                        child.is_leaf ? left.keys.back() : separator);
      separator = left.keys.back();
      left.keys.pop_back();
      ForEachColumn(&left, &child, [](auto* from, auto* to) {
        to->insert(to->begin(), from->back());
        from->pop_back();
      });
      SAE_RETURN_NOT_OK(Store(left_page, left));
      SAE_RETURN_NOT_OK(Store(child_page, child));
      SetPairDigests(parent, i - 1, left, child);
      return Status::OK();
    }
  }

  // Borrow the right sibling's first entry.
  if (i + 1 < parent->children.size()) {
    PageId right_page = parent->children[i + 1];
    SAE_ASSIGN_OR_RETURN(Node right, Load(right_page));
    if (right.keys.size() > MinOccupancy(right)) {
      Key& separator = parent->keys[i];
      Key first = right.keys.front();
      child.keys.push_back(child.is_leaf ? first : separator);
      right.keys.erase(right.keys.begin());
      separator = child.is_leaf ? right.keys.front() : first;
      ForEachColumn(&child, &right, [](auto* to, auto* from) {
        to->push_back(from->front());
        from->erase(from->begin());
      });
      SAE_RETURN_NOT_OK(Store(right_page, right));
      SAE_RETURN_NOT_OK(Store(child_page, child));
      SetPairDigests(parent, i, child, right);
      return Status::OK();
    }
  }

  // Merge children j and j + 1, preferring to absorb `child` into its left
  // sibling.
  size_t j = i > 0 ? i - 1 : i;
  SAE_CHECK(j + 1 < parent->children.size());
  PageId left_page = parent->children[j];
  PageId right_page = parent->children[j + 1];
  SAE_ASSIGN_OR_RETURN(Node sibling, Load(i > 0 ? left_page : right_page));
  Node& left = i > 0 ? sibling : child;
  Node& right = i > 0 ? child : sibling;
  if (left.is_leaf) {
    left.next = right.next;
  } else {
    left.keys.push_back(parent->keys[j]);
  }
  left.keys.insert(left.keys.end(), right.keys.begin(), right.keys.end());
  ForEachColumn(&left, &right, [](auto* to, auto* from) {
    to->insert(to->end(), from->begin(), from->end());
  });
  SAE_RETURN_NOT_OK(Store(left_page, left));
  SAE_RETURN_NOT_OK(FreeNode(right_page));
  parent->keys.erase(parent->keys.begin() + j);
  parent->children.erase(parent->children.begin() + j + 1);
  if constexpr (kDigests) {
    parent->digests.erase(parent->digests.begin() + j + 1);
    parent->digests[j] = layout_.NodeDigest(left);
  }
  return Status::OK();
}

template <class Layout>
template <class Entry>
Status NodeTree<Layout>::BulkLoad(const std::vector<Entry>& sorted,
                                  double fill, crypto::Digest* root_digest) {
  using node_tree_internal::PlanChunks;
  if (entry_count_ != 0 || node_count_ != 1) {
    return Status::InvalidArgument("bulk load requires an empty tree");
  }
  if (fill <= 0.0 || fill > 1.0) {
    return Status::InvalidArgument("fill must be in (0, 1]");
  }
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i - 1].key > sorted[i].key) {
      return Status::InvalidArgument("entries not sorted by key");
    }
  }
  if (sorted.empty()) return Status::OK();
  if (cache_ != nullptr) cache_->Clear();

  size_t min_leaf = std::max<size_t>(1, max_leaf_ / 2);
  size_t leaf_target = std::max<size_t>(
      min_leaf, static_cast<size_t>(double(max_leaf_) * fill));
  std::vector<size_t> leaf_sizes =
      PlanChunks(sorted.size(), leaf_target, max_leaf_, min_leaf);

  struct LevelEntry {
    Key first_key;
    PageId page;
    crypto::Digest digest;
  };
  std::vector<LevelEntry> level;
  level.reserve(leaf_sizes.size());

  // Digest layouts hash a whole level in one batch: a node's digest
  // preimage is its digest column, so the level rides the multi-buffer
  // kernels. `columns` holds the level's columns until then.
  std::vector<std::vector<crypto::Digest>> columns;
  auto finish_level = [&](std::vector<LevelEntry>* entries) {
    if constexpr (kDigests) {
      std::vector<crypto::Digest> digests = layout_.LevelDigests(columns);
      for (size_t i = 0; i < digests.size(); ++i) {
        (*entries)[i].digest = digests[i];
      }
      columns.clear();
    }
  };

  size_t offset = 0;
  PageId prev_leaf = storage::kInvalidPageId;
  for (size_t li = 0; li < leaf_sizes.size(); ++li) {
    Node leaf;
    leaf.is_leaf = true;
    for (size_t i = 0; i < leaf_sizes[li]; ++i) {
      const Entry& e = sorted[offset + i];
      leaf.keys.push_back(e.key);
      leaf.rids.push_back(e.rid);
      if constexpr (kDigests) leaf.digests.push_back(e.digest);
    }
    offset += leaf_sizes[li];

    PageId page;
    if (li == 0) {
      page = root_;  // recycle the initial empty root page
      SAE_RETURN_NOT_OK(Store(page, leaf));
    } else {
      SAE_ASSIGN_OR_RETURN(page, NewNode(leaf));
    }
    if (prev_leaf != storage::kInvalidPageId) {
      SAE_ASSIGN_OR_RETURN(Node prev, Load(prev_leaf));
      prev.next = page;
      SAE_RETURN_NOT_OK(Store(prev_leaf, prev));
    }
    prev_leaf = page;
    level.push_back(LevelEntry{leaf.keys.front(), page, {}});
    if constexpr (kDigests) columns.push_back(std::move(leaf.digests));
  }
  finish_level(&level);

  height_ = 1;
  size_t min_children = max_internal_ / 2 + 1;
  size_t target_children = std::max<size_t>(
      min_children, static_cast<size_t>(double(max_internal_ + 1) * fill));
  while (level.size() > 1) {
    std::vector<size_t> group_sizes = PlanChunks(
        level.size(), target_children, max_internal_ + 1, min_children);
    std::vector<LevelEntry> next_level;
    next_level.reserve(group_sizes.size());
    size_t pos = 0;
    for (size_t gs : group_sizes) {
      Node internal;
      internal.is_leaf = false;
      for (size_t i = 0; i < gs; ++i) {
        if (i > 0) internal.keys.push_back(level[pos + i].first_key);
        internal.children.push_back(level[pos + i].page);
        if constexpr (kDigests) {
          internal.digests.push_back(level[pos + i].digest);
        }
      }
      SAE_ASSIGN_OR_RETURN(PageId page, NewNode(internal));
      next_level.push_back(LevelEntry{level[pos].first_key, page, {}});
      if constexpr (kDigests) columns.push_back(std::move(internal.digests));
      pos += gs;
    }
    finish_level(&next_level);
    level = std::move(next_level);
    ++height_;
  }

  root_ = level.front().page;
  entry_count_ = sorted.size();
  if constexpr (kDigests) *root_digest = level.front().digest;
  return Status::OK();
}

template <class Layout>
template <class Emit>
Status NodeTree<Layout>::RangeScan(Key lo, Key hi, const Emit& emit) const {
  if (lo > hi) return Status::InvalidArgument("lo > hi");

  // Descend to the leftmost leaf that may contain `lo`. Duplicate keys can
  // straddle a split boundary, so use lower_bound on separators.
  size_t depth = 0;
  NodeRef node;
  SAE_RETURN_NOT_OK(Read(root_, depth, &node));
  while (!node->is_leaf) {
    PageId child =
        node->children[node_tree_internal::LowerBound(node->keys, lo)];
    SAE_RETURN_NOT_OK(Read(child, ++depth, &node));
  }

  // Walk the leaf chain from the leaf the descent fetched.
  for (;;) {
    for (size_t pos = node_tree_internal::LowerBound(node->keys, lo);
         pos < node->keys.size(); ++pos) {
      if (node->keys[pos] > hi) return Status::OK();
      emit(*node, pos);
    }
    if (node->next == storage::kInvalidPageId) return Status::OK();
    SAE_RETURN_NOT_OK(Read(node->next, depth, &node));
  }
}

template <class Layout>
Status NodeTree<Layout>::ValidateRec(PageId page, size_t depth,
                                     std::optional<Key> lo,
                                     std::optional<Key> hi, Census* census,
                                     crypto::Digest* digest) const {
  SAE_ASSIGN_OR_RETURN(Node node, Load(page));
  ++census->nodes;

  for (size_t i = 1; i < node.keys.size(); ++i) {
    if (node.keys[i - 1] > node.keys[i]) {
      return Status::Corruption("keys out of order");
    }
  }
  for (Key k : node.keys) {
    if ((lo && k < *lo) || (hi && k > *hi)) {
      return Status::Corruption("key outside separator bounds");
    }
  }

  if (node.is_leaf) {
    if (node.keys.size() > max_leaf_) {
      return Status::Corruption("leaf overflow");
    }
    if (census->leaf_depth == 0) {
      census->leaf_depth = depth;
    } else if (census->leaf_depth != depth) {
      return Status::Corruption("leaves at differing depths");
    }
    census->entries += node.keys.size();
    census->leaves.push_back(page);
    if constexpr (kDigests) *digest = layout_.NodeDigest(node);
    return Status::OK();
  }

  if (node.keys.size() > max_internal_) {
    return Status::Corruption("internal overflow");
  }
  if (node.children.size() != node.keys.size() + 1) {
    return Status::Corruption("child/key count mismatch");
  }
  if (page != root_ && node.keys.size() < max_internal_ / 2) {
    return Status::Corruption("internal underflow");
  }
  for (size_t i = 0; i < node.children.size(); ++i) {
    std::optional<Key> child_lo = i == 0 ? lo : std::optional(node.keys[i - 1]);
    std::optional<Key> child_hi =
        i == node.keys.size() ? hi : std::optional(node.keys[i]);
    crypto::Digest child_digest;
    SAE_RETURN_NOT_OK(ValidateRec(node.children[i], depth + 1, child_lo,
                                  child_hi, census, &child_digest));
    if constexpr (kDigests) {
      if (child_digest != node.digests[i]) {
        return Status::Corruption("stale child digest");
      }
    }
  }
  if constexpr (kDigests) *digest = layout_.NodeDigest(node);
  return Status::OK();
}

template <class Layout>
Status NodeTree<Layout>::Validate(crypto::Digest* root_digest) const {
  Census census;
  crypto::Digest digest;
  SAE_RETURN_NOT_OK(ValidateRec(root_, 1, std::nullopt, std::nullopt,
                                &census, &digest));
  if (census.entries != entry_count_) {
    return Status::Corruption("entry count mismatch");
  }
  if (census.nodes != node_count_) {
    return Status::Corruption("node count mismatch");
  }
  if (census.leaf_depth != height_) {
    return Status::Corruption("height mismatch");
  }
  // The left-to-right leaf order must match the next-pointer chain.
  const std::vector<PageId>& leaves = census.leaves;
  for (size_t i = 0; i + 1 < leaves.size(); ++i) {
    SAE_ASSIGN_OR_RETURN(Node leaf, Load(leaves[i]));
    if (leaf.next != leaves[i + 1]) {
      return Status::Corruption("broken leaf chain");
    }
  }
  if (!leaves.empty()) {
    SAE_ASSIGN_OR_RETURN(Node last, Load(leaves.back()));
    if (last.next != storage::kInvalidPageId) {
      return Status::Corruption("dangling leaf chain tail");
    }
  }
  if constexpr (kDigests) *root_digest = digest;
  return Status::OK();
}

}  // namespace sae::btree

#endif  // SAE_BTREE_NODE_TREE_H_
