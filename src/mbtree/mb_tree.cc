// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the Merkle B-tree (mbtree/mb_tree.h): the digest layout's
// hashing, root-digest upkeep over the shared B+-tree, and the
// predecessor/successor and covering-subtree traversals VO construction
// runs through the hot-node cache.

#include "mbtree/mb_tree.h"

#include <algorithm>
#include <limits>

#include "util/macros.h"

namespace sae::mbtree {

using btree::Node;
using btree::NodeRef;

crypto::Digest MbLayout::NodeDigest(const Node& node) const {
  if (node.digests.empty()) {
    // Empty tree: digest of zero digests — hash of the empty string.
    return crypto::CombineDigests(nullptr, 0, scheme);
  }
  return crypto::CombineDigests(node.digests.data(), node.digests.size(),
                                scheme);
}

std::vector<crypto::Digest> MbLayout::LevelDigests(
    const std::vector<std::vector<crypto::Digest>>& columns) const {
  std::vector<crypto::ByteSpan> spans(columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    spans[i] = crypto::ByteSpan{columns[i].data(),
                                columns[i].size() * crypto::Digest::kSize};
  }
  std::vector<crypto::Digest> digests(columns.size());
  crypto::ComputeDigests(spans.data(), spans.size(), digests.data(), scheme);
  return digests;
}

MbTree::MbTree(BufferPool* pool, const MbTreeOptions& options)
    : node_cache_(storage::NodeCacheOptions{options.hot_cache_levels,
                                            options.hot_cache_entries}),
      core_(pool, options.max_leaf_entries, options.max_internal_keys,
            MbLayout{options.scheme}, &node_cache_) {}

Result<std::unique_ptr<MbTree>> MbTree::Create(BufferPool* pool,
                                               const MbTreeOptions& options) {
  auto tree = std::unique_ptr<MbTree>(new MbTree(pool, options));
  SAE_RETURN_NOT_OK(tree->core_.Init());
  tree->root_digest_ = tree->core_.layout().NodeDigest(Node{});
  return tree;
}

Status MbTree::Insert(const MbEntry& entry) {
  return core_.Insert(entry, &root_digest_);
}

Status MbTree::Delete(Key key, Rid rid, crypto::Digest* removed) {
  return core_.Delete(key, rid, removed, &root_digest_);
}

Status MbTree::BulkLoad(const std::vector<MbEntry>& sorted, double fill) {
  return core_.BulkLoad(sorted, fill, &root_digest_);
}

Status MbTree::RangeSearch(Key lo, Key hi, std::vector<MbEntry>* out) const {
  return core_.RangeScan(lo, hi, [out](const Node& leaf, size_t pos) {
    out->push_back(MbEntry{leaf.keys[pos], leaf.rids[pos], leaf.digests[pos]});
  });
}

Result<std::optional<MbEntry>> MbTree::PredecessorRec(PageId page,
                                                      size_t depth,
                                                      Key lo) const {
  NodeRef node;
  SAE_RETURN_NOT_OK(core_.Read(page, depth, &node));
  if (node->is_leaf) {
    size_t pos = std::lower_bound(node->keys.begin(), node->keys.end(), lo) -
                 node->keys.begin();
    if (pos == 0) return std::optional<MbEntry>();
    return std::optional<MbEntry>(MbEntry{node->keys[pos - 1],
                                          node->rids[pos - 1],
                                          node->digests[pos - 1]});
  }
  size_t idx = std::lower_bound(node->keys.begin(), node->keys.end(), lo) -
               node->keys.begin();
  for (size_t i = idx + 1; i-- > 0;) {
    SAE_ASSIGN_OR_RETURN(auto r,
                         PredecessorRec(node->children[i], depth + 1, lo));
    if (r.has_value()) return r;
    if (i == 0) break;
  }
  return std::optional<MbEntry>();
}

Result<std::optional<MbEntry>> MbTree::SuccessorRec(PageId page, size_t depth,
                                                    Key hi) const {
  NodeRef node;
  SAE_RETURN_NOT_OK(core_.Read(page, depth, &node));
  if (node->is_leaf) {
    size_t pos = std::upper_bound(node->keys.begin(), node->keys.end(), hi) -
                 node->keys.begin();
    if (pos == node->keys.size()) return std::optional<MbEntry>();
    return std::optional<MbEntry>(
        MbEntry{node->keys[pos], node->rids[pos], node->digests[pos]});
  }
  size_t idx = std::upper_bound(node->keys.begin(), node->keys.end(), hi) -
               node->keys.begin();
  for (size_t i = idx; i < node->children.size(); ++i) {
    SAE_ASSIGN_OR_RETURN(auto r, SuccessorRec(node->children[i], depth + 1,
                                              hi));
    if (r.has_value()) return r;
  }
  return std::optional<MbEntry>();
}

Result<std::optional<MbEntry>> MbTree::Predecessor(Key lo) const {
  if (lo == 0) return std::optional<MbEntry>();
  return PredecessorRec(core_.root(), 0, lo);
}

Result<std::optional<MbEntry>> MbTree::Successor(Key hi) const {
  return SuccessorRec(core_.root(), 0, hi);
}

Status MbTree::BuildVoRec(PageId page, size_t depth, Key lo, Key hi,
                          const std::optional<MbEntry>& left_boundary,
                          const std::optional<MbEntry>& right_boundary,
                          const RecordFetcher& fetch, VoNode* out) const {
  NodeRef node_ref;
  SAE_RETURN_NOT_OK(core_.Read(page, depth, &node_ref));
  const Node& node = *node_ref;
  out->is_leaf = node.is_leaf;

  // The span that must be expanded (not hidden behind digests): from the
  // left boundary's key (or lo) through the right boundary's key (or hi).
  Key span_lo = left_boundary ? left_boundary->key : lo;
  Key span_hi = right_boundary ? right_boundary->key : hi;

  if (node.is_leaf) {
    for (size_t i = 0; i < node.keys.size(); ++i) {
      VoItem item;
      bool is_left = left_boundary && node.keys[i] == left_boundary->key &&
                     node.rids[i] == left_boundary->rid;
      bool is_right = right_boundary && node.keys[i] == right_boundary->key &&
                      node.rids[i] == right_boundary->rid;
      if (is_left || is_right) {
        item.type = VoItem::Type::kBoundaryRecord;
        SAE_ASSIGN_OR_RETURN(item.record_bytes, fetch(node.rids[i]));
      } else if (node.keys[i] >= lo && node.keys[i] <= hi) {
        item.type = VoItem::Type::kResultEntry;
      } else {
        item.type = VoItem::Type::kDigest;
        item.digest = node.digests[i];
      }
      out->items.push_back(std::move(item));
    }
    return Status::OK();
  }

  for (size_t i = 0; i < node.children.size(); ++i) {
    // Child i covers [keys[i-1], keys[i]], inclusive at both ends because
    // duplicate keys may straddle node boundaries.
    Key child_lo = (i == 0) ? 0 : node.keys[i - 1];
    Key child_hi =
        (i == node.keys.size()) ? std::numeric_limits<Key>::max()
                                : node.keys[i];
    VoItem item;
    if (child_hi < span_lo || child_lo > span_hi) {
      item.type = VoItem::Type::kDigest;
      item.digest = node.digests[i];
    } else {
      item.type = VoItem::Type::kChild;
      item.child = std::make_unique<VoNode>();
      SAE_RETURN_NOT_OK(BuildVoRec(node.children[i], depth + 1, lo, hi,
                                   left_boundary, right_boundary, fetch,
                                   item.child.get()));
    }
    out->items.push_back(std::move(item));
  }
  return Status::OK();
}

Result<VerificationObject> MbTree::BuildVo(Key lo, Key hi,
                                           const RecordFetcher& fetch) const {
  if (lo > hi) return Status::InvalidArgument("lo > hi");
  SAE_ASSIGN_OR_RETURN(auto left_boundary, Predecessor(lo));
  SAE_ASSIGN_OR_RETURN(auto right_boundary, Successor(hi));
  VerificationObject vo;
  SAE_RETURN_NOT_OK(BuildVoRec(core_.root(), 0, lo, hi, left_boundary,
                               right_boundary, fetch, &vo.root));
  return vo;
}

Status MbTree::Validate() const {
  crypto::Digest digest;
  SAE_RETURN_NOT_OK(core_.Validate(&digest));
  if (digest != root_digest_) return Status::Corruption("root digest stale");
  return Status::OK();
}

}  // namespace sae::mbtree
