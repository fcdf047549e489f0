// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the conventional disk B+-tree (btree/bplus_tree.h) on the
// shared NodeTree with the plain layout, plus the exact-posting lookup that
// Insert uses to reject duplicate postings.

#include "btree/bplus_tree.h"

#include <algorithm>

#include "util/macros.h"

namespace sae::btree {

Result<std::unique_ptr<BPlusTree>> BPlusTree::Create(
    BufferPool* pool, const BPlusTreeOptions& options) {
  auto tree = std::unique_ptr<BPlusTree>(new BPlusTree(pool, options));
  SAE_RETURN_NOT_OK(tree->core_.Init());
  return tree;
}

Status BPlusTree::Insert(Key key, Rid rid) {
  SAE_ASSIGN_OR_RETURN(bool exists, Contains(key, rid));
  if (exists) {
    return Status::AlreadyExists("posting already present");
  }
  return core_.Insert(BTreeEntry{key, rid}, nullptr);
}

Status BPlusTree::Delete(Key key, Rid rid) {
  return core_.Delete(key, rid, nullptr, nullptr);
}

Status BPlusTree::RangeSearch(Key lo, Key hi,
                              std::vector<BTreeEntry>* out) const {
  return core_.RangeScan(lo, hi, [out](const Node& leaf, size_t pos) {
    out->push_back(BTreeEntry{leaf.keys[pos], leaf.rids[pos]});
  });
}

Result<bool> BPlusTree::Contains(Key key, Rid rid) const {
  PageId page = core_.root();
  for (;;) {
    SAE_ASSIGN_OR_RETURN(Node node, core_.Load(page));
    if (node.is_leaf) break;
    size_t idx = std::lower_bound(node.keys.begin(), node.keys.end(), key) -
                 node.keys.begin();
    page = node.children[idx];
  }
  while (page != storage::kInvalidPageId) {
    SAE_ASSIGN_OR_RETURN(Node leaf, core_.Load(page));
    size_t pos = std::lower_bound(leaf.keys.begin(), leaf.keys.end(), key) -
                 leaf.keys.begin();
    for (; pos < leaf.keys.size(); ++pos) {
      if (leaf.keys[pos] != key) return false;
      if (leaf.rids[pos] == rid) return true;
    }
    page = leaf.next;  // run of duplicates may continue in the next leaf
    if (page != storage::kInvalidPageId) {
      SAE_ASSIGN_OR_RETURN(Node peek, core_.Load(page));
      if (peek.keys.empty() || peek.keys.front() != key) return false;
    }
  }
  return false;
}

Status BPlusTree::BulkLoad(const std::vector<BTreeEntry>& sorted,
                           double fill) {
  return core_.BulkLoad(sorted, fill, nullptr);
}

Status BPlusTree::Validate() const { return core_.Validate(nullptr); }

}  // namespace sae::btree
