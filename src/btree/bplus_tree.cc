// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the conventional disk B+-tree (btree/bplus_tree.h) on the
// shared NodeTree with the plain layout, plus the exact-posting lookup that
// Insert uses to reject duplicate postings.

#include "btree/bplus_tree.h"

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
  // A run of duplicates of `key` may span leaves; the scan walks all of it.
  bool found = false;
  SAE_RETURN_NOT_OK(
      core_.RangeScan(key, key, [&](const Node& leaf, size_t pos) {
        found = found || leaf.rids[pos] == rid;
      }));
  return found;
}

Status BPlusTree::BulkLoad(const std::vector<BTreeEntry>& sorted,
                           double fill) {
  return core_.BulkLoad(sorted, fill, nullptr);
}

Status BPlusTree::Validate() const { return core_.Validate(nullptr); }

}  // namespace sae::btree
