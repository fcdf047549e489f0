// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Extension: multi-attribute verification. The paper treats 1D range
// queries on a single query attribute; tables are usually queried on
// several columns. Since the TE's tuple is <id, a, h> with h independent of
// the attribute, the natural extension is one XB-Tree per queryable
// attribute, all sharing the per-record digests: a query on any indexed
// attribute gets a VT from that attribute's tree, and the client-side check
// is unchanged. Storage grows by ~36 bytes per record per extra attribute;
// updates cost one O(log n) maintenance per attribute.

#ifndef SAE_CORE_MULTI_ATTR_H_
#define SAE_CORE_MULTI_ATTR_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "crypto/digest.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "storage/record.h"
#include "util/status.h"
#include "xbtree/xb_tree.h"

namespace sae::core {

using storage::Key;
using storage::Record;
using storage::RecordCodec;
using storage::RecordId;

/// Derives an attribute's 4-byte key from a record. `record.key` itself is
/// attribute 0; further attributes are decoded from the payload by the
/// application schema.
using AttributeExtractor = std::function<Key(const Record&)>;

/// A queryable attribute registered with the TE.
struct AttributeSpec {
  std::string name;
  AttributeExtractor extractor;
};

struct MultiAttrTrustedEntityOptions {
  size_t record_size = storage::kDefaultRecordSize;
  crypto::HashScheme scheme = crypto::HashScheme::kSha1;
  size_t pool_pages = 1024;
};

/// Trusted entity indexing several query attributes of the same table.
class MultiAttrTrustedEntity {
 public:
  using Options = MultiAttrTrustedEntityOptions;

  MultiAttrTrustedEntity(std::vector<AttributeSpec> attributes,
                         const Options& options = {});

  /// Ingests the initial dataset (any order).
  Status LoadDataset(const std::vector<Record>& records);

  Status InsertRecord(const Record& record);

  /// The DO ships the full record on deletion so every attribute tree can
  /// locate its entry.
  Status DeleteRecord(const Record& record);

  /// Token for a range query on the named attribute.
  Result<crypto::Digest> GenerateVt(const std::string& attribute, Key lo,
                                    Key hi) const;

  /// Registered attribute names, in registration order.
  std::vector<std::string> AttributeNames() const;

  size_t StorageBytes() const;
  storage::BufferPool::Stats pool_stats() const { return pool_.stats(); }
  void ResetStats() { pool_.ResetStats(); }

 private:
  struct AttrIndex {
    AttributeSpec spec;
    std::unique_ptr<xbtree::XbTree> tree;
  };

  crypto::Digest RecordDigest(const Record& record) const;

  Options options_;
  RecordCodec codec_;
  storage::PageStore store_;
  mutable storage::BufferPool pool_;
  std::vector<AttrIndex> indexes_;
};

}  // namespace sae::core

#endif  // SAE_CORE_MULTI_ATTR_H_
