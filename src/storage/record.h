// Copyright (c) saedb authors. Licensed under the MIT license.
//
// The outsourced record and its canonical binary representation.
//
// Paper §IV: each record has a 4-byte integer search key in [0, 10^7] plus
// additional attributes, 500 bytes in total. Digests (SAE's t.h, the
// MB-tree's leaf digests) are computed "on the binary representation of the
// record", so serialization must be canonical: id (8B LE) || key (4B LE) ||
// payload (record_size - 12 bytes).

#ifndef SAE_STORAGE_RECORD_H_
#define SAE_STORAGE_RECORD_H_

#include <cstdint>
#include <vector>

#include "crypto/digest.h"
#include "util/status.h"

namespace sae::storage {

using RecordId = uint64_t;  // application-level unique id (DO-assigned)
using Key = uint32_t;       // query-attribute value

/// The paper's experimental record size.
inline constexpr size_t kDefaultRecordSize = 500;

/// Minimum serialized size (id + key, no payload).
inline constexpr size_t kRecordHeaderSize = 12;

/// A relational record: unique id, query-attribute key and opaque payload
/// standing in for the remaining attributes.
struct Record {
  RecordId id = 0;
  Key key = 0;
  std::vector<uint8_t> payload;

  friend bool operator==(const Record& a, const Record& b) {
    return a.id == b.id && a.key == b.key && a.payload == b.payload;
  }
};

/// The (key, id) order records are shipped, bulk-loaded and checkpointed
/// in; a total order, since ids are unique. A function object, so sorts
/// inline the comparison.
inline constexpr auto KeyIdLess = [](const Record& a, const Record& b) {
  return a.key != b.key ? a.key < b.key : a.id < b.id;
};

/// Serializes/deserializes records at a fixed total size.
class RecordCodec {
 public:
  explicit RecordCodec(size_t record_size = kDefaultRecordSize);

  size_t record_size() const { return record_size_; }
  size_t payload_size() const { return record_size_ - kRecordHeaderSize; }

  /// Writes exactly record_size() bytes. Payload shorter than payload_size()
  /// is zero-padded; longer payloads are a programming error.
  void Serialize(const Record& record, uint8_t* out) const;

  std::vector<uint8_t> Serialize(const Record& record) const;

  /// Parses record_size() bytes.
  Record Deserialize(const uint8_t* data) const;

  /// Deterministic payload derived from the record id, so that the DO, SP,
  /// TE and tests all reconstruct identical record bytes without shipping
  /// payloads around.
  Record MakeRecord(RecordId id, Key key) const;

 private:
  size_t record_size_;
};

/// out[i] = H(serialize(records[i])) for every record, digested in batches
/// through crypto::ComputeDigests so the multi-buffer hash kernels see up to
/// 8 records per pass. Serialization happens into a chunk-sized contiguous
/// scratch buffer (cache-resident), not one allocation per record. This is
/// the shared hot loop of TE/DO dataset loads and client witness re-hashing.
std::vector<crypto::Digest> DigestRecords(const std::vector<Record>& records,
                                          const RecordCodec& codec,
                                          crypto::HashScheme scheme);

}  // namespace sae::storage

#endif  // SAE_STORAGE_RECORD_H_
