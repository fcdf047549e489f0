// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Golden-format tests. In an authentication system the byte-level formats
// ARE the security contract: record serialization feeds the digests, wire
// formats feed the channels, and page layouts determine every fanout the
// experiments rely on. These tests pin them; an accidental format change
// breaks here before it silently breaks verification interop.

#include <gtest/gtest.h>

#include "btree/bplus_tree.h"
#include "core/client.h"
#include "core/messages.h"
#include "crypto/digest.h"
#include "dbms/query.h"
#include "mbtree/mb_tree.h"
#include "storage/page_store.h"
#include "storage/record.h"
#include "util/hex.h"
#include "xbtree/xb_tree.h"

namespace sae {
namespace {

using storage::Record;
using storage::RecordCodec;

TEST(GoldenTest, RecordSerializationLayout) {
  RecordCodec codec(20);
  Record r;
  r.id = 0x0102030405060708ull;
  r.key = 0x0A0B0C0Du;
  r.payload = {0xAA, 0xBB};
  std::vector<uint8_t> bytes = codec.Serialize(r);
  // id (8B LE) || key (4B LE) || payload zero-padded to record size.
  EXPECT_EQ(HexEncode(bytes.data(), bytes.size()),
            "08070605040302010d0c0b0aaabb000000000000");
}

TEST(GoldenTest, DeterministicPayloadGenerator) {
  // MakeRecord's payload derivation must never change: the DO, SP, TE and
  // tests all regenerate record bytes from (id, key) independently.
  RecordCodec codec(24);
  Record r = codec.MakeRecord(42, 7);
  std::vector<uint8_t> bytes = codec.Serialize(r);
  EXPECT_EQ(HexEncode(bytes.data(), bytes.size()),
            "2a0000000000000007000000bea771dd093a273c0f21942f");
}

TEST(GoldenTest, RecordDigestStability) {
  RecordCodec codec(24);
  Record r = codec.MakeRecord(42, 7);
  std::vector<uint8_t> bytes = codec.Serialize(r);
  crypto::Digest d = crypto::ComputeDigest(bytes.data(), bytes.size());
  EXPECT_EQ(d.ToHex(), crypto::ComputeDigest(bytes.data(), bytes.size()).ToHex());
  // SHA-1 of the exact golden bytes above.
  auto expected = crypto::ComputeDigest(
      HexDecode("2a0000000000000007000000bea771dd093a273c0f21942f").data(),
      24);
  EXPECT_EQ(d, expected);
}

TEST(GoldenTest, PageDerivedFanouts) {
  // 4096-byte pages fix every fanout; these constants are what make Fig. 6
  // and Fig. 8 comparable with the paper.
  storage::PageStore store;
  storage::BufferPool pool(&store, 16);
  EXPECT_EQ(btree::BPlusTree::Create(&pool).ValueOrDie()->max_leaf_entries(),
            340u);
  EXPECT_EQ(
      btree::BPlusTree::Create(&pool).ValueOrDie()->max_internal_keys(),
      509u);
  EXPECT_EQ(mbtree::MbTree::Create(&pool).ValueOrDie()->max_leaf_entries(),
            127u);
  EXPECT_EQ(mbtree::MbTree::Create(&pool).ValueOrDie()->max_internal_keys(),
            144u);
  EXPECT_EQ(xbtree::XbTree::Create(&pool).ValueOrDie()->max_entries(), 126u);
}

TEST(GoldenTest, HeapSlotsForPaperRecordSize) {
  storage::PageStore store;
  storage::BufferPool pool(&store, 16);
  storage::HeapFile heap(&pool, 500);
  EXPECT_EQ(heap.slots_per_page(), 8u);  // (4096 - 32) / 500
}

TEST(GoldenTest, QueryMessageWireFormat) {
  std::vector<uint8_t> bytes = core::SerializeQuery(0x01020304, 0x0A0B0C0D);
  EXPECT_EQ(HexEncode(bytes.data(), bytes.size()), "02040302010d0c0b0a");
}

TEST(GoldenTest, VtMessageWireFormat) {
  core::VerificationToken vt;
  vt.epoch = 0x0807060504030201ull;
  for (size_t i = 0; i < vt.digest.bytes.size(); ++i) {
    vt.digest.bytes[i] = uint8_t(i);
  }
  std::vector<uint8_t> bytes = core::SerializeVt(vt);
  // tag || epoch (8B LE) || digest (20B).
  EXPECT_EQ(HexEncode(bytes.data(), bytes.size()),
            "030102030405060708000102030405060708090a0b0c0d0e0f10111213");
  EXPECT_EQ(bytes.size(), 29u);
}

TEST(GoldenTest, ResultsMessageWireFormat) {
  RecordCodec codec(20);
  Record r;
  r.id = 0x0102030405060708ull;
  r.key = 0x0A0B0C0Du;
  r.payload = {0xAA, 0xBB};
  std::vector<uint8_t> bytes =
      core::SerializeResults({r}, 0x0807060504030201ull, codec);
  // tag || epoch (8B LE) || record_size (4B LE) || count (8B LE) || records.
  EXPECT_EQ(HexEncode(bytes.data(), bytes.size()),
            "07010203040506070814000000010000000000000008070605040302010d0c0b"
            "0aaabb000000000000");
}

TEST(GoldenTest, QueryRequestWireFormat) {
  // tag || op (kTopK=6) || lo (4B LE) || hi (4B LE) || limit (4B LE).
  std::vector<uint8_t> bytes = core::SerializeQueryRequest(
      dbms::QueryRequest::TopK(0x01020304, 0x0A0B0C0D, 5));
  EXPECT_EQ(HexEncode(bytes.data(), bytes.size()),
            "0906040302010d0c0b0a05000000");
  auto back = core::DeserializeQueryRequest(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), dbms::QueryRequest::TopK(0x01020304, 0x0A0B0C0D, 5));
}

TEST(GoldenTest, QueryAnswerWireFormatAggregate) {
  // An aggregate answer ships derived fields + witness, no answer rows:
  // tag || op || epoch(8) || count(8) || sum(8) || has_extrema(1) ||
  // min(4) || max(4) || record_size(4) || n_answer(8)=0 || n_witness(8) ||
  // witness records.
  RecordCodec codec(20);
  Record r;
  r.id = 0x0102030405060708ull;
  r.key = 0x0A0B0C0Du;
  r.payload = {0xAA, 0xBB};
  dbms::QueryAnswer answer =
      dbms::EvaluateAnswer(dbms::QueryRequest::Count(0, 0xFFFFFFFF), {r});
  std::vector<uint8_t> bytes =
      core::SerializeQueryAnswer(answer, {r}, 0x0807060504030201ull, codec);
  EXPECT_EQ(HexEncode(bytes.data(), bytes.size()),
            "0a02010203040506070801000000000000000d0c0b0a00000000010d0c0b0a"
            "0d0c0b0a1400000000000000000000000100000000000000080706050403020"
            "10d0c0b0aaabb000000000000");
  auto back = core::DeserializeQueryAnswer(bytes, codec);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().answer, answer);
  // Decoded records carry the canonical zero-padded payload.
  Record canonical = codec.Deserialize(codec.Serialize(r).data());
  EXPECT_EQ(back.value().witness, (std::vector<Record>{canonical}));
  EXPECT_EQ(back.value().epoch, 0x0807060504030201ull);
}

TEST(GoldenTest, QueryAnswerWireFormatTopK) {
  // Top-k is the only operator shipping answer rows of its own (the ranked
  // winners), ahead of the witness.
  RecordCodec codec(20);
  Record a = codec.MakeRecord(1, 10);
  Record b = codec.MakeRecord(2, 20);
  dbms::QueryAnswer answer =
      dbms::EvaluateAnswer(dbms::QueryRequest::TopK(0, 100, 1), {a, b});
  ASSERT_EQ(answer.records.size(), 1u);
  EXPECT_EQ(answer.records[0].id, 2u);  // key 20 wins
  std::vector<uint8_t> bytes =
      core::SerializeQueryAnswer(answer, {a, b}, 3, codec);
  // Sizes pin the layout: 55-byte header (tag, op, epoch, count, sum,
  // extrema flag, min, max, record size, two cardinalities) + 1 answer
  // row + 2 witness rows.
  EXPECT_EQ(bytes.size(), 55u + 3 * codec.record_size());
  auto back = core::DeserializeQueryAnswer(bytes, codec);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().answer, answer);
  EXPECT_EQ(back.value().witness, (std::vector<Record>{a, b}));
}

// The aggregate-verification contract under BOTH hash schemes: the client
// recomputes the answer from the witness whose per-record digests (and
// therefore the XOR token that authenticates it) depend on the scheme.
// Pinned byte-exactly so neither scheme's witness digesting can drift.
TEST(GoldenTest, WitnessXorTokenBothSchemes) {
  RecordCodec codec(24);
  std::vector<Record> witness = {codec.MakeRecord(42, 7),
                                 codec.MakeRecord(43, 8)};
  crypto::Digest sha1 =
      core::Client::ResultXor(witness, codec, crypto::HashScheme::kSha1);
  EXPECT_EQ(sha1.ToHex(), "4bb88ca074b47e19859550f2fa22a84463623a8f");
  crypto::Digest sha256 = core::Client::ResultXor(
      witness, codec, crypto::HashScheme::kSha256Trunc);
  EXPECT_EQ(sha256.ToHex(), "89d6d931739766bb09cf7a9d41dd3d37d4346170");
}

TEST(GoldenTest, EpochNoticeWireFormat) {
  std::vector<uint8_t> bytes =
      core::SerializeEpochNotice(0x0807060504030201ull);
  EXPECT_EQ(HexEncode(bytes.data(), bytes.size()), "060102030405060708");
}

TEST(GoldenTest, ShardEpochVectorWireFormat) {
  // tag(0x08) + count(2, u32 LE) + two u64 LE epochs.
  std::vector<uint8_t> bytes =
      core::SerializeShardEpochs({0x01, 0x0807060504030201ull});
  EXPECT_EQ(HexEncode(bytes.data(), bytes.size()),
            "080200000001000000000000000102030405060708");
  auto decoded = core::DeserializeShardEpochs(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(),
            (std::vector<uint64_t>{0x01, 0x0807060504030201ull}));
}

TEST(GoldenTest, SignatureMessageWireFormat) {
  crypto::RsaSignature sig{0xDE, 0xAD, 0xBE, 0xEF};
  std::vector<uint8_t> bytes =
      core::SerializeSignature(sig, 0x0807060504030201ull);
  // tag || epoch (8B LE) || sig_len (2B LE) || sig bytes.
  EXPECT_EQ(HexEncode(bytes.data(), bytes.size()),
            "0401020304050607080400deadbeef");
}

// The commitment every root signature covers: H(root || epoch_le64). This
// is the wire-level security contract of the freshness scheme — pinned
// byte-exactly for BOTH hash schemes so it cannot drift silently.
TEST(GoldenTest, EpochStampedRootSignatureEncodingSha1) {
  crypto::Digest root;
  for (size_t i = 0; i < root.bytes.size(); ++i) root.bytes[i] = uint8_t(i);
  crypto::Digest stamped =
      crypto::EpochStampedDigest(root, 0x0807060504030201ull,
                                 crypto::HashScheme::kSha1);
  // SHA-1 of the 28-byte preimage 000102..13 || 0102030405060708.
  EXPECT_EQ(stamped.ToHex(), "f1068c9b5447945723e55ef23acb7b7ada8a4b80");
  // Must agree with hashing the hand-assembled preimage.
  auto preimage =
      HexDecode("000102030405060708090a0b0c0d0e0f101112130102030405060708");
  EXPECT_EQ(stamped,
            crypto::ComputeDigest(preimage.data(), preimage.size(),
                                  crypto::HashScheme::kSha1));
}

TEST(GoldenTest, EpochStampedRootSignatureEncodingSha256) {
  crypto::Digest root;
  for (size_t i = 0; i < root.bytes.size(); ++i) root.bytes[i] = uint8_t(i);
  crypto::Digest stamped =
      crypto::EpochStampedDigest(root, 0x0807060504030201ull,
                                 crypto::HashScheme::kSha256Trunc);
  // SHA-256 (truncated to 20 bytes) of the same 28-byte preimage.
  EXPECT_EQ(stamped.ToHex(), "a20337f594a9847c521934656e8590570fc323a9");
  auto preimage =
      HexDecode("000102030405060708090a0b0c0d0e0f101112130102030405060708");
  EXPECT_EQ(stamped,
            crypto::ComputeDigest(preimage.data(), preimage.size(),
                                  crypto::HashScheme::kSha256Trunc));
}

// Epoch zero must reproduce the same stamping rule (no special casing) —
// static set-ups sign EpochStampedDigest(root, 0), never the bare root.
TEST(GoldenTest, EpochStampZeroDiffersFromBareRoot) {
  crypto::Digest root = crypto::ComputeDigest("root", 4);
  for (auto scheme :
       {crypto::HashScheme::kSha1, crypto::HashScheme::kSha256Trunc}) {
    crypto::Digest stamped = crypto::EpochStampedDigest(root, 0, scheme);
    EXPECT_NE(stamped, root);
    EXPECT_NE(stamped, crypto::EpochStampedDigest(root, 1, scheme));
  }
}

TEST(GoldenTest, DeleteMessageWireFormat) {
  std::vector<uint8_t> bytes = core::SerializeDelete(0x1122334455667788ull, 9);
  EXPECT_EQ(HexEncode(bytes.data(), bytes.size()),
            "05887766554433221109000000");
}

TEST(GoldenTest, VoWireFormatStability) {
  // A tiny fully-specified MB-tree and query; the VO byte stream must not
  // drift. (Single leaf: 3 result slots between two boundary records is
  // impossible with only 3 records in range, so pin a digest/boundary mix.)
  storage::PageStore store;
  storage::BufferPool pool(&store, 64);
  RecordCodec codec(20);
  mbtree::MbTreeOptions options;
  options.max_leaf_entries = 8;
  options.max_internal_keys = 8;
  auto tree = mbtree::MbTree::Create(&pool, options).ValueOrDie();
  std::map<uint64_t, Record> records;
  for (uint64_t id = 1; id <= 5; ++id) {
    Record r = codec.MakeRecord(id, uint32_t(id * 10));
    records[id] = r;
    auto bytes = codec.Serialize(r);
    ASSERT_TRUE(tree->Insert(mbtree::MbEntry{
                        r.key, id,
                        crypto::ComputeDigest(bytes.data(), bytes.size())})
                    .ok());
  }
  auto fetch = [&](storage::Rid rid) -> Result<std::vector<uint8_t>> {
    return codec.Serialize(records.at(rid));
  };
  auto vo = tree->BuildVo(20, 40, fetch).ValueOrDie();
  vo.epoch = 7;
  vo.signature = {0xDE, 0xAD};
  std::vector<uint8_t> bytes = vo.Serialize();

  // Token layout: NodeBegin(leaf, 5 items), digest? boundary(10) result(20)
  // result(30) result(40) boundary(50) -> keys 10 and 50 are boundaries.
  ASSERT_GE(bytes.size(), 5u);
  EXPECT_EQ(bytes[0], 0xA0);  // NodeBegin
  EXPECT_EQ(bytes[1], 0x01);  // is_leaf
  EXPECT_EQ(bytes[2], 0x05);  // 5 items
  // Re-parse and confirm exact round trip.
  auto back = mbtree::VerificationObject::Deserialize(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().Serialize(), bytes);
  // Structure: boundary, result x3, boundary.
  const auto& items = back.value().root.items;
  ASSERT_EQ(items.size(), 5u);
  EXPECT_EQ(items[0].type, mbtree::VoItem::Type::kBoundaryRecord);
  EXPECT_EQ(items[1].type, mbtree::VoItem::Type::kResultEntry);
  EXPECT_EQ(items[2].type, mbtree::VoItem::Type::kResultEntry);
  EXPECT_EQ(items[3].type, mbtree::VoItem::Type::kResultEntry);
  EXPECT_EQ(items[4].type, mbtree::VoItem::Type::kBoundaryRecord);
}

TEST(GoldenTest, Sha1KnownAnswerForRecordSizedInput) {
  // 500 bytes of 0x00 — the paper's record size as a KAT.
  std::vector<uint8_t> zeros(500, 0);
  auto d = crypto::ComputeDigest(zeros.data(), zeros.size());
  EXPECT_EQ(d.ToHex(), "fc56d4b3c72a8bfe593373c740d558ec1340ac73");
}

}  // namespace
}  // namespace sae
