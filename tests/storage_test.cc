// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Unit tests for src/storage: page store, buffer pool pin/evict/flush
// semantics and access accounting, record codec, heap file, and the WAL and
// snapshot checksum.

#include <gtest/gtest.h>

#include <map>

#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "storage/page_store.h"
#include "storage/record.h"
#include "storage/wal.h"
#include "util/random.h"

namespace sae::storage {
namespace {

// --- page store ----------------------------------------------------------------

// One instantiation, named Memory: it keeps the established case names
// AllStores/PageStoreTest.*/Memory.
enum class StoreKind { kMemory };

class PageStoreTest : public ::testing::TestWithParam<StoreKind> {
 protected:
  PageStore store_;
};

TEST_P(PageStoreTest, AllocateReadWrite) {
  auto id = store_.Allocate();
  ASSERT_TRUE(id.ok());
  Page page;
  page.bytes()[0] = 0xAB;
  page.bytes()[kPageSize - 1] = 0xCD;
  ASSERT_TRUE(store_.Write(id.value(), page).ok());
  Page read;
  ASSERT_TRUE(store_.Read(id.value(), &read).ok());
  EXPECT_EQ(read.bytes()[0], 0xAB);
  EXPECT_EQ(read.bytes()[kPageSize - 1], 0xCD);
}

TEST_P(PageStoreTest, FreshPagesAreZeroed) {
  auto id = store_.Allocate();
  ASSERT_TRUE(id.ok());
  Page read;
  ASSERT_TRUE(store_.Read(id.value(), &read).ok());
  for (size_t i = 0; i < kPageSize; i += 512) EXPECT_EQ(read.bytes()[i], 0);
}

TEST_P(PageStoreTest, FreeAndReuse) {
  auto a = store_.Allocate();
  auto b = store_.Allocate();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(store_.LivePageCount(), 2u);
  ASSERT_TRUE(store_.Free(a.value()).ok());
  EXPECT_EQ(store_.LivePageCount(), 1u);
  auto c = store_.Allocate();
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value(), a.value());  // freed id is recycled
  EXPECT_EQ(store_.LivePageCount(), 2u);
}

TEST_P(PageStoreTest, AccessAfterFreeFails) {
  auto id = store_.Allocate();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(store_.Free(id.value()).ok());
  Page page;
  EXPECT_FALSE(store_.Read(id.value(), &page).ok());
  EXPECT_FALSE(store_.Write(id.value(), page).ok());
  EXPECT_FALSE(store_.Free(id.value()).ok());
}

TEST_P(PageStoreTest, ReadUnallocatedFails) {
  Page page;
  EXPECT_FALSE(store_.Read(1234, &page).ok());
}

TEST_P(PageStoreTest, ManyPagesKeepDistinctContent) {
  constexpr int kPages = 64;
  std::vector<PageId> ids;
  for (int i = 0; i < kPages; ++i) {
    auto id = store_.Allocate();
    ASSERT_TRUE(id.ok());
    Page page;
    page.bytes()[7] = uint8_t(i);
    ASSERT_TRUE(store_.Write(id.value(), page).ok());
    ids.push_back(id.value());
  }
  for (int i = 0; i < kPages; ++i) {
    Page page;
    ASSERT_TRUE(store_.Read(ids[i], &page).ok());
    EXPECT_EQ(page.bytes()[7], uint8_t(i));
  }
}

INSTANTIATE_TEST_SUITE_P(AllStores, PageStoreTest,
                         ::testing::Values(StoreKind::kMemory),
                         [](const auto&) { return "Memory"; });

// --- buffer pool ---------------------------------------------------------------

TEST(BufferPoolTest, FetchCountsAccessesAndMisses) {
  PageStore store;
  BufferPool pool(&store, 8);
  auto page = pool.New();
  ASSERT_TRUE(page.ok());
  PageId id = page.value().id();
  page.value().Release();

  pool.ResetStats();
  for (int i = 0; i < 5; ++i) {
    auto ref = pool.Fetch(id);
    ASSERT_TRUE(ref.ok());
  }
  EXPECT_EQ(pool.stats().accesses, 5u);
  EXPECT_EQ(pool.stats().misses, 0u);  // stayed cached
}

TEST(BufferPoolTest, WritesSurviveEviction) {
  PageStore store;
  BufferPool pool(&store, 4);
  std::vector<PageId> ids;
  for (int i = 0; i < 16; ++i) {
    auto ref = pool.New();
    ASSERT_TRUE(ref.ok());
    ref.value().Mutable().bytes()[3] = uint8_t(i);
    ids.push_back(ref.value().id());
  }
  // Only 4 frames: most pages were evicted (written back).
  EXPECT_GT(pool.stats().evictions, 0u);
  for (int i = 0; i < 16; ++i) {
    auto ref = pool.Fetch(ids[i]);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref.value().Get().bytes()[3], uint8_t(i));
  }
}

TEST(BufferPoolTest, PinnedPagesAreNotEvicted) {
  PageStore store;
  BufferPool pool(&store, 4);
  auto pinned = pool.New();
  ASSERT_TRUE(pinned.ok());
  pinned.value().Mutable().bytes()[0] = 0x77;

  // Exhaust remaining frames repeatedly; the pinned frame must survive.
  for (int i = 0; i < 12; ++i) {
    auto ref = pool.New();
    ASSERT_TRUE(ref.ok());
  }
  EXPECT_EQ(pinned.value().Get().bytes()[0], 0x77);
}

TEST(BufferPoolTest, AllPinnedReportsError) {
  PageStore store;
  BufferPool pool(&store, 4);
  std::vector<BufferPool::PageRef> refs;
  for (int i = 0; i < 4; ++i) {
    auto ref = pool.New();
    ASSERT_TRUE(ref.ok());
    refs.push_back(std::move(ref).ValueOrDie());
  }
  auto overflow = pool.New();
  EXPECT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kOutOfRange);
}

TEST(BufferPoolTest, FlushAllPersistsDirtyFrames) {
  PageStore store;
  PageId id;
  {
    BufferPool pool(&store, 4);
    auto ref = pool.New();
    ASSERT_TRUE(ref.ok());
    id = ref.value().id();
    ref.value().Mutable().bytes()[9] = 0x42;
    ref.value().Release();
    ASSERT_TRUE(pool.FlushAll().ok());
    Page direct;
    ASSERT_TRUE(store.Read(id, &direct).ok());
    EXPECT_EQ(direct.bytes()[9], 0x42);
  }
  // Destructor also flushes.
  Page direct;
  ASSERT_TRUE(store.Read(id, &direct).ok());
  EXPECT_EQ(direct.bytes()[9], 0x42);
}

TEST(BufferPoolTest, FreeDropsCachedFrame) {
  PageStore store;
  BufferPool pool(&store, 4);
  auto ref = pool.New();
  ASSERT_TRUE(ref.ok());
  PageId id = ref.value().id();
  ref.value().Release();
  ASSERT_TRUE(pool.Free(id).ok());
  EXPECT_FALSE(pool.Fetch(id).ok());
  EXPECT_EQ(store.LivePageCount(), 0u);
}

TEST(BufferPoolTest, FreePinnedPageFails) {
  PageStore store;
  BufferPool pool(&store, 4);
  auto ref = pool.New();
  ASSERT_TRUE(ref.ok());
  EXPECT_FALSE(pool.Free(ref.value().id()).ok());
}

// --- record codec -----------------------------------------------------------------

TEST(RecordCodecTest, RoundTrip) {
  RecordCodec codec(500);
  Record r = codec.MakeRecord(123, 456);
  std::vector<uint8_t> bytes = codec.Serialize(r);
  EXPECT_EQ(bytes.size(), 500u);
  Record back = codec.Deserialize(bytes.data());
  EXPECT_EQ(back, r);
}

TEST(RecordCodecTest, MakeRecordIsDeterministic) {
  RecordCodec codec(500);
  EXPECT_EQ(codec.MakeRecord(9, 1), codec.MakeRecord(9, 1));
  EXPECT_NE(codec.MakeRecord(9, 1).payload, codec.MakeRecord(10, 1).payload);
}

TEST(RecordCodecTest, ShortPayloadIsZeroPadded) {
  RecordCodec codec(64);
  Record r{1, 2, {0xAA, 0xBB}};
  std::vector<uint8_t> bytes = codec.Serialize(r);
  EXPECT_EQ(bytes[12], 0xAA);
  EXPECT_EQ(bytes[13], 0xBB);
  for (size_t i = 14; i < 64; ++i) EXPECT_EQ(bytes[i], 0);
}

TEST(RecordCodecTest, MinimalRecordSize) {
  RecordCodec codec(kRecordHeaderSize);
  Record r{42, 7, {}};
  std::vector<uint8_t> bytes = codec.Serialize(r);
  Record back = codec.Deserialize(bytes.data());
  EXPECT_EQ(back.id, 42u);
  EXPECT_EQ(back.key, 7u);
  EXPECT_TRUE(back.payload.empty());
}

// --- heap file ---------------------------------------------------------------------

class HeapFileTest : public ::testing::Test {
 protected:
  HeapFileTest() : pool_(&store_, 64), heap_(&pool_, 500) {}

  PageStore store_;
  BufferPool pool_;
  HeapFile heap_;
  RecordCodec codec_{500};
};

TEST_F(HeapFileTest, InsertGetRoundTrip) {
  Record r = codec_.MakeRecord(1, 100);
  std::vector<uint8_t> bytes = codec_.Serialize(r);
  auto rid = heap_.Insert(bytes.data());
  ASSERT_TRUE(rid.ok());
  std::vector<uint8_t> out(500);
  ASSERT_TRUE(heap_.Get(rid.value(), out.data()).ok());
  EXPECT_EQ(codec_.Deserialize(out.data()), r);
}

TEST_F(HeapFileTest, SlotsPerPageMatchesRecordSize) {
  // (4096 - 32) / 500 = 8 records per page, the paper's configuration.
  EXPECT_EQ(heap_.slots_per_page(), 8u);
}

TEST_F(HeapFileTest, FillsPagesBeforeAllocating) {
  std::vector<uint8_t> bytes(500);
  for (int i = 0; i < 8; ++i) {
    codec_.Serialize(codec_.MakeRecord(i + 1, i), bytes.data());
    ASSERT_TRUE(heap_.Insert(bytes.data()).ok());
  }
  EXPECT_EQ(heap_.PageCount(), 1u);
  codec_.Serialize(codec_.MakeRecord(9, 9), bytes.data());
  ASSERT_TRUE(heap_.Insert(bytes.data()).ok());
  EXPECT_EQ(heap_.PageCount(), 2u);
}

TEST_F(HeapFileTest, DeleteMakesSlotReusable) {
  std::vector<uint8_t> bytes(500);
  std::vector<Rid> rids;
  for (int i = 0; i < 8; ++i) {
    codec_.Serialize(codec_.MakeRecord(i + 1, i), bytes.data());
    rids.push_back(heap_.Insert(bytes.data()).value());
  }
  ASSERT_TRUE(heap_.Delete(rids[3]).ok());
  EXPECT_EQ(heap_.size(), 7u);
  codec_.Serialize(codec_.MakeRecord(100, 100), bytes.data());
  auto rid = heap_.Insert(bytes.data());
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ(rid.value(), rids[3]);  // hole is refilled
  EXPECT_EQ(heap_.PageCount(), 1u);
}

TEST_F(HeapFileTest, GetDeletedFails) {
  std::vector<uint8_t> bytes(500);
  codec_.Serialize(codec_.MakeRecord(1, 1), bytes.data());
  Rid rid = heap_.Insert(bytes.data()).value();
  ASSERT_TRUE(heap_.Delete(rid).ok());
  std::vector<uint8_t> out(500);
  EXPECT_EQ(heap_.Get(rid, out.data()).code(), StatusCode::kNotFound);
  EXPECT_EQ(heap_.Delete(rid).code(), StatusCode::kNotFound);
}

TEST_F(HeapFileTest, UpdateInPlace) {
  std::vector<uint8_t> bytes(500);
  codec_.Serialize(codec_.MakeRecord(1, 1), bytes.data());
  Rid rid = heap_.Insert(bytes.data()).value();
  Record changed = codec_.MakeRecord(1, 999);
  codec_.Serialize(changed, bytes.data());
  ASSERT_TRUE(heap_.Update(rid, bytes.data()).ok());
  std::vector<uint8_t> out(500);
  ASSERT_TRUE(heap_.Get(rid, out.data()).ok());
  EXPECT_EQ(codec_.Deserialize(out.data()), changed);
}

TEST_F(HeapFileTest, ScanVisitsExactlyLiveRecords) {
  std::vector<uint8_t> bytes(500);
  std::map<Rid, Record> expected;
  std::vector<Rid> rids;
  for (int i = 0; i < 30; ++i) {
    Record r = codec_.MakeRecord(i + 1, i * 10);
    codec_.Serialize(r, bytes.data());
    Rid rid = heap_.Insert(bytes.data()).value();
    expected[rid] = r;
    rids.push_back(rid);
  }
  for (int i = 0; i < 30; i += 3) {
    ASSERT_TRUE(heap_.Delete(rids[i]).ok());
    expected.erase(rids[i]);
  }

  std::map<Rid, Record> seen;
  ASSERT_TRUE(heap_
                  .Scan([&](Rid rid, const uint8_t* data) {
                    seen[rid] = codec_.Deserialize(data);
                  })
                  .ok());
  EXPECT_EQ(seen, expected);
}

TEST(HeapFileSmallRecordTest, BitmapLimitsSlots) {
  PageStore store;
  BufferPool pool(&store, 16);
  HeapFile heap(&pool, 22);  // smallest supported record
  // Slots are capped by the 24-byte bitmap (192 slots).
  EXPECT_LE(heap.slots_per_page(), 192u);
  EXPECT_GE(heap.slots_per_page(), 128u);
}

TEST(HeapFileStressTest, RandomInsertDeleteAgainstModel) {
  PageStore store;
  BufferPool pool(&store, 64);
  RecordCodec codec(100);
  HeapFile heap(&pool, 100);
  Rng rng(31337);

  std::map<Rid, Record> model;
  uint64_t next_id = 1;
  for (int step = 0; step < 3000; ++step) {
    if (model.empty() || rng.NextBool(0.6)) {
      Record r = codec.MakeRecord(next_id++, uint32_t(rng.NextBounded(1000)));
      std::vector<uint8_t> bytes = codec.Serialize(r);
      Rid rid = heap.Insert(bytes.data()).value();
      ASSERT_EQ(model.count(rid), 0u);
      model[rid] = r;
    } else {
      auto it = model.begin();
      std::advance(it, rng.NextBounded(model.size()));
      ASSERT_TRUE(heap.Delete(it->first).ok());
      model.erase(it);
    }
    ASSERT_EQ(heap.size(), model.size());
  }
  // Final consistency check.
  std::vector<uint8_t> out(100);
  for (const auto& [rid, record] : model) {
    ASSERT_TRUE(heap.Get(rid, out.data()).ok());
    EXPECT_EQ(codec.Deserialize(out.data()), record);
  }
}

// --- CRC-32 ----------------------------------------------------------------------

// The classic bytewise CRC-32 (reflected 0xEDB88320, built bit by bit): the
// reference the table-driven Crc32 must reproduce exactly, since the WAL and
// snapshot files on disk carry its values.
uint32_t ReferenceCrc32(const uint8_t* data, size_t len) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0u);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = uint8_t(rng.Next());
  return bytes;
}

TEST(Crc32Test, CheckValue) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check), 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  std::vector<uint8_t> bytes = RandomBytes(4096 + 8, 0xC2C);
  for (size_t align = 0; align < 8; ++align) {
    const uint8_t* base = bytes.data() + align;
    for (size_t len = 0; len <= 4096; ++len) {
      ASSERT_EQ(Crc32(base, len), ReferenceCrc32(base, len))
          << "len " << len << " align " << align;
    }
  }
}

TEST(Crc32Test, MatchesBytewiseReferenceOnAFiftyMegabyteBuffer) {
  std::vector<uint8_t> bytes = RandomBytes(50u << 20, 0x50);
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()),
            ReferenceCrc32(bytes.data(), bytes.size()));
}

TEST(Crc32Test, ContinuingACrcEqualsOneCrcOverBoth) {
  std::vector<uint8_t> bytes = RandomBytes(1000, 0xC0);
  const uint32_t whole = Crc32(bytes.data(), bytes.size());
  for (size_t split : {size_t(0), size_t(1), size_t(7), size_t(24),
                       size_t(513), size_t(1000)}) {
    EXPECT_EQ(Crc32(bytes.data() + split, bytes.size() - split,
                    Crc32(bytes.data(), split)),
              whole)
        << "split " << split;
  }
}

}  // namespace
}  // namespace sae::storage
