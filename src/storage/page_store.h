// Copyright (c) saedb authors. Licensed under the MIT license.
//
// PageStore: the heap that holds every page of every index and heap file.
// Pages are in memory by design: the paper charges disk cost as 10 ms per
// node access, so the experiment harness models I/O by counting accesses
// rather than by timing the host's SSD. Durability is not a page-file
// concern; it comes from epoch snapshots plus the WAL (core/durability.h,
// storage/snapshot.h, storage/wal.h).

#ifndef SAE_STORAGE_PAGE_STORE_H_
#define SAE_STORAGE_PAGE_STORE_H_

#include <memory>
#include <vector>

#include "storage/page.h"
#include "util/status.h"

namespace sae::storage {

/// Page-granular heap storage with an allocate/free life cycle.
class PageStore {
 public:
  /// Allocates a zeroed page and returns its id (may reuse freed pages).
  Result<PageId> Allocate();

  /// Returns a page to the free list. Freeing an unallocated page is an
  /// error.
  Status Free(PageId id);

  Status Read(PageId id, Page* out) const;
  Status Write(PageId id, const Page& page);

  /// Pages currently allocated (live), excluding freed ones.
  size_t LivePageCount() const { return live_count_; }

  /// Total footprint in bytes (live pages * page size).
  size_t SizeBytes() const { return LivePageCount() * kPageSize; }

 private:
  bool IsLive(PageId id) const {
    return id < pages_.size() && pages_[id] != nullptr;
  }

  std::vector<std::unique_ptr<Page>> pages_;
  std::vector<PageId> free_list_;
  size_t live_count_ = 0;
};

}  // namespace sae::storage

#endif  // SAE_STORAGE_PAGE_STORE_H_
