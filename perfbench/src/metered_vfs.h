// Copyright (c) saedb authors. Licensed under the MIT license.
//
// A storage::Vfs decorator that counts what the durable write path asks of
// the device: syncs, bytes written (WAL segments separately), and
// - in the traced run - a span around every Sync() and Rename() so their
// wait shows as per-layer time. It forwards every call unchanged to the wrapped Vfs
// (a storage::FaultFs in this benchmark).

#ifndef PERFBENCH_METERED_VFS_H_
#define PERFBENCH_METERED_VFS_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "storage/vfs.h"
#include "trace.h"

namespace perfbench {

struct VfsCounters {
  uint64_t syncs = 0;
  uint64_t bytes_written = 0;
  uint64_t wal_bytes_written = 0;

  friend VfsCounters operator-(VfsCounters a, const VfsCounters& b) {
    a.syncs -= b.syncs;
    a.bytes_written -= b.bytes_written;
    a.wal_bytes_written -= b.wal_bytes_written;
    return a;
  }
};

class MeteredVfs final : public sae::storage::Vfs {
 public:
  explicit MeteredVfs(sae::storage::Vfs* base) : base_(base) {}

  VfsCounters counters() const {
    VfsCounters c;
    c.syncs = syncs_.load(std::memory_order_relaxed);
    c.bytes_written = bytes_.load(std::memory_order_relaxed);
    c.wal_bytes_written = wal_bytes_.load(std::memory_order_relaxed);
    return c;
  }

  sae::Result<std::unique_ptr<sae::storage::VfsFile>> Open(
      const std::string& path, bool create) override {
    auto file = base_->Open(path, create);
    if (!file.ok()) return file.status();
    bool wal = path.rfind("wal-") != std::string::npos;
    return std::unique_ptr<sae::storage::VfsFile>(
        new File(this, std::move(file).ValueOrDie(), wal));
  }
  bool Exists(const std::string& path) const override {
    return base_->Exists(path);
  }
  sae::Status Rename(const std::string& from, const std::string& to) override {
    ScopedSpan span("storage.vfs.rename");
    return base_->Rename(from, to);
  }
  sae::Status Remove(const std::string& path) override {
    return base_->Remove(path);
  }
  sae::Result<std::vector<std::string>> List(
      const std::string& dir) const override {
    return base_->List(dir);
  }
  sae::Status MkDir(const std::string& path) override {
    return base_->MkDir(path);
  }

 private:
  class File final : public sae::storage::VfsFile {
   public:
    File(MeteredVfs* vfs, std::unique_ptr<sae::storage::VfsFile> base,
         bool wal)
        : vfs_(vfs), base_(std::move(base)), wal_(wal) {}

    sae::Result<size_t> ReadAt(uint64_t offset, uint8_t* buf,
                               size_t n) const override {
      return base_->ReadAt(offset, buf, n);
    }
    sae::Status WriteAt(uint64_t offset, const uint8_t* buf,
                        size_t n) override {
      vfs_->CountWrite(n, wal_);
      return base_->WriteAt(offset, buf, n);
    }
    sae::Status Append(const uint8_t* buf, size_t n) override {
      vfs_->CountWrite(n, wal_);
      return base_->Append(buf, n);
    }
    sae::Result<uint64_t> Size() const override { return base_->Size(); }
    sae::Status Truncate(uint64_t size) override {
      return base_->Truncate(size);
    }
    sae::Status Sync() override {
      vfs_->syncs_.fetch_add(1, std::memory_order_relaxed);
      ScopedSpan span("storage.vfs.sync");
      return base_->Sync();
    }

   private:
    MeteredVfs* vfs_;
    std::unique_ptr<sae::storage::VfsFile> base_;
    bool wal_;
  };

  void CountWrite(size_t n, bool wal) {
    bytes_.fetch_add(n, std::memory_order_relaxed);
    if (wal) wal_bytes_.fetch_add(n, std::memory_order_relaxed);
  }

  sae::storage::Vfs* base_;
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> wal_bytes_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_METERED_VFS_H_
