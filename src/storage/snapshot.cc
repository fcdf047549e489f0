// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the snapshot store (storage/snapshot.h): the temp-then-rename
// write protocol for full and delta files, the CRC-validated chain walk
// with fallback, and chain-aware keep-N GC.
//
// On-disk full-snapshot layout (little-endian):
//   [magic u32][version u32][epoch u64][payload_len u64]
//   [payload bytes][crc32 u32 over everything preceding]
// Delta layout adds the base epoch:
//   [magic u32][version u32][base u64][epoch u64][payload_len u64]
//   [payload bytes][crc32 u32 over everything preceding]

#include "storage/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <initializer_list>

#include "storage/wal.h"  // Crc32
#include "util/codec.h"

namespace sae::storage {

namespace {

constexpr uint32_t kSnapshotMagic = 0x53414553;  // "SAES"
constexpr uint32_t kDeltaMagic = 0x53414544;     // "SAED"
// Version 2 payloads end in the 20-byte record-digest XOR; version 1 ended
// in a length-prefixed root signature. Other versions are skipped like
// torn files, so a directory holding only version-1 images recovers as
// kNotFound (re-outsource from the owner) rather than as corruption.
constexpr uint32_t kSnapshotVersion = 2;
constexpr const char* kTmpName = "snap.tmp";
constexpr const char* kSnapPrefix = "snap-";
constexpr const char* kDeltaPrefix = "delta-";
constexpr size_t kEpochDigits = 20;  // zero-padded u64 — names sort by epoch

bool ParseDigits(const std::string& name, size_t pos, size_t count,
                 uint64_t* value) {
  uint64_t out = 0;
  for (size_t i = pos; i < pos + count; ++i) {
    if (i >= name.size() || name[i] < '0' || name[i] > '9') return false;
    out = out * 10 + uint64_t(name[i] - '0');
  }
  *value = out;
  return true;
}

/// Parses "snap-<20 digits>" into the epoch; false for any other name
/// (including the temp file and truncated/garbage names).
bool ParseSnapshotName(const std::string& name, uint64_t* epoch) {
  const size_t prefix = std::string(kSnapPrefix).size();
  if (name.size() != prefix + kEpochDigits) return false;
  if (name.compare(0, prefix, kSnapPrefix) != 0) return false;
  return ParseDigits(name, prefix, kEpochDigits, epoch);
}

/// Parses "delta-<20 digits>-<20 digits>" into (base, epoch).
bool ParseDeltaName(const std::string& name, uint64_t* base,
                    uint64_t* epoch) {
  const size_t prefix = std::string(kDeltaPrefix).size();
  if (name.size() != prefix + kEpochDigits + 1 + kEpochDigits) return false;
  if (name.compare(0, prefix, kDeltaPrefix) != 0) return false;
  if (name[prefix + kEpochDigits] != '-') return false;
  return ParseDigits(name, prefix, kEpochDigits, base) &&
         ParseDigits(name, prefix + kEpochDigits + 1, kEpochDigits, epoch);
}

/// The header fields an image must carry before its payload length: magic,
/// version, then the epoch(s) its file name states.
std::vector<uint8_t> HeaderPrefix(uint32_t magic,
                                  std::initializer_list<uint64_t> epochs) {
  ByteWriter w;
  w.PutU32(magic);
  w.PutU32(kSnapshotVersion);
  for (uint64_t epoch : epochs) w.PutU64(epoch);
  return w.Release();
}

/// Reads and validates the image at `path`: its header must be `prefix`
/// plus the u64 payload length, and the CRC-32 trailer must cover header ||
/// payload. The payload is read straight into its own buffer. Any mismatch
/// is kCorruption.
Result<std::vector<uint8_t>> ReadImage(Vfs* vfs, const std::string& path,
                                       const std::vector<uint8_t>& prefix) {
  SAE_ASSIGN_OR_RETURN(std::unique_ptr<VfsFile> file, vfs->Open(path, false));
  SAE_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  std::vector<uint8_t> header(prefix.size() + 8);
  if (size < header.size() + 4) return Status::Corruption("image is torn");
  SAE_ASSIGN_OR_RETURN(size_t got,
                       file->ReadAt(0, header.data(), header.size()));
  if (got < header.size()) return Status::Corruption("image is torn");
  if (!std::equal(prefix.begin(), prefix.end(), header.begin())) {
    return Status::Corruption("image header does not match its name");
  }
  const uint64_t payload_len = DecodeU64(header.data() + prefix.size());
  if (size - header.size() - 4 != payload_len) {
    return Status::Corruption("image length lies");
  }
  std::vector<uint8_t> payload(payload_len);
  uint8_t trailer[4];
  SAE_ASSIGN_OR_RETURN(got,
                       file->ReadAt(header.size(), payload.data(), payload_len));
  SAE_ASSIGN_OR_RETURN(size_t trailer_got,
                       file->ReadAt(size - 4, trailer, sizeof(trailer)));
  if (got < payload_len || trailer_got < sizeof(trailer)) {
    return Status::Corruption("image is torn");
  }
  if (Crc32(payload.data(), payload_len,
            Crc32(header.data(), header.size())) != DecodeU32(trailer)) {
    return Status::Corruption("image checksum mismatch");
  }
  return payload;
}

}  // namespace

SnapshotStore::SnapshotStore(Vfs* vfs, std::string dir, size_t keep)
    : vfs_(vfs), dir_(std::move(dir)), keep_(keep < 1 ? 1 : keep) {}

std::string SnapshotStore::PathFor(uint64_t epoch) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%s%020llu", kSnapPrefix,
                static_cast<unsigned long long>(epoch));
  return dir_ + "/" + name;
}

std::string SnapshotStore::DeltaPathFor(uint64_t base_epoch,
                                        uint64_t epoch) const {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%020llu-%020llu", kDeltaPrefix,
                static_cast<unsigned long long>(base_epoch),
                static_cast<unsigned long long>(epoch));
  return dir_ + "/" + name;
}

Status SnapshotStore::WriteImage(std::vector<uint8_t> header,
                                 const std::vector<uint8_t>& payload,
                                 const std::string& final_path) {
  SAE_RETURN_NOT_OK(vfs_->MkDir(dir_));
  header.resize(header.size() + 8);
  EncodeU64(header.data() + header.size() - 8, uint64_t(payload.size()));
  uint8_t trailer[4];
  EncodeU32(trailer, Crc32(payload.data(), payload.size(),
                           Crc32(header.data(), header.size())));
  // Temp-then-rename: content becomes durable at the Sync, the name at the
  // Rename. A crash before the rename leaves only snap.tmp (ignored by the
  // name parsers); a crash after it leaves a complete file. The file is
  // sized once and its three parts written in place, so the payload is
  // never copied into a second image buffer.
  const std::string tmp = dir_ + "/" + kTmpName;
  {
    SAE_ASSIGN_OR_RETURN(std::unique_ptr<VfsFile> file, vfs_->Open(tmp, true));
    const uint64_t at = header.size() + payload.size();
    SAE_RETURN_NOT_OK(file->Truncate(at + sizeof(trailer)));
    SAE_RETURN_NOT_OK(file->WriteAt(0, header.data(), header.size()));
    SAE_RETURN_NOT_OK(
        file->WriteAt(header.size(), payload.data(), payload.size()));
    SAE_RETURN_NOT_OK(file->WriteAt(at, trailer, sizeof(trailer)));
    SAE_RETURN_NOT_OK(file->Sync());
  }
  return vfs_->Rename(tmp, final_path);
}

Status SnapshotStore::Write(uint64_t epoch,
                            const std::vector<uint8_t>& payload) {
  SAE_RETURN_NOT_OK(WriteImage(HeaderPrefix(kSnapshotMagic, {epoch}), payload,
                               PathFor(epoch)));

  // Chain GC: a new full snapshot completes the previous chain. Keep the
  // newest keep_ fulls and every delta at or above the oldest kept full
  // (those are the kept chains' links); everything below belongs to a
  // retired chain. Runs after the rename so a crash during GC can only
  // lose already-redundant files.
  SAE_ASSIGN_OR_RETURN(std::vector<uint64_t> epochs, ListEpochs());
  if (epochs.size() > keep_) {
    uint64_t cutoff = epochs[epochs.size() - keep_];
    for (size_t i = 0; i + keep_ < epochs.size(); ++i) {
      SAE_RETURN_NOT_OK(vfs_->Remove(PathFor(epochs[i])));
    }
    SAE_ASSIGN_OR_RETURN(auto links, ListDeltaLinks());
    for (const auto& [base, delta_epoch] : links) {
      if (delta_epoch < cutoff) {
        SAE_RETURN_NOT_OK(vfs_->Remove(DeltaPathFor(base, delta_epoch)));
      }
    }
  }
  return Status::OK();
}

Status SnapshotStore::WriteDelta(uint64_t base_epoch, uint64_t epoch,
                                 const std::vector<uint8_t>& payload) {
  return WriteImage(HeaderPrefix(kDeltaMagic, {base_epoch, epoch}), payload,
                    DeltaPathFor(base_epoch, epoch));
}

Result<std::vector<uint64_t>> SnapshotStore::ListEpochs() const {
  std::vector<uint64_t> epochs;
  SAE_ASSIGN_OR_RETURN(std::vector<std::string> names, vfs_->List(dir_));
  for (const std::string& name : names) {
    uint64_t epoch = 0;
    if (ParseSnapshotName(name, &epoch)) epochs.push_back(epoch);
  }
  std::sort(epochs.begin(), epochs.end());
  return epochs;
}

Result<std::vector<std::pair<uint64_t, uint64_t>>>
SnapshotStore::ListDeltaLinks() const {
  std::vector<std::pair<uint64_t, uint64_t>> links;
  SAE_ASSIGN_OR_RETURN(std::vector<std::string> names, vfs_->List(dir_));
  for (const std::string& name : names) {
    uint64_t base = 0, epoch = 0;
    if (ParseDeltaName(name, &base, &epoch)) links.emplace_back(base, epoch);
  }
  std::sort(links.begin(), links.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  return links;
}

Result<SnapshotStore::Loaded> SnapshotStore::LoadLatest() const {
  SAE_ASSIGN_OR_RETURN(std::vector<uint64_t> epochs, ListEpochs());
  // Newest first; any file that fails validation is skipped in favor of
  // the next-newest (the keep >= 2 fallback).
  for (size_t attempt = 0; attempt < epochs.size(); ++attempt) {
    uint64_t epoch = epochs[epochs.size() - 1 - attempt];
    auto payload =
        ReadImage(vfs_, PathFor(epoch), HeaderPrefix(kSnapshotMagic, {epoch}));
    if (payload.status().code() == StatusCode::kCorruption ||
        payload.status().code() == StatusCode::kNotFound) {
      continue;
    }
    SAE_RETURN_NOT_OK(payload.status());
    return Loaded{epoch, std::move(payload.value()), attempt > 0};
  }
  return Status::NotFound("no valid snapshot in " + dir_);
}

Result<std::vector<uint8_t>> SnapshotStore::ReadDelta(uint64_t base_epoch,
                                                      uint64_t epoch) const {
  if (base_epoch >= epoch) {
    // A delta must advance the epoch. The writer never produces base >=
    // epoch; a file claiming it (self-link or backward link) is an on-disk
    // adversary or a corrupt name, and accepting it could stall the chain
    // walk on a link that never moves the cursor forward.
    return Status::Corruption("delta does not advance its base epoch");
  }
  return ReadImage(vfs_, DeltaPathFor(base_epoch, epoch),
                   HeaderPrefix(kDeltaMagic, {base_epoch, epoch}));
}

Result<SnapshotStore::LoadedChain> SnapshotStore::LoadChain() const {
  SAE_ASSIGN_OR_RETURN(Loaded base, LoadLatest());
  LoadedChain chain;
  chain.base_epoch = base.epoch;
  chain.base_payload = std::move(base.payload);
  chain.fell_back = base.fell_back;

  SAE_ASSIGN_OR_RETURN(auto links, ListDeltaLinks());
  uint64_t cursor = chain.base_epoch;
  for (;;) {
    // Candidates linking onto the current tail, oldest epoch first — the
    // original chain wrote exactly one; a second can only appear after a
    // fallback re-chained from an older tail, and then only because the
    // first was invalid.
    bool advanced = false;
    bool saw_candidate = false;
    for (const auto& [link_base, link_epoch] : links) {
      // Only links that strictly advance the cursor can extend the chain:
      // a self-link (base == epoch) or backward link would otherwise be
      // re-visited forever. With every accepted step strictly increasing
      // `cursor`, the walk terminates even against adversarial file names.
      if (link_base != cursor || link_epoch <= link_base) continue;
      saw_candidate = true;
      auto payload = ReadDelta(link_base, link_epoch);
      if (!payload.ok()) {
        if (payload.status().code() == StatusCode::kCorruption ||
            payload.status().code() == StatusCode::kNotFound) {
          continue;  // never compose past a bad link; try a sibling
        }
        return payload.status();
      }
      chain.deltas.push_back(
          ChainLink{link_base, link_epoch, std::move(payload.value())});
      cursor = link_epoch;
      advanced = true;
      break;
    }
    if (!advanced) {
      // A candidate existed but none validated: the chain is cut short of
      // what was once written — recovery comes back older, and the client
      // freshness gate surfaces the difference as kStaleEpoch.
      if (saw_candidate) chain.fell_back = true;
      break;
    }
  }
  return chain;
}

}  // namespace sae::storage
