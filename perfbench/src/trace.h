// Copyright (c) saedb authors. Licensed under the MIT license.
//
// In-memory span tracer for the traced benchmark run. A span records its
// name, start, end, the span that caused it (parent) and the request it
// belongs to; spans stay in per-thread buffers while the run measures and
// are analysed and written out only after it ends. The benchmark opens
// spans from its own code around each call into a saedb module, so the
// program under test is unmodified; the untraced run never touches this.
//
// A layer's self time is its span's duration minus the time its child
// spans cover. Children of one span always run sequentially on the same
// thread, so that is the parent's duration minus the sum of its children's.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "histogram.h"

namespace perfbench {

struct Span {
  const char* name;  // a string literal; spans compare names by content
  uint64_t request;  // 0: background work outside any request
  int64_t parent;    // index in the same thread's buffer; -1 for a root
  int64_t start_ns;
  int64_t end_ns;
};

class Tracer {
 public:
  /// The process-wide tracer; spans are recorded only while enabled.
  static Tracer& Get();

  void Enable() { enabled_.store(true, std::memory_order_release); }
  void Disable() { enabled_.store(false, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  /// Per-layer self time of every span name, over all threads. Call only
  /// after every thread that recorded spans has stopped.
  std::map<std::string, Histogram> SelfTimes() const;

  /// Sum over root spans named `root` of the time their children cover,
  /// divided by the roots' total duration (0 when there are none).
  double Coverage(const std::vector<std::string>& roots) const;

  /// Writes every span as one tab-separated line; false on I/O failure.
  bool WriteTsv(const std::string& path) const;

  size_t span_count() const;

 private:
  friend class ScopedSpan;
  struct Buffer {
    std::vector<Span> spans;
    int64_t open = -1;  // innermost open span
  };
  Buffer* ThreadBuffer();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span. A non-zero `request` starts a new root; otherwise the span
/// nests under the thread's innermost open span and inherits its request.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer::Buffer* buffer_ = nullptr;
  int64_t index_ = -1;
};

int64_t NowNs();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
