// Copyright (c) saedb authors. Licensed under the MIT license.

#include "trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer* Tracer::ThreadBuffer() {
  // Buffers live as long as the tracer, so a cached pointer stays valid
  // for the thread's whole life.
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->spans.reserve(1 << 16);
    buffer = buffers_.back().get();
  }
  return buffer;
}

ScopedSpan::ScopedSpan(const char* name, uint64_t request) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  buffer_ = tracer.ThreadBuffer();
  int64_t parent = request != 0 ? -1 : buffer_->open;
  uint64_t req =
      parent >= 0 ? buffer_->spans[size_t(parent)].request : request;
  index_ = int64_t(buffer_->spans.size());
  buffer_->spans.push_back(Span{name, req, parent, NowNs(), 0});
  buffer_->open = index_;
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) return;
  Span& span = buffer_->spans[size_t(index_)];
  span.end_ns = NowNs();
  buffer_->open = span.parent;
}

namespace {

// Sum of each span's direct children's durations, per buffer index.
std::vector<int64_t> ChildTime(const std::vector<Span>& spans) {
  std::vector<int64_t> child(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0 && span.end_ns != 0) {
      child[size_t(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  return child;
}

}  // namespace

std::map<std::string, Histogram> Tracer::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, Histogram> out;
  for (const auto& buffer : buffers_) {
    std::vector<int64_t> child = ChildTime(buffer->spans);
    for (size_t i = 0; i < buffer->spans.size(); ++i) {
      const Span& span = buffer->spans[i];
      if (span.end_ns == 0) continue;  // still open: not a finished call
      int64_t self = span.end_ns - span.start_ns - child[i];
      out[span.name].Record(uint64_t(self > 0 ? self : 0));
    }
  }
  return out;
}

double Tracer::Coverage(const std::vector<std::string>& roots) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0, covered = 0.0;
  for (const auto& buffer : buffers_) {
    std::vector<int64_t> child = ChildTime(buffer->spans);
    for (size_t i = 0; i < buffer->spans.size(); ++i) {
      const Span& span = buffer->spans[i];
      if (span.parent >= 0 || span.end_ns == 0) continue;
      bool is_root = false;
      for (const std::string& root : roots) is_root |= root == span.name;
      if (!is_root) continue;
      total += double(span.end_ns - span.start_ns);
      covered += double(child[i]);
    }
  }
  return total > 0.0 ? covered / total : 0.0;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread\tindex\tparent\trequest\tname\tstart_ns\tdur_ns\n");
  for (size_t t = 0; t < buffers_.size(); ++t) {
    const std::vector<Span>& spans = buffers_[t]->spans;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu\t%zu\t%lld\t%llu\t%s\t%lld\t%lld\n", t, i,
                   (long long)s.parent, (unsigned long long)s.request, s.name,
                   (long long)s.start_ns,
                   (long long)(s.end_ns == 0 ? -1 : s.end_ns - s.start_ns));
    }
  }
  return std::fclose(f) == 0;
}

size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->spans.size();
  return n;
}

}  // namespace perfbench
