// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Log-linear latency histogram: values (nanoseconds) below 2^kSubBits land
// in exact unit buckets; above that, every power-of-two octave is split
// into 2^kSubBits equal buckets, so a bucket is never wider than 1/128 of
// its value. Quantiles interpolate inside the bucket they fall in, so a
// reported median keeps its run-to-run variation instead of snapping to a
// bucket edge.

#ifndef PERFBENCH_HISTOGRAM_H_
#define PERFBENCH_HISTOGRAM_H_

#include <cstdint>
#include <vector>

namespace perfbench {

class Histogram {
 public:
  Histogram() : buckets_(kBuckets, 0) {}

  void Record(uint64_t ns) {
    ++buckets_[Index(ns)];
    ++count_;
  }

  void Merge(const Histogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
  }

  uint64_t count() const { return count_; }

  /// The q-quantile in milliseconds (0 when empty).
  double QuantileMs(double q) const {
    if (count_ == 0) return 0.0;
    double rank = q * double(count_ - 1);  // 0-based position
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (buckets_[i] == 0) continue;
      if (double(seen + buckets_[i]) > rank) {
        double within = (rank - double(seen) + 0.5) / double(buckets_[i]);
        return (double(Lower(i)) + within * double(Width(i))) / 1e6;
      }
      seen += buckets_[i];
    }
    return double(Lower(kBuckets - 1)) / 1e6;
  }

  /// A p99 is only a number with at least ten samples beyond it.
  bool P99Supported() const { return count_ >= 1000; }

 private:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSub = uint64_t(1) << kSubBits;
  static constexpr int kMaxShift = 32;  // octaves up to 2^40 ns (~18 min)
  static constexpr size_t kBuckets = size_t(kMaxShift + 2) * kSub;

  static size_t Index(uint64_t ns) {
    if (ns < kSub) return size_t(ns);
    int shift = 63 - __builtin_clzll(ns) - kSubBits;
    if (shift > kMaxShift) return kBuckets - 1;
    return size_t(shift + 1) * kSub + size_t((ns >> shift) & (kSub - 1));
  }
  static uint64_t Lower(size_t index) {
    if (index < kSub) return index;
    int shift = int(index / kSub) - 1;
    return (kSub + (index % kSub)) << shift;
  }
  static uint64_t Width(size_t index) {
    return index < kSub ? 1 : uint64_t(1) << (index / kSub - 1);
  }

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HISTOGRAM_H_
