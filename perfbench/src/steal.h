// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Host CPU steal time, read from the aggregate "cpu" line of /proc/stat.
// On a virtual machine whose host is oversubscribed, the hypervisor runs
// other guests on this guest's CPUs for seconds at a time; everything in
// such a stretch slows down, whatever the program does. The benchmark
// samples the stolen share over time and takes its rates and latencies
// over the quieter half of each phase's slices. Without /proc/stat every
// share reads 0, and every slice counts.

#ifndef PERFBENCH_STEAL_H_
#define PERFBENCH_STEAL_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "trace.h"

namespace perfbench {

class StealClock {
 public:
  /// Records the cumulative steal and total CPU ticks now. Called from one
  /// thread only.
  void Sample() {
    unsigned long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr) return;
    int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                        &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                        &v[7]);
    std::fclose(f);
    if (n != 8) return;
    uint64_t total = 0;
    for (unsigned long long x : v) total += x;
    points_.push_back(Point{NowNs(), v[7], total});
  }

  /// The stolen share of CPU time between two instants, from the samples
  /// that bracket them (0 when unknown).
  double Share(int64_t from_ns, int64_t to_ns) const {
    if (points_.size() < 2) return 0.0;
    size_t a = 0, b = points_.size() - 1;
    for (size_t i = 0; i < points_.size(); ++i) {
      if (points_[i].ns <= from_ns) a = i;
    }
    for (size_t i = points_.size(); i-- > 0;) {
      if (points_[i].ns >= to_ns) b = i;
    }
    if (b <= a || points_[b].total <= points_[a].total) return 0.0;
    return double(points_[b].steal - points_[a].steal) /
           double(points_[b].total - points_[a].total);
  }

 private:
  struct Point {
    int64_t ns;
    uint64_t steal;
    uint64_t total;
  };
  std::vector<Point> points_;
};

/// Indices of the quieter half (rounded up) of items with these stolen
/// shares; ties with the cut are kept, so equal shares keep everything.
inline std::vector<size_t> QuietHalf(const std::vector<double>& shares) {
  std::vector<size_t> keep;
  if (shares.empty()) return keep;
  std::vector<double> sorted = shares;
  std::sort(sorted.begin(), sorted.end());
  double cut = sorted[(sorted.size() - 1) / 2];
  for (size_t i = 0; i < shares.size(); ++i) {
    if (shares[i] <= cut) keep.push_back(i);
  }
  return keep;
}

}  // namespace perfbench

#endif  // PERFBENCH_STEAL_H_
