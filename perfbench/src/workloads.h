// Copyright (c) saedb authors. Licensed under the MIT license.
//
// One benchmark run of one workload: build the deployment from the seeded
// inputs, warm it, measure a closed-loop window, probe it with attacks,
// run its durable updates, cut the power and time recovery. The untraced
// run reports the end-to-end metrics; the traced run reports the
// per-layer ones (see BENCHMARK.json for the names).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;      // datasets capped at 20K records (self-test)
  std::string trace_out;   // where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  std::vector<std::string> lines;   // human-readable report
  std::vector<Metric> metrics;      // the JSON metrics, in order
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // any entry fails the correctness gate
};

RunReport RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
