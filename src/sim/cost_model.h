// Copyright (c) saedb authors. Licensed under the MIT license.
//
// The paper's processing-cost model: "we charge 10 milli-seconds for each
// node access" (§IV). Wall-clock CPU time (hashing, XOR, signatures) is
// measured separately with Stopwatch and added where the paper does.

#ifndef SAE_SIM_COST_MODEL_H_
#define SAE_SIM_COST_MODEL_H_

#include <chrono>
#include <cstdint>

namespace sae::sim {

struct CostModel {
  double ms_per_node_access = 10.0;

  double AccessCostMs(uint64_t node_accesses) const {
    return double(node_accesses) * ms_per_node_access;
  }
};

/// Monotonic wall-clock stopwatch reporting milliseconds.
class Stopwatch {
 public:
  Stopwatch() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

  /// Elapsed milliseconds, then restarts: one phase of a multi-phase run.
  double LapMs() {
    const double ms = ElapsedMs();
    Restart();
    return ms;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace sae::sim

#endif  // SAE_SIM_COST_MODEL_H_
