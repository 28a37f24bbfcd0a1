#pragma once
// Shared helpers for the reproduction benchmarks.
//
// Every bench binary prints (a) a paper-style results table for its
// experiment id (see DESIGN.md §4) and (b) optional google-benchmark
// micro-timings.  Speedups are reported as *work ratios* (points / ops from
// CostMeter) so the tables reproduce the paper's shape on any host;
// wall-clock columns are for reference only.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/clock.hpp"
#include "util/cost.hpp"

namespace mmir::bench {

/// Runs `fn` and returns its wall time measured on the project clock path
/// (obs::Clock via obs::ScopedTimer) — the same RAII timer behind CostMeter
/// and the engine's latency histograms, so bench numbers and engine metrics
/// are directly comparable.
template <typename Fn>
inline std::chrono::nanoseconds timed_ns(Fn&& fn) {
  std::chrono::nanoseconds elapsed{0};
  {
    const obs::ScopedTimer timer(elapsed);
    fn();
  }
  return elapsed;
}

inline double to_ms(std::chrono::nanoseconds ns) {
  return static_cast<double>(ns.count()) / 1e6;
}

/// Median of `samples` (sorts them in place; upper median for an even count).
inline double median(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

inline void heading(const std::string& experiment, const std::string& claim) {
  std::printf("\n==============================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("paper: %s\n", claim.c_str());
  std::printf("==============================================================================\n");
}

inline void footer() { std::printf("\n"); }

/// Ratio helper that tolerates zero denominators.
inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

inline double point_ratio(const CostMeter& baseline, const CostMeter& method) {
  return ratio(static_cast<double>(baseline.points()), static_cast<double>(method.points()));
}

inline double op_ratio(const CostMeter& baseline, const CostMeter& method) {
  return ratio(static_cast<double>(baseline.ops()), static_cast<double>(method.ops()));
}

}  // namespace mmir::bench
