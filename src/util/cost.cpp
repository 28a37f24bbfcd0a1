#include "util/cost.hpp"

#include <limits>
#include <ostream>

namespace mmir {

namespace {
double ratio(double num, double den) noexcept {
  if (den <= 0.0) return num > 0.0 ? std::numeric_limits<double>::infinity() : 1.0;
  return num / den;
}
}  // namespace

std::ostream& operator<<(std::ostream& os, const CostMeter& meter) {
  os << "points " << meter.points() << ", ops " << meter.ops() << ", bytes " << meter.bytes()
     << ", pruned " << meter.pruned() << ", wall " << meter.wall_ms() << "ms";
  if (meter.cache_hits() + meter.cache_misses() > 0) {
    const double total = static_cast<double>(meter.cache_hits() + meter.cache_misses());
    os << ", cache " << meter.cache_hits() << " hit / " << meter.cache_misses() << " miss ("
       << (static_cast<double>(meter.cache_hits()) / total * 100.0) << "% hit)";
  }
  return os;
}

MeterCounters::MeterCounters(obs::MetricsRegistry& registry)
    : points_(registry.counter("query_points_total")),
      ops_(registry.counter("query_ops_total")),
      bytes_(registry.counter("query_bytes_total")),
      pruned_(registry.counter("query_pruned_total")),
      cache_hits_(registry.counter("cache_hits_total")),
      cache_misses_(registry.counter("cache_misses_total")) {}

void MeterCounters::publish(const CostMeter& meter) const noexcept {
  points_.add(meter.points());
  ops_.add(meter.ops());
  bytes_.add(meter.bytes());
  pruned_.add(meter.pruned());
  cache_hits_.add(meter.cache_hits());
  cache_misses_.add(meter.cache_misses());
}

double SpeedupReport::point_speedup() const noexcept {
  return ratio(static_cast<double>(baseline.points()), static_cast<double>(method.points()));
}

double SpeedupReport::op_speedup() const noexcept {
  return ratio(static_cast<double>(baseline.ops()), static_cast<double>(method.ops()));
}

double SpeedupReport::wall_speedup() const noexcept {
  return ratio(baseline.wall_ms(), method.wall_ms());
}

std::ostream& operator<<(std::ostream& os, const SpeedupReport& report) {
  os << report.label << ": points " << report.baseline.points() << " -> "
     << report.method.points() << " (" << report.point_speedup() << "x), ops "
     << report.baseline.ops() << " -> " << report.method.ops() << " (" << report.op_speedup()
     << "x), wall " << report.baseline.wall_ms() << "ms -> " << report.method.wall_ms() << "ms ("
     << report.wall_speedup() << "x)";
  return os;
}

}  // namespace mmir
