// servebench — the repository's serving benchmark (see README.md here).
//
// Drives the archive service from outside, through the entry points the
// roadmap keeps: QueryEngine::submit, the QueryContext overloads of the
// serial core executors, net::Router / net::ShardServer, OnionIndex::top_k
// and fast_sproc_top_k.  One process runs one seeded workload:
//
//   cold_scan    3 closed-loop clients, 3 dispatchers, every model distinct
//   hot_service  1 generator keeping 8 queries outstanding, all cache hits
//   fleet        1 client alternating in-process sharded and routed scans
//   batch_burst  bursts of 48 cold full scans through the batch executor
//
// The timed phase repeats a fixed per-seed round shape until --seconds have
// passed; every metric is computed per round and reported as the median over
// rounds, with min / quartiles / max printed beside it.  Answers are checked
// against serial oracles after the timed phase.  --trace 1 runs the layer
// ladder instead: untraced and traced rounds alternate (the traced ones wrap
// every call in benchmark-owned spans and use an engine with a tracer), then
// the serial layers are timed directly on the workload's own queries.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}.  Any error exits non-zero without printing it.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "archive/sharded.hpp"
#include "archive/tiled.hpp"
#include "core/progressive_exec.hpp"
#include "core/raster_model.hpp"
#include "data/scene.hpp"
#include "data/tuples.hpp"
#include "data/welllog.hpp"
#include "engine/scheduler.hpp"
#include "index/onion.hpp"
#include "index/seqscan.hpp"
#include "knowledge/strata.hpp"
#include "linear/model.hpp"
#include "linear/progressive.hpp"
#include "net/router.hpp"
#include "net/shard_server.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sproc/brute.hpp"
#include "sproc/fast_sproc.hpp"
#include "util/rng.hpp"

#ifndef SERVEBENCH_CXX
#define SERVEBENCH_CXX "unknown"
#endif
#ifndef SERVEBENCH_FLAGS
#define SERVEBENCH_FLAGS "unknown"
#endif

namespace {

using namespace mmir;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kTopK = 10;
constexpr int kSetupRepetitions = 5;
constexpr std::uint64_t kCheckedRounds = 64;
constexpr std::uint64_t kWarmRound = ~std::uint64_t{0};  ///< round ids used for warm-up

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double ms_of(std::chrono::nanoseconds d) { return static_cast<double>(d.count()) / 1e6; }
double ms_between(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e3;
}
double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// ------------------------------------------------------------------ statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Quartile `which` (1 or 3) of sorted data, as Python's
/// statistics.quantiles(data, n=4) computes it (exclusive method).
double quartile(const std::vector<double>& sorted, int which) {
  const long n = static_cast<long>(sorted.size());
  if (n == 0) return 0.0;
  if (n == 1) return sorted[0];
  const long m = n + 1;
  const long j = std::clamp<long>(which * m / 4, 1, n - 1);
  const long delta = which * m - j * 4;
  return (sorted[j - 1] * static_cast<double>(4 - delta) +
          sorted[j] * static_cast<double>(delta)) / 4.0;
}

/// The highest order statistic with at least ten samples beyond it, and the
/// percentile it sits at; the maximum when fewer than eleven samples exist.
double tail_of(std::vector<double> v, double* percentile = nullptr) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t idx = n > 10 ? n - 11 : n - 1;
  if (percentile != nullptr) {
    *percentile = n > 10 ? 100.0 * static_cast<double>(n - 10) / static_cast<double>(n) : 100.0;
  }
  return v[idx];
}

struct Spread {
  double median = 0.0, min = 0.0, q1 = 0.0, q3 = 0.0, max = 0.0;
  std::size_t n = 0;
};

Spread spread_of(std::vector<double> v) {
  Spread s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.median = median(v);
  s.min = v.front();
  s.max = v.back();
  s.q1 = quartile(v, 1);
  s.q3 = quartile(v, 3);
  return s;
}

// ------------------------------------------------------- benchmark-owned spans

/// In-memory span log of the traced run: name, start, end, parent, query id.
/// Written as JSON lines at exit.
class SpanLog {
 public:
  static constexpr std::int64_t kRoot = -1;
  /// Spans kept; later ones are counted, not stored (hot_service traces
  /// hundreds of thousands of queries).
  static constexpr std::size_t kCapacity = 50000;

  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  std::int64_t add(std::string name, std::uint64_t query_id, std::int64_t parent,
                   Clock::time_point start, Clock::time_point end) {
    return add_ns(std::move(name), query_id, parent, offset(start), offset(end));
  }
  std::int64_t add_ns(std::string name, std::uint64_t query_id, std::int64_t parent,
                      std::int64_t start_ns, std::int64_t end_ns) {
    if (!enabled_) return kRoot;
    const std::lock_guard<std::mutex> lock(mutex_);
    if (spans_.size() >= kCapacity) {
      ++dropped_;
      return kRoot;
    }
    spans_.push_back(Record{std::move(name), query_id, parent, start_ns, end_ns});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  [[nodiscard]] std::int64_t offset(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Record& r = spans_[i];
      out << "{\"id\": " << i << ", \"name\": \"" << r.name << "\", \"query\": " << r.query_id
          << ", \"parent\": " << r.parent << ", \"start_ns\": " << r.start_ns
          << ", \"end_ns\": " << r.end_ns << "}\n";
    }
    return static_cast<bool>(out);
  }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }

 private:
  struct Record {
    std::string name;
    std::uint64_t query_id = 0;
    std::int64_t parent = kRoot;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::mutex mutex_;
  std::vector<Record> spans_;
  std::size_t dropped_ = 0;
};

/// Share of each root span that none of its direct children covers, summed
/// over traces: {uncovered ns, root ns}.
std::pair<double, double> unattributed_ns(const obs::Trace& trace) {
  const std::vector<obs::SpanRecord> spans = trace.spans();
  double uncovered = 0.0;
  double total = 0.0;
  for (std::size_t r = 0; r < spans.size(); ++r) {
    if (spans[r].parent != obs::kNoSpan || !spans[r].closed) continue;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> kids;
    for (const obs::SpanRecord& s : spans) {
      if (s.parent == r && s.closed) kids.emplace_back(s.start_ns, s.start_ns + s.duration_ns);
    }
    std::sort(kids.begin(), kids.end());
    const std::uint64_t lo = spans[r].start_ns;
    const std::uint64_t hi = lo + spans[r].duration_ns;
    std::uint64_t covered = 0;
    std::uint64_t cursor = lo;
    for (const auto& [a, b] : kids) {
      const std::uint64_t s = std::max(a, cursor);
      const std::uint64_t e = std::min(b, hi);
      if (e > s) {
        covered += e - s;
        cursor = e;
      }
    }
    total += static_cast<double>(hi - lo);
    uncovered += static_cast<double>(hi - lo - std::min(covered, hi - lo));
  }
  return {uncovered, total};
}

// ------------------------------------------------------------- workload inputs

enum class Cls : std::uint8_t { kScan = 0, kCombined, kOnion, kComposite, kRouted };
constexpr std::size_t kClasses = 5;
constexpr const char* kClassNames[kClasses] = {"scan", "combined", "onion", "composite",
                                               "routed"};

struct RasterScene {
  Scene scene;
  std::vector<const Grid*> bands;
  std::vector<Interval> ranges;
  std::unique_ptr<TiledArchive> archive;
};

std::unique_ptr<RasterScene> make_raster_scene(std::size_t size, std::uint64_t seed,
                                               std::size_t tile) {
  auto rs = std::make_unique<RasterScene>();
  SceneConfig cfg;
  cfg.width = size;
  cfg.height = size;
  cfg.seed = seed;
  rs->scene = generate_scene(cfg);
  rs->bands = {&rs->scene.band("b4"), &rs->scene.band("b5"), &rs->scene.band("b7"),
               &rs->scene.dem};
  for (const Grid* band : rs->bands) rs->ranges.push_back(band->stats().range());
  rs->archive = std::make_unique<TiledArchive>(rs->bands, tile);
  return rs;
}

/// The HPS risk weights, each scaled by a seeded factor in [0.7, 1.3]: every
/// query is a different model, so cold traffic is cold for honest reasons.
LinearModel perturbed_hps(Rng& rng) {
  const LinearModel base = hps_risk_model();
  std::vector<double> w(base.weights().begin(), base.weights().end());
  for (double& x : w) x *= rng.uniform(0.7, 1.3);
  return LinearModel(std::move(w), base.bias(), {"b4", "b5", "b7", "elevation_m"});
}

std::vector<double> perturbed_credit(Rng& rng) {
  const LinearModel base = fico_score_model();
  std::vector<double> w(base.weights().begin(), base.weights().end());
  for (double& x : w) x *= rng.uniform(0.7, 1.3);
  return w;
}

/// A riverbed rule around the §3.3 example, loosened so most wells match.
RiverbedRule perturbed_rule(Rng& rng) {
  RiverbedRule rule;
  rule.gamma_threshold_api = rng.uniform(30.0, 40.0);
  rule.gamma_softness_api = rng.uniform(8.0, 12.0);
  rule.max_gap_ft = rng.uniform(30.0, 50.0);
  rule.min_thickness_ft = rng.uniform(1.5, 2.5);
  return rule;
}

struct RasterQ {
  std::size_t scene = 0;
  LinearRasterModel flat;
  ProgressiveLinearModel staged;
  RasterQ(std::size_t s, const LinearModel& model, const std::vector<Interval>& ranges)
      : scene(s), flat(model), staged(model, ranges) {}
};
struct OnionQ {
  std::vector<double> weights;
};
struct CompQ {
  std::size_t well = 0;
  RiverbedRule rule;
  CartesianQuery query;
};

struct Item {
  Cls cls = Cls::kScan;
  const RasterQ* raster = nullptr;
  const OnionQ* onion = nullptr;
  const CompQ* comp = nullptr;
  bool sampled = false;  ///< answer kept for the oracle
};

/// One round's queries; owns the models its items point at (hot_service's
/// items point into the workload's fixed set instead).
struct Round {
  std::uint64_t id = 0;
  std::vector<std::unique_ptr<RasterQ>> raster;
  std::vector<std::unique_ptr<OnionQ>> onion;
  std::vector<std::unique_ptr<CompQ>> comp;
  std::vector<Item> items;
};

void shuffle_items(std::vector<Item>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.uniform_int(i)]);
  }
}

/// Marks `per_class` seeded items of every class for the oracle.
void mark_samples(std::vector<Item>& items, std::size_t per_class, Rng& rng) {
  for (std::size_t c = 0; c < kClasses; ++c) {
    std::vector<std::size_t> of_class;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (static_cast<std::size_t>(items[i].cls) == c) of_class.push_back(i);
    }
    for (std::size_t pick = 0; pick < per_class && !of_class.empty(); ++pick) {
      const std::size_t j = rng.uniform_int(of_class.size());
      items[of_class[j]].sampled = true;
      of_class.erase(of_class.begin() + static_cast<long>(j));
    }
  }
}

// ------------------------------------------------------------ per-query record

struct Sample {
  Cls cls = Cls::kScan;
  double latency_ms = 0.0;  ///< client: submit to answer in hand
  double queue_ms = 0.0;    ///< OutcomeInfo::queue_wait (engine queries)
  double exec_ms = 0.0;     ///< OutcomeInfo::exec_time (engine queries)
  bool engine = false;
  bool cache_hit = false;
  bool complete = false;
  std::uint64_t wire_bytes = 0;    ///< routed queries
  double leg_overhead_frac = -1.0; ///< routed queries in traced rounds
};

/// A sampled answer kept for the oracle, with what the oracle needs to
/// recompute it.
struct Check {
  Cls cls = Cls::kScan;
  std::uint64_t round = 0;
  std::size_t scene = 0;
  std::optional<LinearModel> model;
  std::vector<double> weights;
  std::size_t well = 0;
  RiverbedRule rule;
  RasterTopK raster;
  OnionTopK onion;
  CompositeTopK comp;
};

struct RoundLog {
  bool traced = false;
  double wall_s = 0.0;
  std::vector<Sample> samples;
  std::vector<Check> checks;
  std::vector<double> burst_member_ms;  ///< batch_burst: burst wall / members
  double unattributed_ns[kClasses] = {};  ///< engine traces, traced rounds
  double root_ns[kClasses] = {};
};

/// What the report needs from one round; the samples themselves are dropped
/// once summarized, so memory does not grow with the number of rounds.
struct ClassRound {
  std::size_t count = 0, hits = 0, incomplete = 0;
  double p50 = 0.0, tail = 0.0, tail_pct = 0.0;  ///< client latency, ms
  double queue_p50 = 0.0, exec_p50 = 0.0;        ///< engine figures, ms
  double handoff_p50_us = 0.0;                   ///< latency - queue - exec
};

struct RoundStats {
  bool traced = false;
  double wall_s = 0.0;
  std::size_t queries = 0;
  ClassRound cls[kClasses];
  double wire_bytes = 0.0, routed = 0.0;
  std::vector<double> leg_overhead_frac;
  std::vector<double> burst_member_ms;
  double unattributed_ns[kClasses] = {};
  double root_ns[kClasses] = {};
};

RoundStats summarize(const RoundLog& log) {
  RoundStats st;
  st.traced = log.traced;
  st.wall_s = log.wall_s;
  st.queries = log.samples.size();
  st.burst_member_ms = log.burst_member_ms;
  std::copy(std::begin(log.unattributed_ns), std::end(log.unattributed_ns), st.unattributed_ns);
  std::copy(std::begin(log.root_ns), std::end(log.root_ns), st.root_ns);
  for (std::size_t c = 0; c < kClasses; ++c) {
    std::vector<double> lat, queue, exec, handoff;
    ClassRound& cr = st.cls[c];
    for (const Sample& s : log.samples) {
      if (static_cast<std::size_t>(s.cls) != c) continue;
      ++cr.count;
      if (s.cache_hit) ++cr.hits;
      if (!s.complete) ++cr.incomplete;
      lat.push_back(s.latency_ms);
      if (s.engine) {
        queue.push_back(s.queue_ms);
        exec.push_back(s.exec_ms);
        handoff.push_back((s.latency_ms - s.queue_ms - s.exec_ms) * 1e3);
      }
      if (s.cls == Cls::kRouted) {
        st.wire_bytes += static_cast<double>(s.wire_bytes);
        st.routed += 1.0;
        if (s.leg_overhead_frac >= 0.0) st.leg_overhead_frac.push_back(s.leg_overhead_frac);
      }
    }
    cr.p50 = median(lat);
    cr.tail = tail_of(lat, &cr.tail_pct);
    cr.queue_p50 = median(queue);
    cr.exec_p50 = median(exec);
    cr.handoff_p50_us = median(handoff);
  }
  return st;
}

/// Median over the untraced rounds of one per-round class figure.
double untraced_median(const std::vector<RoundStats>& rounds, Cls cls,
                       double ClassRound::*field) {
  std::vector<double> v;
  for (const RoundStats& r : rounds) {
    const ClassRound& cr = r.cls[static_cast<int>(cls)];
    if (!r.traced && cr.count > 0) v.push_back(cr.*field);
  }
  return median(v);
}

void keep_check(const Item& item, std::uint64_t round, RoundLog& log, std::mutex& mu,
                Check check) {
  if (!item.sampled) return;
  check.cls = item.cls;
  check.round = round;
  if (item.raster != nullptr) {
    check.scene = item.raster->scene;
    check.model = item.raster->flat.linear();
  }
  if (item.onion != nullptr) check.weights = item.onion->weights;
  if (item.comp != nullptr) {
    check.well = item.comp->well;
    check.rule = item.comp->rule;
  }
  const std::lock_guard<std::mutex> lock(mu);
  log.checks.push_back(std::move(check));
}

/// Adds the engine's own query trace (traced rounds only) to the round's
/// unattributed-time tally of its class.
void tally_trace(Cls cls, const OutcomeInfo& info, RoundLog& log, std::mutex& mu) {
  if (info.trace == nullptr) return;
  const auto [uncovered, total] = unattributed_ns(*info.trace);
  const std::lock_guard<std::mutex> lock(mu);
  log.unattributed_ns[static_cast<int>(cls)] += uncovered;
  log.root_ns[static_cast<int>(cls)] += total;
}

/// Records the client span and the engine's queue / exec children, placed
/// from the outcome's own durations.
void log_engine_spans(SpanLog& spans, const char* cls, std::uint64_t qid, Clock::time_point t0,
                      Clock::time_point t1, const OutcomeInfo& info) {
  if (!spans.enabled()) return;
  const std::int64_t root = spans.add(std::string("client.") + cls, qid, SpanLog::kRoot, t0, t1);
  const std::int64_t s0 = spans.offset(t0);
  const std::int64_t q = info.queue_wait.count();
  spans.add_ns("engine.queue", qid, root, s0, s0 + q);
  spans.add_ns("engine.exec", qid, root, s0 + q, s0 + q + info.exec_time.count());
}

// ------------------------------------------------------------------ oracles

bool same_bytes(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool raster_equal(const RasterTopK& got, const RasterTopK& want, bool compare_scores,
                  std::string& why) {
  if (got.hits.size() != want.hits.size()) {
    why = "size " + std::to_string(got.hits.size()) + " != " + std::to_string(want.hits.size());
    return false;
  }
  for (std::size_t i = 0; i < got.hits.size(); ++i) {
    const RasterHit& g = got.hits[i];
    const RasterHit& w = want.hits[i];
    if (g.x != w.x || g.y != w.y) {
      why = "pixel at rank " + std::to_string(i);
      return false;
    }
    if (compare_scores && !same_bytes(g.score, w.score)) {
      why = "score bytes at rank " + std::to_string(i);
      return false;
    }
  }
  return true;
}

/// The serial oracles of one raster model: the flat full scan and the staged
/// full scan (every pixel visited, terms summed in stage order).
struct RasterRefs {
  RasterTopK flat;
  RasterTopK staged;
};

RasterRefs raster_refs(const TiledArchive& archive, const std::vector<Interval>& ranges,
                       const LinearModel& model, bool with_staged) {
  RasterRefs refs;
  CostMeter meter;
  QueryContext flat_ctx;
  refs.flat = full_scan_top_k(archive, LinearRasterModel(model), kTopK, flat_ctx, meter);
  if (!with_staged) return refs;
  QueryContext staged_ctx;
  refs.staged = progressive_model_top_k(archive, ProgressiveLinearModel(model, ranges), kTopK,
                                        staged_ctx, meter);
  return refs;
}

/// Full-scan answers must equal the serial full scan of the same model byte
/// for byte.  Combined answers must pick the full scan's pixels in its order
/// and equal the staged full scan (same arithmetic order) byte for byte.
bool check_raster(const RasterRefs& refs, const Check& c, std::string& why) {
  if (c.cls != Cls::kCombined) return raster_equal(c.raster, refs.flat, true, why);
  return raster_equal(c.raster, refs.flat, false, why) &&
         raster_equal(c.raster, refs.staged, true, why);
}

bool check_onion(const TupleSet& points, const Check& c, std::string& why) {
  CostMeter meter;
  const std::vector<ScoredId> want = scan_top_k(points, c.weights, kTopK, meter);
  if (c.onion.hits.size() != want.size()) {
    why = "size";
    return false;
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (c.onion.hits[i].id != want[i].id || !same_bytes(c.onion.hits[i].score, want[i].score)) {
      why = "rank " + std::to_string(i);
      return false;
    }
  }
  return true;
}

bool check_composite(const CartesianQuery& query, const Check& c, std::string& why) {
  CostMeter meter;
  const std::vector<CompositeMatch> want = brute_force_top_k(query, kTopK, meter);
  if (!same_scores(c.comp.matches, want)) {
    why = "scores differ from brute force";
    return false;
  }
  return true;
}

// ------------------------------------------------------------- layer figures

/// Per-layer numbers filled by the trace run; anything a workload does not
/// exercise stays 0 (see README.md).
using Layers = std::map<std::string, double>;

struct Ladder {
  std::vector<double> full_ms, combined_ms;
  double full_ops_per_px = 0.0, combined_ops_per_px = 0.0, visited_frac = 0.0;
  double bytes_per_query = 0.0;
};

/// Direct serial full / combined executor calls over `queries` (the
/// workload's own models), each wrapped in a benchmark span.
Ladder run_core_ladder(const std::vector<std::pair<const RasterScene*, const RasterQ*>>& queries,
                       SpanLog& spans, std::uint64_t& qid) {
  Ladder out;
  double full_ops = 0, full_px = 0, comb_ops = 0, visited = 0, bytes = 0;
  for (const auto& [rs, q] : queries) {
    const TiledArchive& archive = *rs->archive;
    const double px = static_cast<double>(archive.pixel_count());
    {
      QueryContext ctx;
      CostMeter meter;
      const auto t0 = Clock::now();
      const RasterTopK r = full_scan_top_k(archive, q->flat, kTopK, ctx, meter);
      const auto t1 = Clock::now();
      (void)r;
      spans.add("core.full_scan", ++qid, SpanLog::kRoot, t0, t1);
      out.full_ms.push_back(ms_between(t0, t1));
      full_ops += static_cast<double>(meter.ops());
      full_px += px;
      bytes += static_cast<double>(meter.bytes());
    }
    {
      // The executor's own span annotations give pixels visited.
      obs::Trace trace("ladder", qid + 1);
      obs::Span root(&trace, "ladder");
      QueryContext ctx;
      ctx.with_span(&root);
      CostMeter meter;
      const auto t0 = Clock::now();
      const RasterTopK r = progressive_combined_top_k(archive, q->staged, kTopK, ctx, meter);
      const auto t1 = Clock::now();
      (void)r;
      root.finish();
      spans.add("core.combined", ++qid, SpanLog::kRoot, t0, t1);
      out.combined_ms.push_back(ms_between(t0, t1));
      comb_ops += static_cast<double>(meter.ops());
      for (const obs::SpanRecord& s : trace.spans()) {
        for (const auto& [key, v] : s.attrs) {
          if (key == "pixels_visited") visited += v;
        }
      }
    }
  }
  out.full_ops_per_px = ratio(full_ops, full_px);
  out.combined_ops_per_px = ratio(comb_ops, full_px);
  out.visited_frac = ratio(visited, full_px);
  out.bytes_per_query = ratio(bytes, static_cast<double>(queries.size()));
  return out;
}

double engine_gauge(const obs::MetricsRegistry& registry, std::string_view name, bool* found) {
  const obs::MetricsSnapshot snap = registry.snapshot();
  for (const obs::GaugeSample& g : snap.gauges) {
    if (g.name == name) {
      *found = true;
      return static_cast<double>(g.value);
    }
  }
  *found = false;
  return 0.0;
}

// ------------------------------------------------------------------ workloads

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

/// One workload: its data, its engine(s), its round shape, its oracle.
/// Construction is the set-up that setup_s times.
class Workload {
 public:
  explicit Workload(const Options& opt) : opt_(opt) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds data, engines and servers, then warms them; fills build_s_.
  virtual void setup() = 0;
  [[nodiscard]] virtual Round make_round(std::uint64_t id) = 0;
  virtual void run_round(const Round& round, RoundLog& log, SpanLog& spans) = 0;
  [[nodiscard]] virtual std::vector<Cls> classes() const = 0;
  /// Re-runs one sampled answer through its oracle.
  virtual bool check(const Check& c, std::string& why) = 0;
  /// Direct serial layer timings on the workload's own queries.
  virtual void ladder(const Round& round, Layers& layers, SpanLog& spans) = 0;
  /// Layer figures read from the workload's engines after the timed phase
  /// (after ladder(), whose serial times they compare against).
  virtual void engine_layers(const std::vector<RoundStats>& rounds, Layers& layers) {
    common_engine_layers(rounds, layers);
  }

  [[nodiscard]] double build_s() const noexcept { return build_s_; }
  [[nodiscard]] double index_build_s() const noexcept { return index_build_s_; }
  [[nodiscard]] bool tile_gauge_found() const noexcept { return tile_gauge_found_; }

 protected:
  QueryEngine& engine(bool traced) { return traced && traced_engine_ ? *traced_engine_ : *engine_; }

  /// The plain engine (metrics on, tracer off, as shipped) and, in the
  /// trace run, a twin with a tracer for the traced rounds.
  void start_engines(EngineConfig config) {
    config.metrics = &registry_;
    engine_ = std::make_unique<QueryEngine>(config);
    if (opt_.trace) {
      config.metrics = &traced_registry_;
      config.tracer = &tracer_;
      traced_engine_ = std::make_unique<QueryEngine>(config);
    }
  }

  /// Records the ladder's core figures: full-scan ones from `full`,
  /// combined ones from `comb`.
  void record_core(const Ladder& full, const Ladder& comb, double pixels, Layers& layers) {
    serial_full_ms_ = median(full.full_ms);
    serial_combined_ms_ = median(comb.combined_ms);
    layers["core.full_ns_per_px"] = serial_full_ms_ * 1e6 / pixels;
    layers["core.full_ops_per_px"] = full.full_ops_per_px;
    layers["archive.bytes_per_query"] = full.bytes_per_query;
    layers["core.combined_us"] = serial_combined_ms_ * 1e3;
    layers["core.combined_ops_per_px"] = comb.combined_ops_per_px;
    layers["core.visited_frac"] = comb.visited_frac;
  }

  /// Ladder of a workload that runs only full scans on one scene: its first
  /// 16 models through both serial executors.
  void full_scan_ladder(const RasterScene& scene, const Round& round, Layers& layers,
                        SpanLog& spans) {
    std::uint64_t qid = std::uint64_t{1} << 40;
    std::vector<std::pair<const RasterScene*, const RasterQ*>> full;
    for (std::size_t i = 0; i < round.raster.size() && full.size() < 16; ++i) {
      full.emplace_back(&scene, round.raster[i].get());
    }
    const Ladder l = run_core_ladder(full, spans, qid);
    record_core(l, l, static_cast<double>(scene.archive->pixel_count()), layers);
  }

  /// Cache / shed / tile / overhead figures shared by every engine workload.
  void common_engine_layers(const std::vector<RoundStats>& rounds, Layers& layers) {
    const CacheStats cs = engine_->result_cache_stats();
    const double probes = static_cast<double>(cs.hits - base_cache_.hits + cs.misses -
                                              base_cache_.misses);
    const double queries = static_cast<double>(engine_->stats().submitted - base_submitted_);
    layers["engine.result_hit_rate"] =
        ratio(static_cast<double>(cs.hits - base_cache_.hits), probes);
    layers["engine.result_evictions_per_query"] =
        ratio(static_cast<double>(cs.evictions - base_cache_.evictions), queries);
    bool found = false;
    const double ppm = engine_gauge(registry_, "engine_tile_cache_hit_rate_ppm", &found);
    layers["engine.tile_hit_rate"] = ppm / 1e6;
    tile_gauge_found_ = found;
    const EngineStats st = engine_->stats();
    layers["engine.shed_frac"] = ratio(static_cast<double>(st.shed - base_shed_),
                                             queries);
    // Queue wait, exec and hand-off from the untraced rounds' full scans.
    layers["engine.queue_wait_p50_ms"] =
        untraced_median(rounds, Cls::kScan, &ClassRound::queue_p50);
    layers["engine.exec_full_us"] =
        untraced_median(rounds, Cls::kScan, &ClassRound::exec_p50) * 1e3;
    layers["engine.handoff_us"] =
        untraced_median(rounds, Cls::kScan, &ClassRound::handoff_p50_us);
    layers["engine.overhead_full_us"] =
        layers["engine.exec_full_us"] - serial_full_ms_ * 1e3;
    layers["engine.overhead_combined_x"] = ratio(
        untraced_median(rounds, Cls::kCombined, &ClassRound::exec_p50), serial_combined_ms_);
    // Combined queries where the workload runs them, else full scans.
    double uncovered[kClasses] = {}, total[kClasses] = {};
    for (const RoundStats& r : rounds) {
      for (std::size_t c = 0; c < kClasses; ++c) {
        uncovered[c] += r.unattributed_ns[c];
        total[c] += r.root_ns[c];
      }
    }
    const int c = total[static_cast<int>(Cls::kCombined)] > 0.0 ? static_cast<int>(Cls::kCombined)
                                                                 : static_cast<int>(Cls::kScan);
    layers["obs.unattributed_frac"] = ratio(uncovered[c], total[c]);
  }

  /// Runs one round from `make` through the plain engine and, in the trace
  /// run, through the traced twin; records nothing, then marks the baseline
  /// the layer figures are counted from.
  void warm_up(const std::function<Round(std::uint64_t)>& make) {
    SpanLog quiet(false);
    for (bool traced : {false, true}) {
      if (traced && !opt_.trace) continue;
      RoundLog log;
      log.traced = traced;
      run_round(make(kWarmRound - (traced ? 1 : 0)), log, quiet);
    }
    mark_baseline();
  }

  /// Snapshot taken after warm-up, so layer figures cover the timed phase.
  void mark_baseline() {
    base_cache_ = engine_->result_cache_stats();
    const EngineStats st = engine_->stats();
    base_submitted_ = st.submitted;
    base_shed_ = st.shed;
  }

  Options opt_;
  double build_s_ = 0.0;
  double index_build_s_ = 0.0;
  obs::MetricsRegistry registry_;
  obs::MetricsRegistry traced_registry_;
  obs::Tracer tracer_{16};
  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<QueryEngine> traced_engine_;
  CacheStats base_cache_;
  std::uint64_t base_submitted_ = 0;
  std::uint64_t base_shed_ = 0;
  bool tile_gauge_found_ = false;
  double serial_full_ms_ = 0.0;      ///< ladder p50, set by ladder()
  double serial_combined_ms_ = 0.0;
};

std::uint64_t round_seed(std::uint64_t seed, std::uint64_t round) {
  return mix64(seed * 0x9e3779b97f4a7c15ULL + round + 1);
}

// ---- cold_scan ---------------------------------------------------------------

class ColdScan final : public Workload {
 public:
  static constexpr std::size_t kScenes = 4;
  /// Queries per class per round.  Small on purpose: a round lasts about a
  /// fifth of a second, so a host stall of a second or so spoils a few
  /// rounds that the median over rounds discards, instead of the tail of
  /// every round it overlaps.  The scan tail is then the p80 of 50.
  static constexpr std::size_t kPerClass = 50;

  using Workload::Workload;

  void setup() override {
    const auto t0 = Clock::now();
    for (std::size_t s = 0; s < kScenes; ++s) {
      scenes_.push_back(make_raster_scene(512, round_seed(opt_.seed, 1000 + s), 32));
    }
    build_s_ = seconds_between(t0, Clock::now());
    const auto t1 = Clock::now();
    points_ = credit_applicants(40000, round_seed(opt_.seed, 2000));
    onion_ = std::make_unique<OnionIndex>(points_);
    index_build_s_ = seconds_between(t1, Clock::now());
    wells_ = generate_well_log_archive(64, WellLogConfig{}, round_seed(opt_.seed, 3000));
    EngineConfig config;
    config.dispatchers = 3;
    start_engines(config);
    // Warm-up: one small round of distinct models through each engine.
    warm_up([this](std::uint64_t id) { return make_round_sized(id, 8); });
  }

  Round make_round(std::uint64_t id) override { return make_round_sized(id, kPerClass); }

  Round make_round_sized(std::uint64_t id, std::size_t per_class) {
    Rng rng(round_seed(opt_.seed, id));
    Round round;
    round.id = id;
    for (std::size_t i = 0; i < 2 * per_class; ++i) {
      const std::size_t s = rng.uniform_int(kScenes);
      round.raster.push_back(
          std::make_unique<RasterQ>(s, perturbed_hps(rng), scenes_[s]->ranges));
      Item item;
      item.cls = i < per_class ? Cls::kScan : Cls::kCombined;
      item.raster = round.raster.back().get();
      round.items.push_back(item);
    }
    for (std::size_t i = 0; i < per_class; ++i) {
      round.onion.push_back(std::make_unique<OnionQ>(OnionQ{perturbed_credit(rng)}));
      Item item;
      item.cls = Cls::kOnion;
      item.onion = round.onion.back().get();
      round.items.push_back(item);
    }
    for (std::size_t i = 0; i < per_class; ++i) {
      auto q = std::make_unique<CompQ>();
      q->well = rng.uniform_int(wells_.size());
      q->rule = perturbed_rule(rng);
      q->query = riverbed_query(wells_.wells[q->well], q->rule);
      round.comp.push_back(std::move(q));
      Item item;
      item.cls = Cls::kComposite;
      item.comp = round.comp.back().get();
      round.items.push_back(item);
    }
    shuffle_items(round.items, rng);
    mark_samples(round.items, 1, rng);
    return round;
  }

  void run_round(const Round& round, RoundLog& log, SpanLog& spans) override {
    log.samples.assign(round.items.size(), Sample{});
    std::atomic<std::size_t> next{0};
    std::mutex mu;
    std::exception_ptr error;  // first failure of any client; guarded by mu
    const auto client = [&] {
      try {
        serve(round, next, log, spans, mu);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
        next = round.items.size();
      }
    };
    const auto start = Clock::now();
    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c) clients.emplace_back(client);
    for (std::thread& t : clients) t.join();
    log.wall_s = seconds_between(start, Clock::now());
    if (error) std::rethrow_exception(error);
  }

  /// One closed-loop client: claims the round's next query until none is left.
  void serve(const Round& round, std::atomic<std::size_t>& next, RoundLog& log, SpanLog& spans,
             std::mutex& mu) {
    QueryEngine& eng = engine(log.traced);
    for (std::size_t i = next.fetch_add(1); i < round.items.size(); i = next.fetch_add(1)) {
      const Item& item = round.items[i];
      const std::uint64_t qid = (round.id << 20) + i;
      Sample& s = log.samples[i];
      s.cls = item.cls;
      s.engine = true;
      Check check;
      const OutcomeInfo* info = nullptr;
      RasterOutcome ro;
      OnionOutcome oo;
      CompositeOutcome co;
      const auto t0 = Clock::now();
      switch (item.cls) {
        case Cls::kScan:
        case Cls::kCombined: {
          RasterJob job;
          const bool full = item.cls == Cls::kScan;
          job.mode = full ? RasterJob::Mode::kFullScan : RasterJob::Mode::kCombined;
          job.archive = scenes_[item.raster->scene]->archive.get();
          if (full) job.model = &item.raster->flat;
          else job.progressive = &item.raster->staged;
          job.k = kTopK;
          job.archive_id = item.raster->scene + 1;
          ro = eng.submit(job).get();
          info = &ro;
          s.complete = ro.result.status == ResultStatus::kComplete;
          if (item.sampled) check.raster = ro.result;
          break;
        }
        case Cls::kOnion: {
          OnionJob job;
          job.index = onion_.get();
          job.weights = item.onion->weights;
          job.k = kTopK;
          oo = eng.submit(std::move(job)).get();
          info = &oo;
          s.complete = oo.result.status == ResultStatus::kComplete;
          if (item.sampled) check.onion = oo.result;
          break;
        }
        default: {
          CompositeJob job;
          job.query = &item.comp->query;
          job.processor = CompositeJob::Processor::kFastSproc;
          job.k = kTopK;
          co = eng.submit(job).get();
          info = &co;
          s.complete = co.result.status == ResultStatus::kComplete;
          if (item.sampled) check.comp = co.result;
          break;
        }
      }
      const auto t1 = Clock::now();
      s.latency_ms = ms_between(t0, t1);
      s.queue_ms = ms_of(info->queue_wait);
      s.exec_ms = ms_of(info->exec_time);
      s.cache_hit = info->cache_hit;
      log_engine_spans(spans, kClassNames[static_cast<int>(item.cls)], qid, t0, t1, *info);
      tally_trace(item.cls, *info, log, mu);
      keep_check(item, round.id, log, mu, std::move(check));
    }
  }

  std::vector<Cls> classes() const override {
    return {Cls::kScan, Cls::kCombined, Cls::kOnion, Cls::kComposite};
  }

  bool check(const Check& c, std::string& why) override {
    switch (c.cls) {
      case Cls::kOnion:
        return check_onion(points_, c, why);
      case Cls::kComposite: {
        const CartesianQuery q = riverbed_query(wells_.wells[c.well], c.rule);
        return check_composite(q, c, why);
      }
      default:
        return check_raster(
            raster_refs(*scenes_[c.scene]->archive, scenes_[c.scene]->ranges, *c.model,
                        c.cls == Cls::kCombined),
            c, why);
    }
  }

  void ladder(const Round& round, Layers& layers, SpanLog& spans) override {
    std::uint64_t qid = std::uint64_t{1} << 40;
    std::vector<std::pair<const RasterScene*, const RasterQ*>> full, comb;
    std::vector<const OnionQ*> onion;
    std::vector<const CompQ*> comp;
    for (const Item& item : round.items) {
      if (item.cls == Cls::kScan && full.size() < 16) {
        full.emplace_back(scenes_[item.raster->scene].get(), item.raster);
      }
      if (item.cls == Cls::kCombined && comb.size() < 32) {
        comb.emplace_back(scenes_[item.raster->scene].get(), item.raster);
      }
      if (item.cls == Cls::kOnion && onion.size() < 64) onion.push_back(item.onion);
      if (item.cls == Cls::kComposite && comp.size() < 64) comp.push_back(item.comp);
    }
    record_core(run_core_ladder(full, spans, qid), run_core_ladder(comb, spans, qid),
                static_cast<double>(scenes_[0]->archive->pixel_count()), layers);

    std::vector<double> onion_ms, scan_ms;
    double points = 0;
    for (const OnionQ* q : onion) {
      CostMeter meter, scan_meter;
      QueryContext ctx;
      const auto t0 = Clock::now();
      (void)onion_->top_k(q->weights, kTopK, ctx, meter);
      const auto t1 = Clock::now();
      (void)scan_top_k(points_, q->weights, kTopK, scan_meter);
      const auto t2 = Clock::now();
      spans.add("index.onion", ++qid, SpanLog::kRoot, t0, t1);
      spans.add("index.seqscan", qid, SpanLog::kRoot, t1, t2);
      onion_ms.push_back(ms_between(t0, t1));
      scan_ms.push_back(ms_between(t1, t2));
      points += static_cast<double>(meter.points());
    }
    layers["index.onion_pts_per_query"] = ratio(points, static_cast<double>(onion.size()));
    layers["index.onion_speedup"] = ratio(median(scan_ms), median(onion_ms));

    std::vector<double> fast_ms, brute_ms;
    double ops = 0;
    for (const CompQ* q : comp) {
      CostMeter meter, brute_meter;
      QueryContext ctx;
      const auto t0 = Clock::now();
      (void)fast_sproc_top_k(q->query, kTopK, ctx, meter);
      const auto t1 = Clock::now();
      (void)brute_force_top_k(q->query, kTopK, brute_meter);
      const auto t2 = Clock::now();
      spans.add("sproc.fast", ++qid, SpanLog::kRoot, t0, t1);
      spans.add("sproc.brute", qid, SpanLog::kRoot, t1, t2);
      fast_ms.push_back(ms_between(t0, t1));
      brute_ms.push_back(ms_between(t1, t2));
      ops += static_cast<double>(meter.ops());
    }
    layers["sproc.ops_per_query"] = ratio(ops, static_cast<double>(comp.size()));
    layers["sproc.fast_speedup"] = ratio(median(brute_ms), median(fast_ms));
  }

 private:
  std::vector<std::unique_ptr<RasterScene>> scenes_;
  TupleSet points_;
  std::unique_ptr<OnionIndex> onion_;
  WellLogArchive wells_;
};

// ---- hot_service -------------------------------------------------------------

class HotService final : public Workload {
 public:
  static constexpr std::size_t kFixed = 32;      ///< models per class in the hot set
  /// Queries per class per round: a round lasts about 2 ms, so a vCPU stall
  /// spoils few rounds, and the scan tail is the p96 of 250.
  static constexpr std::size_t kPerClass = 250;
  static constexpr std::size_t kOutstanding = 8;

  using Workload::Workload;

  void setup() override {
    const auto t0 = Clock::now();
    scene_ = make_raster_scene(256, round_seed(opt_.seed, 1000), 16);
    build_s_ = seconds_between(t0, Clock::now());
    Rng rng(round_seed(opt_.seed, 4000));
    for (std::size_t i = 0; i < 2 * kFixed; ++i) {
      fixed_.push_back(std::make_unique<RasterQ>(0, perturbed_hps(rng), scene_->ranges));
    }
    EngineConfig config;
    config.dispatchers = 3;
    start_engines(config);
    // Warm-up fills the result cache with the whole hot set.
    warm_up([this](std::uint64_t id) {
      Round warm;
      warm.id = id;
      for (std::size_t i = 0; i < 2 * kFixed; ++i) {
        Item item;
        item.cls = i < kFixed ? Cls::kScan : Cls::kCombined;
        item.raster = fixed_[i].get();
        warm.items.push_back(item);
      }
      return warm;
    });
  }

  Round make_round(std::uint64_t id) override {
    Rng rng(round_seed(opt_.seed, id));
    Round round;
    round.id = id;
    for (std::size_t i = 0; i < 2 * kPerClass; ++i) {
      Item item;
      item.cls = i < kPerClass ? Cls::kScan : Cls::kCombined;
      item.raster = fixed_[(item.cls == Cls::kScan ? 0 : kFixed) + rng.uniform_int(kFixed)].get();
      round.items.push_back(item);
    }
    shuffle_items(round.items, rng);
    mark_samples(round.items, 2, rng);
    return round;
  }

  void run_round(const Round& round, RoundLog& log, SpanLog& spans) override {
    QueryEngine& eng = engine(log.traced);
    log.samples.assign(round.items.size(), Sample{});
    std::mutex mu;
    struct Pending {
      std::size_t index;
      Clock::time_point submitted;
      std::future<RasterOutcome> future;
    };
    std::vector<Pending> window;
    const auto submit = [&](std::size_t i) {
      const Item& item = round.items[i];
      RasterJob job;
      const bool full = item.cls == Cls::kScan;
      job.mode = full ? RasterJob::Mode::kFullScan : RasterJob::Mode::kCombined;
      job.archive = scene_->archive.get();
      if (full) job.model = &item.raster->flat;
      else job.progressive = &item.raster->staged;
      job.k = kTopK;
      job.archive_id = 1;
      const auto t0 = Clock::now();
      window.push_back(Pending{i, t0, eng.submit(job)});
    };
    const auto start = Clock::now();
    std::size_t next = 0;
    while (next < round.items.size() && window.size() < kOutstanding) submit(next++);
    // Poll every outstanding query rather than block on the oldest: on a
    // shared VM, waking a halted vCPU can take longer than the 30 us hit
    // being measured, and the three dispatchers finish in any order, so each
    // query is timed when its own answer is ready.  One generator plus three
    // dispatchers stays within nproc.
    for (std::size_t w = 0; !window.empty(); w = w + 1 < window.size() ? w + 1 : 0) {
      if (window[w].future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        continue;
      }
      Pending p = std::move(window[w]);
      window.erase(window.begin() + static_cast<long>(w));
      const RasterOutcome out = p.future.get();
      const auto t1 = Clock::now();
      if (next < round.items.size()) submit(next++);
      const Item& item = round.items[p.index];
      Sample& s = log.samples[p.index];
      s.cls = item.cls;
      s.engine = true;
      s.latency_ms = ms_between(p.submitted, t1);
      s.queue_ms = ms_of(out.queue_wait);
      s.exec_ms = ms_of(out.exec_time);
      s.cache_hit = out.cache_hit;
      s.complete = out.result.status == ResultStatus::kComplete;
      log_engine_spans(spans, kClassNames[static_cast<int>(item.cls)],
                       (round.id << 20) + p.index, p.submitted, t1, out);
      tally_trace(item.cls, out, log, mu);
      Check check;
      if (item.sampled) check.raster = out.result;
      keep_check(item, round.id, log, mu, std::move(check));
    }
    log.wall_s = seconds_between(start, Clock::now());
  }

  std::vector<Cls> classes() const override { return {Cls::kScan, Cls::kCombined}; }

  /// The hot set repeats, so each distinct model's oracle runs once.
  bool check(const Check& c, std::string& why) override {
    const std::vector<double> key(c.model->weights().begin(), c.model->weights().end());
    auto it = refs_.find(key);
    if (it == refs_.end()) {
      it = refs_.emplace(key, raster_refs(*scene_->archive, scene_->ranges, *c.model, true)).first;
    }
    return check_raster(it->second, c, why);
  }

  void ladder(const Round& round, Layers& layers, SpanLog& spans) override {
    (void)round;
    std::uint64_t qid = std::uint64_t{1} << 40;
    std::vector<std::pair<const RasterScene*, const RasterQ*>> full, comb;
    for (std::size_t i = 0; i < kFixed; ++i) {
      if (full.size() < 16) full.emplace_back(scene_.get(), fixed_[i].get());
      comb.emplace_back(scene_.get(), fixed_[kFixed + i].get());
    }
    record_core(run_core_ladder(full, spans, qid), run_core_ladder(comb, spans, qid),
                static_cast<double>(scene_->archive->pixel_count()), layers);
  }

 private:
  std::unique_ptr<RasterScene> scene_;
  std::vector<std::unique_ptr<RasterQ>> fixed_;
  std::map<std::vector<double>, RasterRefs> refs_;
};

// ---- fleet -------------------------------------------------------------------

class Fleet final : public Workload {
 public:
  static constexpr std::size_t kShards = 4;
  static constexpr std::size_t kPerPath = 64;

  using Workload::Workload;

  void setup() override {
    const auto t0 = Clock::now();
    scene_ = make_raster_scene(512, round_seed(opt_.seed, 1000), 32);
    sharded_ = std::make_unique<ShardedArchive>(*scene_->archive, kShards, ShardPolicy::kRowBands);
    build_s_ = seconds_between(t0, Clock::now());
    EngineConfig config;
    config.dispatchers = 1;
    config.intra_query_threads = 3;
    start_engines(config);
    if (!net::sockets_available()) throw std::runtime_error("loopback sockets unavailable");
    net::RouterConfig router_config;
    for (std::size_t s = 0; s < kShards; ++s) {
      net::ShardServerConfig server_config;
      server_config.engine.dispatchers = 1;
      server_config.engine.metrics = &server_registry_;
      auto server = std::make_unique<net::ShardServer>(server_config);
      server->register_archive(1, scene_->archive.get(), scene_->ranges);
      if (!server->start()) throw std::runtime_error("shard server failed to start");
      router_config.ports.push_back(static_cast<std::uint16_t>(server->port()));
      servers_.push_back(std::move(server));
    }
    router_ = std::make_unique<net::Router>(router_config);
    // Warm-up: the router's describe exchange, first-touch pages, pools.
    warm_up([this](std::uint64_t id) { return make_round_sized(id, 2); });
  }

  Round make_round(std::uint64_t id) override { return make_round_sized(id, kPerPath); }

  Round make_round_sized(std::uint64_t id, std::size_t per_path) {
    Rng rng(round_seed(opt_.seed, id));
    Round round;
    round.id = id;
    for (std::size_t i = 0; i < per_path; ++i) {
      round.raster.push_back(std::make_unique<RasterQ>(0, perturbed_hps(rng), scene_->ranges));
      for (Cls cls : {Cls::kScan, Cls::kRouted}) {
        Item item;
        item.cls = cls;
        item.raster = round.raster.back().get();
        round.items.push_back(item);
      }
    }
    shuffle_items(round.items, rng);
    mark_samples(round.items, 3, rng);
    return round;
  }

  void run_round(const Round& round, RoundLog& log, SpanLog& spans) override {
    QueryEngine& eng = engine(log.traced);
    log.samples.assign(round.items.size(), Sample{});
    std::mutex mu;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < round.items.size(); ++i) {
      const Item& item = round.items[i];
      const std::uint64_t qid = (round.id << 20) + i;
      Sample& s = log.samples[i];
      s.cls = item.cls;
      Check check;
      if (item.cls == Cls::kScan) {
        ShardedRasterJob job;
        job.mode = RasterJob::Mode::kFullScan;
        job.sharded = sharded_.get();
        job.model = &item.raster->flat;
        job.k = kTopK;
        job.archive_id = 1;
        const auto t0 = Clock::now();
        const ShardedRasterOutcome out = eng.submit(job).get();
        const auto t1 = Clock::now();
        s.engine = true;
        s.latency_ms = ms_between(t0, t1);
        s.queue_ms = ms_of(out.queue_wait);
        s.exec_ms = ms_of(out.exec_time);
        s.cache_hit = out.cache_hit;
        s.complete = out.result.merged.status == ResultStatus::kComplete;
        log_engine_spans(spans, "scan", qid, t0, t1, out);
        tally_trace(Cls::kScan, out, log, mu);
        check.raster = out.result.merged;
      } else {
        net::RouterQuery query;
        query.archive_id = 1;
        query.shard_count = kShards;
        query.policy = ShardPolicy::kRowBands;
        query.mode = ShardScanMode::kFullScan;
        query.model = &item.raster->flat.linear();
        query.k = kTopK;
        QueryContext ctx;
        CostMeter meter;
        std::optional<obs::Trace> trace;
        std::optional<obs::Span> root;
        if (log.traced) {
          trace.emplace("routed", qid);
          root.emplace(&*trace, "client");
          ctx.with_span(&*root);
        }
        const auto t0 = Clock::now();
        const net::RouterResult out = router_->execute(query, ctx, meter);
        const auto t1 = Clock::now();
        s.latency_ms = ms_between(t0, t1);
        s.complete = out.result.merged.status == ResultStatus::kComplete;
        s.wire_bytes = out.bytes_sent + out.bytes_received;
        if (trace) {
          root->finish();
          s.leg_overhead_frac = leg_overhead(*trace, spans, qid, t0, t1);
        }
        check.raster = out.result.merged;
      }
      keep_check(item, round.id, log, mu, std::move(check));
    }
    log.wall_s = seconds_between(start, Clock::now());
  }

  /// Copies the router's stitched tree into the span log and returns the
  /// share of the router span not explained by the slowest leg's server scan.
  static double leg_overhead(const obs::Trace& trace, SpanLog& spans, std::uint64_t qid,
                             Clock::time_point t0, Clock::time_point t1) {
    const std::vector<obs::SpanRecord> recs = trace.spans();
    const std::int64_t root = spans.add("client.routed", qid, SpanLog::kRoot, t0, t1);
    const std::int64_t base = spans.offset(t0);
    std::vector<std::int64_t> ids(recs.size(), root);
    std::size_t router = obs::kNoSpan;
    for (std::size_t i : obs::span_dfs_order(recs)) {
      const obs::SpanRecord& r = recs[i];
      if (r.parent == obs::kNoSpan) continue;  // the client root, logged above
      const std::int64_t start = base + static_cast<std::int64_t>(r.start_ns);
      ids[i] = spans.add_ns("net." + r.name, qid, ids[r.parent], start,
                            start + static_cast<std::int64_t>(r.duration_ns));
      if (r.name == "router" && router == obs::kNoSpan) router = i;
    }
    if (router == obs::kNoSpan) return 0.0;
    double slowest_scan = 0.0;
    for (const obs::SpanRecord& leg : recs) {
      if (leg.parent != router) continue;
      for (const obs::SpanRecord& r : recs) {
        if (r.name == "scan" && r.parent != obs::kNoSpan && &recs[r.parent] == &leg) {
          slowest_scan = std::max(slowest_scan, static_cast<double>(r.duration_ns));
        }
      }
    }
    const double total = static_cast<double>(recs[router].duration_ns);
    return ratio(total - slowest_scan, total);
  }

  std::vector<Cls> classes() const override { return {Cls::kScan, Cls::kRouted}; }

  bool check(const Check& c, std::string& why) override {
    return check_raster(raster_refs(*scene_->archive, scene_->ranges, *c.model, false), c, why);
  }

  void ladder(const Round& round, Layers& layers, SpanLog& spans) override {
    full_scan_ladder(*scene_, round, layers, spans);
  }

  void engine_layers(const std::vector<RoundStats>& rounds, Layers& layers) override {
    common_engine_layers(rounds, layers);
    layers["shard.full_speedup"] =
        ratio(serial_full_ms_ * 1e3, layers["engine.exec_full_us"]);
    // Wire bytes come from the first round (untraced) only, so the figure
    // covers the same queries on every run (exact).
    layers["net.wire_bytes_per_query"] = ratio(rounds[0].wire_bytes, rounds[0].routed);
    std::vector<double> overhead;
    for (const RoundStats& r : rounds) {
      overhead.insert(overhead.end(), r.leg_overhead_frac.begin(), r.leg_overhead_frac.end());
    }
    layers["net.leg_overhead_frac"] = median(overhead);
  }

 private:

  std::unique_ptr<RasterScene> scene_;
  std::unique_ptr<ShardedArchive> sharded_;
  obs::MetricsRegistry server_registry_;
  std::vector<std::unique_ptr<net::ShardServer>> servers_;
  std::unique_ptr<net::Router> router_;
};

// ---- batch_burst -------------------------------------------------------------

class BatchBurst final : public Workload {
 public:
  static constexpr std::size_t kBurst = 48;
  static constexpr std::size_t kBursts = 4;  ///< per round
  static constexpr std::size_t kFanIn = 16;

  using Workload::Workload;

  void setup() override {
    const auto t0 = Clock::now();
    // 512x512 rather than 256x256: each batch then scans for tens of
    // milliseconds, so the engine's own wake-ups (dispatch queue, batch
    // flush) are a small share of a burst.
    scene_ = make_raster_scene(512, round_seed(opt_.seed, 1000), 32);
    build_s_ = seconds_between(t0, Clock::now());
    EngineConfig config;
    config.dispatchers = 3;
    config.batch_max_fanin = kFanIn;
    // Far longer than submitting a burst takes: every group closes on its
    // fan-in cap, never on the window.
    config.batch_window = std::chrono::milliseconds(200);
    start_engines(config);
    warm_up([this](std::uint64_t id) { return make_round_sized(id, 1); });
    base_batches_ = registry_.snapshot().counter("engine_batch_batches_total");
    base_members_ = registry_.snapshot().counter("engine_batch_members_total");
  }

  Round make_round(std::uint64_t id) override { return make_round_sized(id, kBursts); }

  Round make_round_sized(std::uint64_t id, std::size_t bursts) {
    Rng rng(round_seed(opt_.seed, id));
    Round round;
    round.id = id;
    for (std::size_t i = 0; i < bursts * kBurst; ++i) {
      round.raster.push_back(std::make_unique<RasterQ>(0, perturbed_hps(rng), scene_->ranges));
      Item item;
      item.cls = Cls::kScan;
      item.raster = round.raster.back().get();
      round.items.push_back(item);
    }
    mark_samples(round.items, 4, rng);
    return round;
  }

  void run_round(const Round& round, RoundLog& log, SpanLog& spans) override {
    QueryEngine& eng = engine(log.traced);
    log.samples.assign(round.items.size(), Sample{});
    std::mutex mu;
    const auto start = Clock::now();
    for (std::size_t b = 0; b * kBurst < round.items.size(); ++b) {
      std::vector<Clock::time_point> submitted(kBurst);
      std::vector<std::future<RasterOutcome>> futures;
      futures.reserve(kBurst);
      const auto burst_start = Clock::now();
      for (std::size_t j = 0; j < kBurst; ++j) {
        const Item& item = round.items[b * kBurst + j];
        RasterJob job;
        job.mode = RasterJob::Mode::kFullScan;
        job.archive = scene_->archive.get();
        job.model = &item.raster->flat;
        job.k = kTopK;
        job.archive_id = 1;
        submitted[j] = Clock::now();
        futures.push_back(eng.submit(job));
      }
      // Poll every outstanding member instead of blocking on them in
      // submission order: the three batches of a burst finish in any order,
      // and each member is timed when its own answer is ready, without the
      // wake-up of a halted vCPU (see hot_service).  One client plus three
      // dispatchers stays within nproc.
      std::vector<bool> done(kBurst, false);
      for (std::size_t left = kBurst; left > 0;) {
        for (std::size_t j = 0; j < kBurst; ++j) {
          if (done[j] ||
              futures[j].wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
            continue;
          }
          const auto t1 = Clock::now();
          done[j] = true;
          --left;
          const RasterOutcome out = futures[j].get();
          const std::size_t i = b * kBurst + j;
          const Item& item = round.items[i];
          Sample& s = log.samples[i];
          s.cls = Cls::kScan;
          s.engine = true;
          s.latency_ms = ms_between(submitted[j], t1);
          s.queue_ms = ms_of(out.queue_wait);
          s.exec_ms = ms_of(out.exec_time);
          s.cache_hit = out.cache_hit;
          s.complete = out.result.status == ResultStatus::kComplete;
          log_engine_spans(spans, "scan", (round.id << 20) + i, submitted[j], t1, out);
          tally_trace(Cls::kScan, out, log, mu);
          Check check;
          if (item.sampled) check.raster = out.result;
          keep_check(item, round.id, log, mu, std::move(check));
        }
      }
      log.burst_member_ms.push_back(ms_between(burst_start, Clock::now()) /
                                    static_cast<double>(kBurst));
    }
    log.wall_s = seconds_between(start, Clock::now());
  }

  std::vector<Cls> classes() const override { return {Cls::kScan}; }

  bool check(const Check& c, std::string& why) override {
    return check_raster(raster_refs(*scene_->archive, scene_->ranges, *c.model, false), c, why);
  }

  void ladder(const Round& round, Layers& layers, SpanLog& spans) override {
    full_scan_ladder(*scene_, round, layers, spans);
  }

  void engine_layers(const std::vector<RoundStats>& rounds, Layers& layers) override {
    common_engine_layers(rounds, layers);
    const obs::MetricsSnapshot snap = registry_.snapshot();
    const double batches =
        static_cast<double>(snap.counter("engine_batch_batches_total") - base_batches_);
    const double members =
        static_cast<double>(snap.counter("engine_batch_members_total") - base_members_);
    layers["batch.fanin_mean"] = ratio(members, batches);
    std::vector<double> member_ms;
    for (const RoundStats& r : rounds) {
      if (r.traced) continue;
      member_ms.insert(member_ms.end(), r.burst_member_ms.begin(), r.burst_member_ms.end());
    }
    layers["batch.speedup"] = ratio(serial_full_ms_, median(member_ms));
  }

 private:
  std::unique_ptr<RasterScene> scene_;
  std::uint64_t base_batches_ = 0;
  std::uint64_t base_members_ = 0;
};

std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "cold_scan") return std::make_unique<ColdScan>(opt);
  if (opt.workload == "hot_service") return std::make_unique<HotService>(opt);
  if (opt.workload == "fleet") return std::make_unique<Fleet>(opt);
  if (opt.workload == "batch_burst") return std::make_unique<BatchBurst>(opt);
  throw std::invalid_argument("unknown workload '" + opt.workload +
                              "' (cold_scan, hot_service, fleet, batch_burst)");
}

// -------------------------------------------------------------------- report

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  Spread spread;  ///< across rounds (n = 0 when not a per-round figure)
  std::string note;
};

void print_metric(const Metric& m) {
  std::printf("  %-34s %14.6g %-6s", m.name.c_str(), m.value, m.unit.c_str());
  if (m.spread.n > 0) {
    std::printf("  rounds=%zu min=%.6g q1=%.6g q3=%.6g max=%.6g", m.spread.n, m.spread.min,
                m.spread.q1, m.spread.q3, m.spread.max);
  }
  if (!m.note.empty()) std::printf("  %s", m.note.c_str());
  std::printf("\n");
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Per-round latency figures of one class: {p50 per round, tail per round}.
struct ClassSeries {
  std::vector<double> p50, tail;
  double tail_pct = 0.0;
  std::size_t per_round = 0;
};

ClassSeries class_series(const std::vector<RoundStats>& rounds, Cls cls, bool traced) {
  ClassSeries out;
  for (const RoundStats& r : rounds) {
    const ClassRound& cr = r.cls[static_cast<int>(cls)];
    if (r.traced != traced || cr.count == 0) continue;
    out.per_round = cr.count;
    out.tail_pct = cr.tail_pct;
    out.p50.push_back(cr.p50);
    out.tail.push_back(cr.tail);
  }
  return out;
}

std::vector<double> qps_series(const std::vector<RoundStats>& rounds, bool traced) {
  std::vector<double> out;
  for (const RoundStats& r : rounds) {
    if (r.traced == traced) out.push_back(ratio(static_cast<double>(r.queries), r.wall_s));
  }
  return out;
}

Metric from_series(std::string name, std::string unit, const std::vector<double>& v) {
  Metric m;
  m.name = std::move(name);
  m.unit = std::move(unit);
  m.spread = spread_of(v);
  m.value = m.spread.median;
  return m;
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// Per-layer metrics and units, in report order (README.md defines each).
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"core.full_ns_per_px", "ns"},
    {"core.full_ops_per_px", "count"},
    {"core.combined_us", "us"},
    {"core.combined_ops_per_px", "count"},
    {"core.visited_frac", "frac"},
    {"archive.build_s", "s"},
    {"archive.bytes_per_query", "B"},
    {"engine.queue_wait_p50_ms", "ms"},
    {"engine.exec_full_us", "us"},
    {"engine.overhead_full_us", "us"},
    {"engine.overhead_combined_x", "x"},
    {"engine.handoff_us", "us"},
    {"engine.result_hit_rate", "frac"},
    {"engine.result_evictions_per_query", "count"},
    {"engine.tile_hit_rate", "frac"},
    {"engine.shed_frac", "frac"},
    {"shard.full_speedup", "x"},
    {"batch.fanin_mean", "count"},
    {"batch.speedup", "x"},
    {"net.wire_bytes_per_query", "B"},
    {"net.leg_overhead_frac", "frac"},
    {"index.onion_pts_per_query", "count"},
    {"index.onion_speedup", "x"},
    {"index.onion_build_frac", "frac"},
    {"sproc.ops_per_query", "count"},
    {"sproc.fast_speedup", "x"},
    {"obs.trace_overhead_frac", "frac"},
    {"obs.unattributed_frac", "frac"},
};

int run(const Options& opt) {
  std::printf("servebench workload=%s seed=%llu seconds=%g trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  std::printf("provenance: nproc=%ld hardware_concurrency=%u cpu=\"%s\" compiler=\"%s\" "
              "flags=\"%s\"\n",
              sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
              cpu_model().c_str(), SERVEBENCH_CXX, SERVEBENCH_FLAGS);

  // Set-up, repeated; the last instance serves the run.
  std::vector<double> setup_s, build_s, index_s;
  std::unique_ptr<Workload> w;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    w.reset();
    const auto t0 = Clock::now();
    w = make_workload(opt);
    w->setup();
    setup_s.push_back(seconds_between(t0, Clock::now()));
    build_s.push_back(w->build_s());
    index_s.push_back(w->index_build_s());
  }

  // Timed phase: whole rounds until the time is up (at least two, so the
  // trace run has one untraced and one traced round).
  SpanLog spans(opt.trace);
  std::vector<RoundStats> rounds;
  // Address space for more rounds than any workload runs (hot_service runs
  // about ten thousand), so the vector never doubles mid-run: a doubling
  // would add a speed-dependent step to peak_rss_mb.  Pages are only
  // resident once a round is stored.
  rounds.reserve(std::size_t{1} << 16);
  std::vector<Check> checks;
  std::optional<Round> first_round;
  const auto timed_start = Clock::now();
  for (std::uint64_t r = 0;; ++r) {
    if (r >= 2 && seconds_between(timed_start, Clock::now()) >= opt.seconds) break;
    Round round = w->make_round(r);
    RoundLog log;
    log.traced = opt.trace && r % 2 == 1;
    w->run_round(round, log, spans);
    // Sampled answers of the first kCheckedRounds rounds go to the oracle, so
    // its cost and memory do not grow with the round count.
    if (r < kCheckedRounds) {
      std::move(log.checks.begin(), log.checks.end(), std::back_inserter(checks));
    }
    rounds.push_back(summarize(log));
    if (r == 0) first_round = std::move(round);
  }
  const double timed_s = seconds_between(timed_start, Clock::now());

  // Oracle, outside the timed phase.
  std::uint64_t attempted = 0, incomplete = 0, checked = 0, mismatched = 0;
  std::uint64_t hits[kClasses] = {}, counts[kClasses] = {};
  for (const RoundStats& r : rounds) {
    attempted += r.queries;
    for (std::size_t c = 0; c < kClasses; ++c) {
      incomplete += r.cls[c].incomplete;
      counts[c] += r.cls[c].count;
      hits[c] += r.cls[c].hits;
    }
  }
  for (const Check& c : checks) {
    ++checked;
    std::string why;
    if (!w->check(c, why)) {
      ++mismatched;
      std::printf("MISMATCH round=%llu class=%s: %s\n", static_cast<unsigned long long>(c.round),
                  kClassNames[static_cast<int>(c.cls)], why.c_str());
    }
  }
  const std::uint64_t failed = incomplete + mismatched;
  const double ok_frac = ratio(static_cast<double>(attempted - failed),
                               static_cast<double>(attempted));
  std::printf("timed phase: %.3f s, %zu rounds, %llu queries; oracle checked %llu sampled "
              "answers, %llu mismatched, %llu not complete\n",
              timed_s, rounds.size(), static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(checked),
              static_cast<unsigned long long>(mismatched),
              static_cast<unsigned long long>(incomplete));
  for (Cls cls : w->classes()) {
    const int c = static_cast<int>(cls);
    std::printf("  class %-9s queries=%llu cache_hit_frac=%.4f\n", kClassNames[c],
                static_cast<unsigned long long>(counts[c]),
                ratio(static_cast<double>(hits[c]), static_cast<double>(counts[c])));
  }

  std::vector<Metric> e2e;
  {
    Metric m = from_series("setup_s", "s", setup_s);
    m.note = "(median of " + std::to_string(kSetupRepetitions) + " set-ups)";
    e2e.push_back(m);
  }
  e2e.push_back(from_series("qps", "1/s", qps_series(rounds, false)));
  {
    Metric m;
    m.name = "ok_frac";
    m.unit = "frac";
    m.value = ok_frac;
    e2e.push_back(m);
  }
  {
    Metric m;
    m.name = "peak_rss_mb";
    m.unit = "MiB";
    m.value = peak_rss_mb();
    e2e.push_back(m);
  }
  // Per-class latency: one population per percentile.  Only the full-scan
  // class runs on every workload, so only it enters the JSON result; the
  // other classes are printed for the reader.
  std::vector<Metric> class_metrics;
  for (Cls cls : w->classes()) {
    const ClassSeries cs = class_series(rounds, cls, false);
    const std::string name = kClassNames[static_cast<int>(cls)];
    char note[96];
    std::snprintf(note, sizeof note, "(p%.2f of %zu per round)", cs.tail_pct, cs.per_round);
    Metric p50 = from_series(name + "_p50_ms", "ms", cs.p50);
    Metric tail = from_series(name + "_tail_ms", "ms", cs.tail);
    tail.note = note;
    if (cls == Cls::kScan) {
      e2e.push_back(p50);
      e2e.push_back(tail);
    } else {
      class_metrics.push_back(p50);
      class_metrics.push_back(tail);
    }
  }

  std::vector<Metric> result;
  if (!opt.trace) {
    std::printf("end-to-end metrics (median across rounds):\n");
    for (const Metric& m : e2e) print_metric(m);
    std::printf("other query classes (printed, not in the result line):\n");
    for (const Metric& m : class_metrics) print_metric(m);
    result = e2e;
  } else {
    Layers layers;
    for (const auto& [name, unit] : kLayerMetrics) layers[name] = 0.0;
    w->ladder(*first_round, layers, spans);
    w->engine_layers(rounds, layers);
    layers["archive.build_s"] = median(build_s);
    layers["index.onion_build_frac"] = ratio(median(index_s), median(setup_s));
    const double untraced = median(qps_series(rounds, false));
    const double traced = median(qps_series(rounds, true));
    layers["obs.trace_overhead_frac"] = 1.0 - ratio(traced, untraced);
    std::printf("per-layer metrics (trace run: %zu untraced / %zu traced rounds):\n",
                qps_series(rounds, false).size(), qps_series(rounds, true).size());
    for (const auto& [name, unit] : kLayerMetrics) {
      Metric m;
      m.name = name;
      m.unit = unit;
      m.value = layers[name];
      if (name == "engine.tile_hit_rate" && !w->tile_gauge_found()) m.note = "(gauge absent)";
      print_metric(m);
      result.push_back(m);
    }
    if (!opt.trace_out.empty()) {
      if (!spans.write(opt.trace_out)) {
        throw std::runtime_error("cannot write spans to " + opt.trace_out);
      }
      std::printf("wrote %zu spans to %s (%zu more not kept)\n", spans.size(),
                  opt.trace_out.c_str(), spans.dropped());
    }
  }
  std::fflush(stdout);
  w.reset();
  print_json(failed == 0, attempted, failed, result);
  return 0;
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") opt.workload = value;
    else if (arg == "--seed") opt.seed = std::stoull(value);
    else if (arg == "--seconds") opt.seconds = std::stod(value);
    else if (arg == "--trace") opt.trace = value == "1";
    else if (arg == "--trace-out") opt.trace_out = value;
    else throw std::invalid_argument("unknown argument " + arg);
  }
  if (opt.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(opt.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }
}
