#pragma once
// Per-tile / per-pixel kernels shared by the serial progressive executors
// (core/progressive_exec.cpp) and their tile-parallel and sharded variants
// (engine/).
//
// Each kernel scans one pixel rectangle — a tile, a row band, or the whole
// scene — into a caller-owned TopK accumulator, charging a caller-owned
// CostMeter and, through a ChargeLease it holds for the scan, the shared
// QueryContext: the context's counter is touched once per slice of work, not
// once per pixel, so workers scanning disjoint rectangles do not contend on
// it.
//
// Every full-model scan — serial, tile-screened, tile-parallel, sharded and
// remote shard — runs one row kernel, scan_row_full.  For a
// linear model it scores a run of pixels in one fused pass per group of up
// to four bands (offer_linear_run): each score is summed in registers as
// ((bias + w0·p0) + w1·p1) + … in band order, so it is bit-identical to
// LinearModel::evaluate, and screened in the same pass, block by block,
// against the heap threshold read at the block's start.  A block whose
// scores all satisfy `s < threshold && s > -inf` is done without a
// per-pixel branch; only a flagged block — a NaN, an infinity (counted as a
// bad point, -inf included) or a score that could enter the heap — goes
// through the per-pixel isfinite / offer_ranked loop (offer_scores).  Any
// other model is evaluated per pixel and offered through that same loop.
//
// The fused pass takes a span of members — linear models over one archive,
// each with its own heap.  One member streams the planes at the memory
// floor.  Several members (a batch group's full scans, driven row by row
// by scan_rect_full over a member span) read each 16-pixel block of the
// planes once: its smallest and largest sample per band bound every
// member's scores in that block, and a member sums and screens the block
// exactly only where its bound reaches its own heap threshold or a sample
// is not finite.  Every member's hits, score bytes and bad points equal
// those of its one-member call.
//
// That fused pass is one body (detail::offer_linear_run_body) compiled
// twice in core/exec_kernels.cpp: an entry for AVX2 (four doubles per
// instruction) and one for the baseline ISA.  offer_linear_run calls the
// AVX2 entry when __builtin_cpu_supports("avx2") says the host runs it, the
// baseline entry otherwise, through a function pointer chosen once per
// process; a host without AVX2 runs the baseline code.  There is no knob:
// no environment variable, config field, CMake option or -march flag.  The
// vectors run across pixels, so each pixel keeps its band-order sum and the
// two entries return the same score bytes.  Three things are left out on
// purpose:
//   * FMA: a fused multiply-add rounds w·p + s once instead of twice and
//     would change score bits.  The "avx2" target does not enable FMA, and
//     exec_kernels.cpp is compiled with -ffp-contract=off besides (GCC 12
//     contracts a*b+c into vfmadd even under -std=c++20 once FMA is on).
//   * target_clones / ifunc: the ifunc resolver runs before the TSan
//     runtime starts, and a TSan binary with a target_clones function
//     segfaulted there in a prototype; the plain pointer runs clean under
//     ASan/UBSan and TSan.
//   * AVX-512: an AVX-512 prototype entry was no faster at L0 on a 4-vCPU
//     Xeon host (bench_kernel BM_ScanRectFull_Linear 1.51–1.66 ns/px
//     against 1.40–1.48 for AVX2).
//
// The kernel pays for a run with one ChargeLease::take_runs and bills
// the meter once per run (n·bands points, n·bands·8 bytes, n·N ops), so
// complete-scan totals are the per-pixel ones exactly and a single worker
// trips on exactly the per-pixel unit.  One consequence: a stop latched by
// a sibling worker (or a parent context) is seen at the kernel's next run —
// after at most one lease slice of work — rather than at its next pixel.
// The staged kernel stays per pixel: it abandons pixels term by term.
//
// Apart from the relaxed threshold below, nothing in here is
// thread-aware: parallelism comes from running many kernels at once over
// disjoint rectangles with per-worker accumulators/meters, which is exactly
// why the serial and parallel executors can share this code and stay
// answer-identical.
//
// Offers carry the pixel's row-major position (`pixel_rank`) as the TopK
// rank, so exact score ties resolve to the canonical (score desc, rank asc)
// set no matter which order a scan visits pixels: serial, tile-parallel and
// sharded runs of the same query — and the merge of their partials — return
// byte-identical results.
//
// Which rectangles reach the row kernels:
//   * serial and tile-parallel full and staged scans: whole rows — the
//     scene, or the row bands parallel_for hands each worker
//     (scan_rect_full / scan_rect_staged); a batch group's shared full-scan
//     pass hands scan_rect_full all its members at once;
//   * every shard leg in scan order — the in-process sharded full and
//     staged-model executors and the remote scan_shard_partial legs of the
//     same two modes: the shard's tile list through walk_tile_spans
//     (scan_tiles_full / scan_tiles_staged), which joins horizontally
//     adjacent tiles into one span, so a row-band shard scans whole rows;
//   * tile by tile, one scan_rect_* per tile: every screened (bound-ordered)
//     path — serial, tile-parallel, sharded and remote tile-screened and
//     combined.  Their 32-pixel runs cost about three times a whole row's
//     per pixel (bench_kernel run:32 against run:512).
//
// How a screened executor gets its tile bounds is decided here alone:
// screen_tiles() charges and runs the metadata pass for every one of them.
//
// The staged kernel takes its abandoning threshold through a callable so the
// serial executor can pass the local heap threshold and the parallel and
// sharded ones can splice in a SharedThreshold (a stale value only weakens
// pruning, never soundness).

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "archive/tiled.hpp"
#include "core/progressive_exec.hpp"
#include "core/query_context.hpp"
#include "core/raster_model.hpp"
#include "linear/progressive.hpp"
#include "obs/trace.hpp"
#include "util/cost.hpp"
#include "util/topk.hpp"

namespace mmir::exec {

inline constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Canonical total-order rank of a pixel: row-major (row, then column), so
/// for any archive narrower than 2^32 pixels it orders exactly like the
/// row-major offset y·width + x.  Feeding this as the TopK tie-break makes
/// every executor's result a pure function of the scored pixel multiset,
/// independent of visit order; needing no archive, it also ranks hits at a
/// merge that only sees their coordinates.
inline std::uint64_t pixel_rank(std::size_t x, std::size_t y) {
  return (static_cast<std::uint64_t>(y) << 32) | static_cast<std::uint64_t>(x);
}

/// Smallest pixel_rank inside a tile (its top-left corner) — the strongest
/// rank any of its pixels could bring to an exact-tie contest.
inline std::uint64_t tile_min_rank(const TileSummary& tile) {
  return pixel_rank(tile.x0, tile.y0);
}

/// Monotone pruning threshold shared by the workers (or shard tasks) of one
/// query: a relaxed atomic maximum.  Only the K-th best of some full
/// all-exact heap is ever raised into it — a lower bound on the final global
/// K-th best — so a stale (lower) read only weakens pruning, never
/// soundness, and no ordering stronger than relaxed is needed.
class SharedThreshold {
 public:
  [[nodiscard]] double get() const noexcept { return value_.load(std::memory_order_relaxed); }

  void raise(double candidate) noexcept {
    double current = value_.load(std::memory_order_relaxed);
    while (candidate > current &&
           !value_.compare_exchange_weak(current, candidate, std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<double> value_{kNegInf};
};

/// Drains a TopK accumulator into a best-first hit vector.
inline std::vector<RasterHit> finalize(TopK<RasterHit>& top) {
  std::vector<RasterHit> out;
  for (auto& entry : top.take_sorted()) out.push_back(entry.item);
  return out;
}

/// Per-scan counters a kernel accumulates for its caller.  `pixels` counts
/// pixels whose evaluation *began* (data-leg pruning skips a pixel entirely,
/// so n_total / pixels is the empirical pd of §4.2); `bad_points` counts
/// non-finite evaluations skipped.  Plain locals — each worker owns one and
/// the coordinator sums after the join, like the per-worker CostMeters.
struct ScanTally {
  std::uint64_t pixels = 0;
  std::uint64_t bad_points = 0;

  ScanTally& operator+=(const ScanTally& other) noexcept {
    pixels += other.pixels;
    bad_points += other.bad_points;
    return *this;
  }
};

/// Staged evaluation of one pixel with early abandoning: returns the exact
/// score, or any value strictly below `threshold` once the upper bound drops
/// under it.  Charges one op + point per term actually computed, both to the
/// meter and to the lease (whose failure aborts the pixel — callers must
/// check the context's stopped() on return).
inline double staged_pixel(const TiledArchive& archive, const ProgressiveLinearModel& model,
                           std::size_t x, std::size_t y, double threshold, ChargeLease& lease,
                           CostMeter& meter) {
  const auto order = model.order();
  double partial = model.model().bias();
  for (std::size_t stage = 0; stage < order.size(); ++stage) {
    if (!lease.charge(1)) return kNegInf;  // aborted mid-pixel; the context is stopped
    const std::size_t band = order[stage];
    partial += model.model().weight(band) * archive.band(band).cell(x, y);
    meter.add_ops(1);
    meter.add_points(1);
    meter.add_bytes(sizeof(double));
    if (stage + 1 < order.size()) {
      const Interval tail = model.tail(stage);
      if (partial + tail.hi < threshold) {
        meter.add_pruned();
        return partial + tail.hi;  // certified below threshold
      }
    }
  }
  return partial;
}

/// Full-model evaluation of one pixel through the model's virtual
/// evaluate(), gathering its bands into `pixel` (size band_count()).
inline double full_pixel(const TiledArchive& archive, const RasterModel& model, std::size_t x,
                         std::size_t y, std::span<double> pixel, CostMeter& meter) {
  archive.read_pixel(x, y, pixel, meter);
  meter.add_ops(model.ops_per_evaluation());
  return model.evaluate(pixel);
}

/// The §2.1 linear model `model` evaluates, or null when it is not a
/// LinearRasterModel and has to be scored per pixel.
inline const LinearModel* linear_model_of(const RasterModel& model) noexcept {
  const auto* linear = dynamic_cast<const LinearRasterModel*>(&model);
  return linear != nullptr ? &linear->linear() : nullptr;
}

/// Offers the scores of pixels [x, x+n) of row y, scores[0..n), to `top`:
/// every finite score that reaches the heap's threshold is offered under its
/// pixel_rank.  Returns how many scores were non-finite (bad points).
inline std::uint64_t offer_scores(const double* scores, std::size_t n, std::size_t x,
                                  std::size_t y, TopK<RasterHit>& top) {
  std::uint64_t bad = 0;
  double threshold = top.threshold();  // moves only when an offer lands
  for (std::size_t i = 0; i < n; ++i) {
    const double score = scores[i];
    if (!std::isfinite(score)) {
      ++bad;
      continue;
    }
    // >= rather than >: a score tying the threshold can still displace a
    // worse-ranked incumbent under the canonical (score, rank) order.
    if (score >= threshold &&
        top.offer_ranked(score, pixel_rank(x + i, y), RasterHit{x + i, y, score})) {
      threshold = top.threshold();
    }
  }
  return bad;
}

/// Bands the fused linear pass sums per pass over a run: a group's weights
/// and plane pointers stay in registers.
inline constexpr std::size_t kBandGroup = 4;

/// Pixels per screened block of the fused linear pass: the heap threshold is
/// read once per block, and only a block holding a flagged score goes
/// through offer_scores.
inline constexpr std::size_t kScreenBlock = 16;

/// One group of up to kBandGroup bands of a linear model over a run: each
/// band's samples from the run's first pixel on, and its weight.
template <std::size_t G>
struct BandGroup {
  std::array<const double*, G> plane{};
  std::array<double, G> weight{};

  /// Bands [first, first+G) of `model` over the run starting at flat offset
  /// `offset` of every band plane.
  BandGroup(const TiledArchive& archive, const LinearModel& model, std::size_t first,
            std::size_t offset) {
    for (std::size_t g = 0; g < G; ++g) {
      plane[g] = archive.band(first + g).flat().data() + offset;
      weight[g] = model.weight(first + g);
    }
  }

  /// One fused pass over run pixels [i0, i0+m): the i-th sum starts at
  /// `bias` (when `in` is null) or at in[i], adds the group's weighted
  /// samples in band order and lands in out[i].  Returns true when some sum
  /// fails the screen `s < threshold && s > -inf`: it is NaN, infinite, or
  /// could enter the heap.
  bool add(std::size_t i0, std::size_t m, const double* in, double bias, double threshold,
           double* out) const {
    // The flag is a double select rather than an OR of comparison bits: the
    // select is the form that still vectorises alongside the sums.
    double flag = 0.0;
    if (in == nullptr) {
      for (std::size_t i = 0; i < m; ++i) {
        double s = bias;
        for (std::size_t g = 0; g < G; ++g) s += weight[g] * plane[g][i0 + i];
        out[i] = s;
        flag = (s < threshold) & (s > kNegInf) ? flag : 1.0;
      }
    } else {
      for (std::size_t i = 0; i < m; ++i) {
        double s = in[i];
        for (std::size_t g = 0; g < G; ++g) s += weight[g] * plane[g][i0 + i];
        out[i] = s;
        flag = (s < threshold) & (s > kNegInf) ? flag : 1.0;
      }
    }
    return flag != 0.0;
  }
};

/// One member of a fused linear pass (offer_linear_run): a linear model, the
/// heap its hits go to, and its partial-sum buffer (n slots, touched only
/// by a one-member pass of a model with more than kBandGroup bands).  `bad`
/// gains the run's bad-point count for this member.
struct LinearRunMember {
  const LinearModel* model = nullptr;
  TopK<RasterHit>* top = nullptr;
  double* sums = nullptr;
  std::uint64_t bad = 0;
};

/// Members a shared pass bounds side by side: their weights and cached
/// thresholds live in stack arrays this long, and a longer member span is
/// taken this many members at a time over the same run.
inline constexpr std::size_t kPassLanes = 16;

/// Bands a shared pass bounds per block; an archive with more scores its
/// members one at a time.
inline constexpr std::size_t kPassBands = 16;

namespace detail {

/// The one-member fused pass: see offer_linear_run_body.  Groups before
/// the last sum into member.sums (n slots, touched only when the model has
/// more than kBandGroup bands); the last group finishes each
/// kScreenBlock-pixel block's scores in registers and screens them in the
/// same pass against the heap threshold read at the block's start.
inline void offer_solo_run(const TiledArchive& archive, LinearRunMember& member, std::size_t x,
                           std::size_t y, std::size_t n) {
  const LinearModel& model = *member.model;
  TopK<RasterHit>& top = *member.top;
  double* sums = member.sums;
  const std::size_t bands = model.dim();
  const std::size_t offset = y * archive.width() + x;
  const double bias = model.bias();
  const std::size_t last = (bands - 1) / kBandGroup * kBandGroup;  // first band of the last group
  for (std::size_t g0 = 0; g0 < last; g0 += kBandGroup) {
    BandGroup<kBandGroup>(archive, model, g0, offset)
        .add(0, n, g0 == 0 ? nullptr : sums, bias, kNegInf, sums);
  }
  const auto finish = [&](const auto& group) {
    std::uint64_t bad = 0;
    double block[kScreenBlock];
    for (std::size_t i0 = 0; i0 < n; i0 += kScreenBlock) {
      const std::size_t m = std::min(kScreenBlock, n - i0);
      if (group.add(i0, m, last == 0 ? nullptr : sums + i0, bias, top.threshold(), block)) {
        bad += offer_scores(block, m, x + i0, y, top);
      }
    }
    return bad;
  };
  switch (bands - last) {
    case 1: member.bad += finish(BandGroup<1>(archive, model, last, offset)); break;
    case 2: member.bad += finish(BandGroup<2>(archive, model, last, offset)); break;
    case 3: member.bad += finish(BandGroup<3>(archive, model, last, offset)); break;
    default: member.bad += finish(BandGroup<kBandGroup>(archive, model, last, offset)); break;
  }
}

/// Scores pixels [i0, i0+m) of the run at flat offset `offset` with
/// `model` into out[0, m), group by group in band order: the sums the
/// one-member pass forms, pixel for pixel.  Returns, as that pass's last
/// group does, whether some score fails the screen `s < threshold &&
/// s > -inf`.
inline bool screen_block(const TiledArchive& archive, const LinearModel& model,
                         std::size_t offset, std::size_t i0, std::size_t m, double threshold,
                         double* out) {
  const std::size_t bands = model.dim();
  const double bias = model.bias();
  const std::size_t last = (bands - 1) / kBandGroup * kBandGroup;
  for (std::size_t g0 = 0; g0 < last; g0 += kBandGroup) {
    (void)BandGroup<kBandGroup>(archive, model, g0, offset)
        .add(i0, m, g0 == 0 ? nullptr : out, bias, kNegInf, out);
  }
  const double* in = last == 0 ? nullptr : out;
  switch (bands - last) {
    case 1: return BandGroup<1>(archive, model, last, offset).add(i0, m, in, bias, threshold, out);
    case 2: return BandGroup<2>(archive, model, last, offset).add(i0, m, in, bias, threshold, out);
    case 3: return BandGroup<3>(archive, model, last, offset).add(i0, m, in, bias, threshold, out);
    default:
      return BandGroup<kBandGroup>(archive, model, last, offset)
          .add(i0, m, in, bias, threshold, out);
  }
}

/// The smallest and largest sample of pixels [i0, i0+m) of each of the
/// first `bands` planes, into lo[b] and hi[b]; returns whether every sample
/// is finite.  It sums the samples: NaN or ±inf anywhere leaves the total
/// non-finite, and an overflowing total of finite samples only answers
/// false where true was due.  A whole block is read as four-double vectors.
inline bool block_extremes(const double* const* plane, std::size_t bands, std::size_t i0,
                           std::size_t m, double* lo, double* hi) {
  using f64x4 = double __attribute__((vector_size(4 * sizeof(double))));
  static_assert(kScreenBlock == 16);
  double total = 0.0;
  if (m == kScreenBlock) {
    f64x4 sum{};
    for (std::size_t b = 0; b < bands; ++b) {
      f64x4 v0, v1, v2, v3;
      std::memcpy(&v0, plane[b] + i0, sizeof v0);
      std::memcpy(&v1, plane[b] + i0 + 4, sizeof v1);
      std::memcpy(&v2, plane[b] + i0 + 8, sizeof v2);
      std::memcpy(&v3, plane[b] + i0 + 12, sizeof v3);
      const f64x4 lo01 = v0 < v1 ? v0 : v1;
      const f64x4 lo23 = v2 < v3 ? v2 : v3;
      const f64x4 low = lo01 < lo23 ? lo01 : lo23;
      const f64x4 hi01 = v0 > v1 ? v0 : v1;
      const f64x4 hi23 = v2 > v3 ? v2 : v3;
      const f64x4 high = hi01 > hi23 ? hi01 : hi23;
      const double low01 = low[0] < low[1] ? low[0] : low[1];
      const double low23 = low[2] < low[3] ? low[2] : low[3];
      lo[b] = low01 < low23 ? low01 : low23;
      const double high01 = high[0] > high[1] ? high[0] : high[1];
      const double high23 = high[2] > high[3] ? high[2] : high[3];
      hi[b] = high01 > high23 ? high01 : high23;
      sum += (v0 + v1) + (v2 + v3);
    }
    total = (sum[0] + sum[1]) + (sum[2] + sum[3]);
  } else {
    for (std::size_t b = 0; b < bands; ++b) {
      const double* p = plane[b] + i0;
      double low = p[0];
      double high = p[0];
      double band_total = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        low = p[i] < low ? p[i] : low;
        high = p[i] > high ? p[i] : high;
        band_total += p[i];
      }
      lo[b] = low;
      hi[b] = high;
      total += band_total;
    }
  }
  return total - total == 0.0;
}

/// The shared pass over `count` ≤ kPassLanes members of a model with
/// `bands` ≤ kPassBands bands.  Each kScreenBlock-pixel block of every
/// band is read once (block_extremes): its smallest and largest sample, and
/// whether every sample is finite.  Each member then bounds its block in
/// the order its scores are summed — bias, then w·(largest or smallest
/// sample, whichever gives the larger product) band by band — which bounds
/// every score of the block from above, because rounding is monotone; the
/// mirror sum bounds them from below.  A member whose samples are finite,
/// whose upper bound lies below its own heap threshold (read at the block's
/// start) and whose lower bound lies above -inf has no score in the block
/// the heap could take and no bad point there, so it is done.  Any other
/// member — a NaN or an infinity in the block, an overflow, or a bound
/// reaching the threshold — scores and screens the block exactly from the
/// cache (screen_block), and offers it through offer_scores only if a
/// score fails the screen, as the one-member pass would.  A member whose
/// bounds keep reaching its threshold thus pays an in-cache pass over its
/// block rather than a per-pixel offer.  The bounds run four members to a
/// vector; spare lanes bound to zero against a +inf threshold and never
/// flag.
inline void offer_shared_lanes(const TiledArchive& archive, LinearRunMember* members,
                               std::size_t count, std::size_t bands, std::size_t x,
                               std::size_t y, std::size_t n) {
  using f64x4 = double __attribute__((vector_size(4 * sizeof(double))));
  using i64x4 = long long __attribute__((vector_size(4 * sizeof(long long))));
  constexpr std::size_t kQuads = kPassLanes / 4;
  constexpr double kPosInf = std::numeric_limits<double>::infinity();
  const std::size_t offset = y * archive.width() + x;
  const std::size_t quads = (count + 3) / 4;
  std::array<const double*, kPassBands> plane{};
  for (std::size_t b = 0; b < bands; ++b) plane[b] = archive.band(b).flat().data() + offset;
  std::array<std::array<f64x4, kPassBands>, kQuads> weight{};
  std::array<std::array<i64x4, kPassBands>, kQuads> positive{};
  std::array<f64x4, kQuads> bias{};
  std::array<f64x4, kQuads> threshold{};  // moves only when an offer lands
  for (std::size_t j = 0; j < quads * 4; ++j) {
    const std::size_t q = j / 4;
    const std::size_t lane = j % 4;
    threshold[q][lane] = j < count ? members[j].top->threshold() : kPosInf;
    if (j >= count) continue;
    const LinearModel& model = *members[j].model;
    bias[q][lane] = model.bias();
    for (std::size_t b = 0; b < bands; ++b) weight[q][b][lane] = model.weight(b);
  }
  const f64x4 zero{};
  for (std::size_t q = 0; q < quads; ++q) {
    for (std::size_t b = 0; b < bands; ++b) positive[q][b] = weight[q][b] >= zero;
  }
  const f64x4 neg_inf{kNegInf, kNegInf, kNegInf, kNegInf};
  std::array<double, kPassBands> lo{};
  std::array<double, kPassBands> hi{};
  double block[kScreenBlock];
  for (std::size_t i0 = 0; i0 < n; i0 += kScreenBlock) {
    const std::size_t m = std::min(kScreenBlock, n - i0);
    const bool finite = block_extremes(plane.data(), bands, i0, m, lo.data(), hi.data());
    for (std::size_t q = 0; q < quads; ++q) {
      f64x4 upper = bias[q];
      f64x4 lower = bias[q];
      for (std::size_t b = 0; b < bands; ++b) {
        const f64x4 low{lo[b], lo[b], lo[b], lo[b]};
        const f64x4 high{hi[b], hi[b], hi[b], hi[b]};
        upper += weight[q][b] * (positive[q][b] ? high : low);
        lower += weight[q][b] * (positive[q][b] ? low : high);
      }
      const i64x4 done = (upper < threshold[q]) & (lower > neg_inf);
      if (finite && (done[0] & done[1] & done[2] & done[3]) != 0) continue;
      for (std::size_t lane = 0; lane < 4 && q * 4 + lane < count; ++lane) {
        if (finite && done[lane] != 0) continue;
        LinearRunMember& member = members[q * 4 + lane];
        if (screen_block(archive, *member.model, offset, i0, m, threshold[q][lane], block)) {
          member.bad += offer_scores(block, m, x + i0, y, *member.top);
          threshold[q][lane] = member.top->threshold();
        }
      }
    }
  }
}

/// The one body of offer_linear_run, compiled once per entry below.
/// Scores pixels [x, x+n) of row y for every member (linear models over
/// the archive's bands) and offers them.  Each score is summed as
/// ((bias + w0·p0) + w1·p1) + … in band index order — exactly the sum
/// LinearModel::evaluate forms, so scores are bit-identical to it.  A
/// block whose scores all pass `s < threshold && s > -inf` holds no bad
/// point and nothing the heap could take, so it is done; a flagged block
/// (NaN, ±inf, or a score reaching the threshold) goes through
/// offer_scores.
///
/// One member streams the planes in one fused pass per group of up to
/// kBandGroup bands (offer_solo_run), at the memory floor.  Several
/// members share each block's read of the planes (offer_shared_lanes):
/// a member pays for its block's bound, and sums its scores only where
/// the bound cannot rule the block out, so the pass's cost grows with the
/// members by their bounds rather than by full scans.
inline void offer_linear_run_body(const TiledArchive& archive, std::span<LinearRunMember> members,
                                  std::size_t x, std::size_t y, std::size_t n) {
  const std::size_t bands = archive.band_count();
  if (members.size() == 1 || bands > kPassBands) {
    for (LinearRunMember& member : members) offer_solo_run(archive, member, x, y, n);
    return;
  }
  for (std::size_t j0 = 0; j0 < members.size(); j0 += kPassLanes) {
    offer_shared_lanes(archive, members.data() + j0, std::min(kPassLanes, members.size() - j0),
                       bands, x, y, n);
  }
}

/// offer_linear_run_body compiled for AVX2 (four doubles per instruction,
/// no FMA) and for the baseline ISA, every call inside it inlined.  Both
/// return the same hits, score bytes and bad-point counts; the AVX2 entry
/// may only run where host_has_avx2().
void offer_linear_run_avx2(const TiledArchive& archive, std::span<LinearRunMember> members,
                           std::size_t x, std::size_t y, std::size_t n);
void offer_linear_run_baseline(const TiledArchive& archive, std::span<LinearRunMember> members,
                               std::size_t x, std::size_t y, std::size_t n);

/// Whether this host's CPU and OS run AVX2 code (checked once).
[[nodiscard]] bool host_has_avx2() noexcept;

}  // namespace detail

/// Scores and offers pixels [x, x+n) of row y for every member: see
/// detail::offer_linear_run_body.  Runs the AVX2 entry on a host that
/// supports it and the baseline entry otherwise, picked once per process.
/// Every member's hits, score bytes and bad points equal those of a call
/// with that member alone.
void offer_linear_run(const TiledArchive& archive, std::span<LinearRunMember> members,
                      std::size_t x, std::size_t y, std::size_t n);

/// The one-member offer_linear_run: returns the run's bad-point count.
inline std::uint64_t offer_linear_run(const TiledArchive& archive, const LinearModel& model,
                                      std::size_t x, std::size_t y, std::size_t n,
                                      TopK<RasterHit>& top, double* sums) {
  LinearRunMember member{&model, &top, sums, 0};
  offer_linear_run(archive, std::span(&member, 1), x, y, n);
  return member.bad;
}

/// The instruction set offer_linear_run runs on this host: "avx2" or
/// "baseline".  Benchmarks stamp it into their reports.
[[nodiscard]] std::string_view kernel_isa() noexcept;

/// Counts a scored run of n pixels and its `bad` bad points into the
/// tally, and the bad points into the context.
inline void tally_run(std::size_t n, std::uint64_t bad, QueryContext& ctx, ScanTally& tally) {
  tally.pixels += n;
  if (bad > 0) {
    ctx.note_bad_points(bad);
    tally.bad_points += bad;
  }
}

/// Bills a run of n pixels the fused linear pass scored: n·bands points,
/// n·bands·8 bytes and n·N ops (full_pixel bills the per-pixel path itself).
inline void bill_linear_run(std::size_t n, std::size_t bands, std::uint64_t unit,
                            CostMeter& meter) {
  meter.add_points(n * bands);
  meter.add_bytes(n * bands * sizeof(double));
  meter.add_ops(n * unit);
}

/// Scores, offers and bills pixels [x, x+n) of row y, a run already paid
/// for: through offer_linear_run for a linear model (`linear` non-null),
/// else per pixel through full_pixel into scratch[0, n) and offer_scores,
/// with each pixel gathered into scratch[n, n+bands).  For a linear model
/// with more than kBandGroup bands, scratch[0, n) holds the partial sums.
inline void score_run_full(const TiledArchive& archive, const RasterModel& model,
                           const LinearModel* linear, std::size_t x, std::size_t n, std::size_t y,
                           TopK<RasterHit>& top, double* scratch, QueryContext& ctx,
                           CostMeter& meter, ScanTally& tally) {
  const std::size_t bands = archive.band_count();
  std::uint64_t bad = 0;
  if (linear != nullptr) {
    bad = offer_linear_run(archive, *linear, x, y, n, top, scratch);
    bill_linear_run(n, bands, model.ops_per_evaluation(), meter);
  } else {
    const std::span<double> pixel(scratch + n, bands);
    for (std::size_t i = 0; i < n; ++i) {
      scratch[i] = full_pixel(archive, model, x + i, y, pixel, meter);
    }
    bad = offer_scores(scratch, n, x, y, top);
  }
  tally_run(n, bad, ctx, tally);
}

/// The full-model row kernel under every full scan: scores pixels [x0,x1)
/// of row y, offering every finite score that reaches the heap's threshold
/// and counting visited pixels and non-finite scores into `tally` (bad
/// points also go to the context).  Budget is spent through `lease` one run
/// at a time: take_runs() pays for the pixels its held allowance covers,
/// and a run it cannot start pays one pixel through charge(), which may
/// refill, check the deadline or refuse — so a single worker trips on
/// exactly the pixel per-pixel charging would.  Each run is scored and
/// billed by score_run_full: the meter once per run, n·bands points,
/// n·bands·8 bytes, n·N ops.
///
/// `linear` is linear_model_of(model), looked up once per scan by the
/// caller: a linear model is scored and screened by offer_linear_run's
/// fused pass, any other model (null) goes through full_pixel per pixel and
/// offer_scores.  `scratch` is the caller's row buffer, grown here to the
/// run width plus one pixel's bands and never shrunk: the per-pixel path's
/// scores and gathered pixel, and the partial sums of a linear model with
/// more than kBandGroup bands.  Returns false once a charge is refused (the
/// context is then stopped), true when the row is done.
///
/// Always inlined: the tile walker calls it once per tile span (32 pixels
/// on a tile-hashed shard leg), and with score_run_full inside it the
/// compiler would otherwise emit it out of line, a twelve-argument call
/// per span.
[[gnu::always_inline]] inline bool scan_row_full(
    const TiledArchive& archive, const RasterModel& model, const LinearModel* linear,
    std::size_t x0, std::size_t x1, std::size_t y, TopK<RasterHit>& top,
    std::vector<double>& scratch, ChargeLease& lease, QueryContext& ctx, CostMeter& meter,
    ScanTally& tally) {
  const std::uint64_t unit = model.ops_per_evaluation();
  if (scratch.size() < x1 - x0 + archive.band_count()) {
    scratch.resize(x1 - x0 + archive.band_count());
  }
  for (std::size_t x = x0; x < x1;) {
    std::size_t n = lease.take_runs(x1 - x, unit);
    if (n == 0) {
      if (!lease.charge(unit)) return false;
      n = 1 + lease.take_runs(x1 - x - 1, unit);
    }
    score_run_full(archive, model, linear, x, n, y, top, scratch.data(), ctx, meter, tally);
    x += n;
  }
  return true;
}

/// One member of a full scan over a rectangle (scan_rect_full): its model,
/// and the heap, row buffer, context, meter and tally it scans into.
/// Members of one call must not share a context, heap or row buffer.
struct ScanMember {
  const RasterModel* model = nullptr;
  TopK<RasterHit>* top = nullptr;
  std::vector<double>* scratch = nullptr;
  QueryContext* ctx = nullptr;
  CostMeter* meter = nullptr;
  ScanTally* tally = nullptr;
};

namespace detail {

/// A member's state for one scan_rect_full call: its lease, held for the
/// call and released when the state is destroyed, and how much of the run
/// it last took is still unscored.
struct ScanMemberState {
  ScanMemberState(const ScanMember& m, std::size_t width, std::size_t bands)
      : member(&m), linear(linear_model_of(*m.model)), unit(m.model->ops_per_evaluation()),
        lease(*m.ctx) {
    if (m.scratch->size() < width + bands) m.scratch->resize(width + bands);
  }

  const ScanMember* member;
  const LinearModel* linear;
  std::uint64_t unit;
  ChargeLease lease;
  bool scanning = true;
  std::size_t left = 0;  ///< paid-for pixels of the current run not yet scored
};

/// The rows × members loop behind scan_rect_full.  Row by row, the
/// members still scanning advance together along the row.  Each takes its
/// runs exactly as scan_row_full would — take_runs() over the rest of the
/// row, or, when its allowance is spent, one charge() (which may refill,
/// check the deadline or refuse) and take_runs() after it — so each spends,
/// trips and stops on exactly the pixel its solo scan does.  The pixels
/// every scanning member has paid for are scored together: the linear
/// members in one offer_linear_run call over `pass` (one slot per member),
/// any other model per pixel.  Members that lease alike — the same unit
/// and no budget in sight — take their runs at the same pixels, so the
/// shared span is a whole run.  Each member bills exactly the pixels it
/// scored, so its bill and tally equal its solo scan's.
inline void scan_rows_full(const TiledArchive& archive, std::size_t x0, std::size_t x1,
                           std::size_t y0, std::size_t y1, std::span<ScanMemberState> states,
                           LinearRunMember* pass) {
  const std::size_t bands = archive.band_count();
  for (std::size_t y = y0; y < y1; ++y) {
    bool scanning = false;
    for (ScanMemberState& s : states) {
      if (s.scanning && s.member->ctx->stopped()) s.scanning = false;
      scanning = scanning || s.scanning;
    }
    if (!scanning) return;
    for (std::size_t x = x0; x < x1;) {
      std::size_t span = x1 - x;
      bool any = false;
      for (ScanMemberState& s : states) {
        if (!s.scanning) continue;
        if (s.left == 0) {
          std::size_t n = s.lease.take_runs(x1 - x, s.unit);
          if (n == 0) {
            if (!s.lease.charge(s.unit)) {
              s.scanning = false;
              continue;
            }
            n = 1 + s.lease.take_runs(x1 - x - 1, s.unit);
          }
          s.left = n;
        }
        span = std::min(span, s.left);
        any = true;
      }
      if (!any) break;
      std::size_t joined = 0;
      for (ScanMemberState& s : states) {
        if (!s.scanning) continue;
        const ScanMember& m = *s.member;
        if (s.linear != nullptr) {
          pass[joined++] = {s.linear, m.top, m.scratch->data(), 0};
        } else {
          score_run_full(archive, *m.model, nullptr, x, span, y, *m.top, m.scratch->data(), *m.ctx,
                         *m.meter, *m.tally);
        }
      }
      if (joined > 0) offer_linear_run(archive, std::span(pass, joined), x, y, span);
      std::size_t j = 0;
      for (ScanMemberState& s : states) {
        if (!s.scanning) continue;
        s.left -= span;
        if (s.linear == nullptr) continue;
        const ScanMember& m = *s.member;
        bill_linear_run(span, bands, s.unit, *m.meter);
        tally_run(span, pass[j++].bad, *m.ctx, *m.tally);
      }
      x += span;
    }
  }
}

}  // namespace detail

/// Scans the rectangle [x0,x1)×[y0,y1) for every member with the full
/// model: rows in order, each member through a ChargeLease held for the
/// call, the members with a linear model scoring each span they have all
/// paid for in one shared offer_linear_run call (detail::scan_rows_full).
/// Every member's
/// hits, score bytes, bad points, bill, books and stop equal those of a
/// call with that member alone.  A member stops early — possibly mid-row —
/// once its context stops; callers check its ctx.stopped() to tell.
inline void scan_rect_full(const TiledArchive& archive, std::size_t x0, std::size_t x1,
                           std::size_t y0, std::size_t y1, std::span<const ScanMember> members) {
  const std::size_t bands = archive.band_count();
  if (members.size() == 1) {
    // One member takes the same runs through scan_row_full, row by row,
    // without the per-run bookkeeping of members advancing together.
    const ScanMember& m = members[0];
    detail::ScanMemberState state(m, x1 - x0, bands);
    for (std::size_t y = y0; y < y1 && !m.ctx->stopped(); ++y) {
      if (!scan_row_full(archive, *m.model, state.linear, x0, x1, y, *m.top, *m.scratch,
                         state.lease, *m.ctx, *m.meter, *m.tally)) {
        return;
      }
    }
    return;
  }
  std::vector<detail::ScanMemberState> states;
  states.reserve(members.size());
  for (const ScanMember& m : members) states.emplace_back(m, x1 - x0, bands);
  std::vector<LinearRunMember> pass(members.size());
  detail::scan_rows_full(archive, x0, x1, y0, y1, states, pass.data());
}

/// The one-member scan_rect_full: scans the rectangle with `model` into
/// `top`, `meter` and `tally` through a lease held for the call.
inline void scan_rect_full(const TiledArchive& archive, const RasterModel& model, std::size_t x0,
                           std::size_t x1, std::size_t y0, std::size_t y1, TopK<RasterHit>& top,
                           std::vector<double>& scratch, QueryContext& ctx, CostMeter& meter,
                           ScanTally& tally) {
  const ScanMember member{&model, &top, &scratch, &ctx, &meter, &tally};
  scan_rect_full(archive, x0, x1, y0, y1, std::span(&member, 1));
}

/// Staged scan of pixels [x0,x1) of row y through `lease`, pixel by pixel
/// (staged_pixel).  `threshold` is a callable returning the current
/// abandoning threshold (a lower bound on the final global K-th best);
/// `on_offer` runs after each successful offer so callers can publish their
/// updated heap threshold.  Returns false once the context stops.
template <typename ThresholdFn, typename OnOfferFn>
inline bool scan_row_staged(const TiledArchive& archive, const ProgressiveLinearModel& model,
                            std::size_t x0, std::size_t x1, std::size_t y, TopK<RasterHit>& top,
                            ThresholdFn&& threshold, OnOfferFn&& on_offer, ChargeLease& lease,
                            QueryContext& ctx, CostMeter& meter, ScanTally& tally) {
  for (std::size_t x = x0; x < x1; ++x) {
    ++tally.pixels;
    const double score = staged_pixel(archive, model, x, y, threshold(), lease, meter);
    if (ctx.stopped()) return false;
    if (!std::isfinite(score)) {
      ctx.note_bad_points();
      ++tally.bad_points;
      continue;
    }
    // >= rather than >: see scan_row_full.
    if (score >= top.threshold() &&
        top.offer_ranked(score, pixel_rank(x, y), RasterHit{x, y, score})) {
      on_offer();
    }
  }
  return true;
}

/// Staged-scan counterpart of scan_rect_full: one scan_row_staged per row
/// through a lease held for the call.
template <typename ThresholdFn, typename OnOfferFn>
inline void scan_rect_staged(const TiledArchive& archive, const ProgressiveLinearModel& model,
                             std::size_t x0, std::size_t x1, std::size_t y0, std::size_t y1,
                             TopK<RasterHit>& top, ThresholdFn&& threshold, OnOfferFn&& on_offer,
                             QueryContext& ctx, CostMeter& meter, ScanTally& tally) {
  ChargeLease lease(ctx);
  for (std::size_t y = y0; y < y1 && !ctx.stopped(); ++y) {
    if (!scan_row_staged(archive, model, x0, x1, y, top, threshold, on_offer, lease, ctx, meter,
                         tally)) {
      return;
    }
  }
}

/// The tile-list walker under every shard leg's scan-order pass: visits the
/// pixels of `tile_ids` — global tile indices, ascending — as the longest
/// row spans the list allows.  In each tile row, a run of horizontally
/// adjacent tiles is one span [x0, x1), and every pixel row of the tile row
/// calls `row(x0, x1, y)` once per span, left to right.  A list of whole
/// tile rows (a kRowBands shard) thus hands the row kernel whole archive
/// rows, in the order the serial scan visits them; a scattered list (a
/// kTileHash shard) merges only the tiles that touch.  `row` returns false
/// once the context stops, and the walk ends there.
///
/// Returns how many tiles had their first pixel visited, read off
/// `tally.pixels` (which `row` advances): a stop inside a span's first row
/// counts only the tiles the row kernel had entered.
template <typename RowFn>
std::uint64_t walk_tile_spans(const TiledArchive& archive, std::span<const std::size_t> tile_ids,
                              const QueryContext& ctx, const ScanTally& tally, RowFn&& row) {
  const auto tiles = archive.tiles();
  const std::size_t across = archive.tiles_x();
  const std::size_t tile_w = archive.tile_size();
  std::uint64_t entered = 0;
  for (std::size_t first = 0; first < tile_ids.size();) {
    // tile_ids[first, last) lie in one tile row, sharing its y0 and height.
    const std::size_t tile_row = tile_ids[first] / across;
    std::size_t last = first + 1;
    while (last < tile_ids.size() && tile_ids[last] / across == tile_row) ++last;
    const TileSummary& lead = tiles[tile_ids[first]];
    for (std::size_t y = lead.y0; y < lead.y0 + lead.height; ++y) {
      for (std::size_t i = first; i < last;) {
        std::size_t j = i + 1;  // tile_ids[i, j) is one span
        while (j < last && tile_ids[j] == tile_ids[j - 1] + 1) ++j;
        if (ctx.stopped()) return entered;
        const TileSummary& right = tiles[tile_ids[j - 1]];
        const std::uint64_t before = tally.pixels;
        const bool done = row(tiles[tile_ids[i]].x0, right.x0 + right.width, y);
        if (y == lead.y0) {
          // Every tile of the span but the rightmost is tile_w wide.
          const std::uint64_t reached = (tally.pixels - before + tile_w - 1) / tile_w;
          entered += done ? j - i : std::min<std::uint64_t>(j - i, reached);
        }
        if (!done) return entered;
        i = j;
      }
    }
    first = last;
  }
  return entered;
}

/// Full-model scan of a tile list: walk_tile_spans over scan_row_full,
/// through one ChargeLease and one linear_model_of lookup for the call.
/// Returns the tiles entered; callers check ctx.stopped() for a stop.
inline std::uint64_t scan_tiles_full(const TiledArchive& archive, const RasterModel& model,
                                     std::span<const std::size_t> tile_ids, TopK<RasterHit>& top,
                                     QueryContext& ctx, CostMeter& meter, ScanTally& tally) {
  ChargeLease lease(ctx);
  const LinearModel* linear = linear_model_of(model);
  std::vector<double> scratch;  // scan_row_full's row buffer
  return walk_tile_spans(archive, tile_ids, ctx, tally,
                         [&](std::size_t x0, std::size_t x1, std::size_t y) {
                           return scan_row_full(archive, model, linear, x0, x1, y, top, scratch,
                                                lease, ctx, meter, tally);
                         });
}

/// Staged counterpart of scan_tiles_full: walk_tile_spans over
/// scan_row_staged through one ChargeLease for the call.
template <typename ThresholdFn, typename OnOfferFn>
inline std::uint64_t scan_tiles_staged(const TiledArchive& archive,
                                       const ProgressiveLinearModel& model,
                                       std::span<const std::size_t> tile_ids,
                                       TopK<RasterHit>& top, ThresholdFn&& threshold,
                                       OnOfferFn&& on_offer, QueryContext& ctx, CostMeter& meter,
                                       ScanTally& tally) {
  ChargeLease lease(ctx);
  return walk_tile_spans(archive, tile_ids, ctx, tally,
                         [&](std::size_t x0, std::size_t x1, std::size_t y) {
                           return scan_row_staged(archive, model, x0, x1, y, top, threshold,
                                                  on_offer, lease, ctx, meter, tally);
                         });
}

/// One tile's screening bound: the upper end of the model interval over the
/// tile's per-band summary ranges.
struct TileBound {
  double hi = 0.0;
  std::size_t tile = 0;  ///< global tile index
};

/// The metadata pass of every tile-screened executor.  Charges the context
/// one model-bound evaluation per tile, then bounds each tile (metering the
/// same ops) and orders them best upper bound first, ties toward the lower
/// tile index.  Returns nullopt, with nothing computed or metered, when the
/// charge stops the context; the caller's missed bound is then its whole
/// domain's.
inline std::optional<std::vector<TileBound>> screen_tiles(const TiledArchive& archive,
                                                          const RasterModel& model,
                                                          std::span<const std::size_t> tile_ids,
                                                          QueryContext& ctx, CostMeter& meter) {
  const std::uint64_t ops = tile_ids.size() * model.ops_per_evaluation();
  if (!ctx.charge(ops)) return std::nullopt;
  const auto tiles = archive.tiles();
  std::vector<TileBound> order;
  order.reserve(tile_ids.size());
  for (std::size_t t : tile_ids) order.push_back({model.bound(tiles[t].band_range).hi, t});
  meter.add_ops(ops);
  std::sort(order.begin(), order.end(), [](const TileBound& a, const TileBound& b) {
    return a.hi != b.hi ? a.hi > b.hi : a.tile < b.tile;
  });
  return order;
}

/// screen_tiles over every tile of the archive.
inline std::optional<std::vector<TileBound>> screen_tiles(const TiledArchive& archive,
                                                          const RasterModel& model,
                                                          QueryContext& ctx, CostMeter& meter) {
  std::vector<std::size_t> all(archive.tiles().size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return screen_tiles(archive, model, all, ctx, meter);
}

/// Sound upper bound on the model anywhere in the archive (finite data only),
/// used as the missed-score bound when a scan-order executor truncates.
inline double archive_score_bound(const TiledArchive& archive, const RasterModel& model) {
  return model.bound(archive.band_ranges()).hi;
}

/// Verdict of screening one tile against the caller's current heap.
enum class TilePrune : std::uint8_t {
  kScan = 0,       ///< the tile may still contribute — scan it
  kPruneOne = 1,   ///< this tile is certified out, but later tiles with the
                   ///< same bound may still win on rank — keep going
  kPruneRest = 2,  ///< strictly below the threshold: in a descending-bound
                   ///< visit order every remaining tile is certified out too
};

/// Canonical tile-screening rule for heaps fed via offer_ranked.  A tile is
/// certified out when no pixel in it can enter the canonical top-K: either
/// its bound is strictly below the K-th best score, or it exactly ties the
/// threshold but even its best-ranked pixel (top-left corner) ranks at or
/// after the heap's worst entry, so an exact tie could not displace anything.
inline TilePrune screen_tile(const TopK<RasterHit>& top, double tile_hi,
                             std::uint64_t tile_min_rank) {
  if (!top.full()) return TilePrune::kScan;
  const double threshold = top.threshold();
  if (tile_hi < threshold) return TilePrune::kPruneRest;
  if (tile_hi == threshold && tile_min_rank >= top.worst_rank()) return TilePrune::kPruneOne;
  return TilePrune::kScan;
}

/// Closes out an executor's trace span: result shape plus the meter's totals
/// at stage close (per-pixel work is charged to the meter, never traced
/// per-event, so tracing cost stays per-stage).
inline void annotate_result(const obs::Span& span, const RasterTopK& out,
                            const CostMeter& meter) {
  if (!span.active()) return;
  span.annotate("hits", static_cast<double>(out.hits.size()));
  span.annotate("bad_points", static_cast<double>(out.bad_points));
  span.annotate("meter_points", static_cast<double>(meter.points()));
  span.annotate("meter_ops", static_cast<double>(meter.ops()));
  span.annotate("meter_pruned", static_cast<double>(meter.pruned()));
  span.note("status", to_string(out.status));
}

/// Publishes the §4.2 efficiency-model inputs on an executor span: archive
/// size n (total pixels), full-model cost N (ops per full evaluation),
/// pixels whose evaluation began, and the ops spent inside the scan stage
/// (excluding the metadata pass).  obs::ExplainReport derives the empirical
/// pm = visited·N / scan_ops and pd = n / visited from exactly these four,
/// whichever execution path (serial, parallel, sharded) emitted them.
inline void annotate_efficiency(const obs::Span& span, const TiledArchive& archive,
                                std::uint64_t model_terms, std::uint64_t pixels_visited,
                                std::uint64_t scan_ops) {
  if (!span.active()) return;
  span.annotate("total_pixels",
                static_cast<double>(archive.width()) * static_cast<double>(archive.height()));
  span.annotate("model_terms", static_cast<double>(model_terms));
  span.annotate("pixels_visited", static_cast<double>(pixels_visited));
  span.annotate("scan_ops", static_cast<double>(scan_ops));
}

/// Status of an execution that ran out its loops without truncating.
inline ResultStatus completion_status(const TiledArchive& archive, std::uint64_t bad_points) {
  // An archive carrying poisoned samples yields a degraded answer even when
  // this query never touched them (a pruned tile's NaN could have been
  // anything): the result is exact over the *finite* data only.
  return bad_points > 0 || archive.bad_pixel_count() > 0 ? ResultStatus::kDegraded
                                                         : ResultStatus::kComplete;
}

}  // namespace mmir::exec
