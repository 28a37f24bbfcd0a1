#include "index/onion.hpp"

#include <algorithm>
#include <cmath>

#include "index/hull2d.hpp"
#include "index/hull3d.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/topk.hpp"

namespace mmir {

OnionIndex::OnionIndex(const TupleSet& points, OnionConfig config) : points_(points) {
  MMIR_EXPECTS(points_.size() > 0);
  MMIR_EXPECTS(config.max_layers > 0);
  exact_ = points_.dim() <= 3;
  if (!exact_) {
    // Sample unit directions once; peeling extremes over them approximates
    // the hull vertex set in high dimensions.
    // Stored dim-major, so one peel pass scores every direction per point.
    MMIR_EXPECTS(config.direction_samples > 0);
    const std::size_t dim = points_.dim();
    const std::size_t count = config.direction_samples;
    Rng rng(config.seed);
    directions_.resize(dim * count);
    std::vector<double> dir(dim);
    for (std::size_t j = 0; j < count; ++j) {
      double norm = 0.0;
      for (auto& v : dir) {
        v = rng.normal();
        norm += v * v;
      }
      norm = std::sqrt(norm);
      for (std::size_t d = 0; d < dim; ++d) directions_[d * count + j] = dir[d] / norm;
    }
  }
  build(config);
}

void OnionIndex::build(const OnionConfig& config) {
  std::vector<std::uint32_t> alive(points_.size());
  for (std::size_t i = 0; i < alive.size(); ++i) alive[i] = static_cast<std::uint32_t>(i);

  while (!alive.empty() && layers_.size() < config.max_layers) {
    std::vector<std::uint32_t> layer = peel_once(alive, config);
    if (layer.empty()) break;  // defensive: peel must make progress
    std::sort(layer.begin(), layer.end());
    std::vector<std::uint32_t> next_alive;
    next_alive.reserve(alive.size() - layer.size());
    std::set_difference(alive.begin(), alive.end(), layer.begin(), layer.end(),
                        std::back_inserter(next_alive));
    layers_.push_back(std::move(layer));
    alive = std::move(next_alive);
  }
  residual_ = std::move(alive);

  // Suffix bounding boxes, innermost outward: box[i] covers layers >= i and
  // the residual.
  const std::size_t dim = points_.dim();
  const auto grow = [&](std::vector<Interval>& box, std::uint32_t id) {
    const auto row = points_.row(id);
    for (std::size_t d = 0; d < dim; ++d) box[d] = box[d].hull(Interval::point(row[d]));
  };
  std::vector<Interval> suffix;
  bool suffix_started = false;
  const auto start_or_grow = [&](std::uint32_t id) {
    if (!suffix_started) {
      const auto row = points_.row(id);
      suffix.assign(dim, Interval::point(row[0]));
      for (std::size_t d = 0; d < dim; ++d) suffix[d] = Interval::point(row[d]);
      suffix_started = true;
    } else {
      grow(suffix, id);
    }
  };
  for (auto id : residual_) start_or_grow(id);
  if (!residual_.empty()) residual_box_ = suffix;
  layer_boxes_.resize(layers_.size());
  for (std::size_t l = layers_.size(); l-- > 0;) {
    for (auto id : layers_[l]) start_or_grow(id);
    layer_boxes_[l] = suffix;
  }
}

std::vector<std::uint32_t> OnionIndex::peel_once(std::span<const std::uint32_t> alive,
                                                 const OnionConfig&) const {
  if (alive.size() <= points_.dim() + 1) {
    return {alive.begin(), alive.end()};  // tiny remainder: one final layer
  }
  switch (points_.dim()) {
    case 2:
      return convex_hull_2d(points_, alive);
    case 3:
      return convex_hull_3d(points_, alive);
    default: {
      // Directional-extreme peel: argmax and argmin per sampled direction,
      // all directions scored in one walk over the alive points.  Each score
      // sums row[d]·dir[d] in index order from 0 (dot()'s arithmetic), and
      // the strict comparisons in alive order keep the first id on ties.
      const std::size_t dim = points_.dim();
      const std::size_t count = directions_.size() / dim;
      std::vector<double> score(count);
      const auto score_all = [&](std::uint32_t id) {
        const auto row = points_.row(id);
        std::fill(score.begin(), score.end(), 0.0);
        for (std::size_t d = 0; d < dim; ++d) {
          const double x = row[d];
          const double* dir = directions_.data() + d * count;
          for (std::size_t j = 0; j < count; ++j) score[j] += x * dir[j];
        }
      };
      score_all(alive[0]);
      std::vector<double> vmax = score;
      std::vector<double> vmin = score;
      std::vector<std::uint32_t> best_max(count, alive[0]);
      std::vector<std::uint32_t> best_min(count, alive[0]);
      for (auto id : alive.subspan(1)) {
        score_all(id);
        for (std::size_t j = 0; j < count; ++j) {
          if (score[j] > vmax[j]) {
            vmax[j] = score[j];
            best_max[j] = id;
          }
          if (score[j] < vmin[j]) {
            vmin[j] = score[j];
            best_min[j] = id;
          }
        }
      }
      std::vector<std::uint32_t> extremes;
      extremes.reserve(2 * count);
      for (std::size_t j = 0; j < count; ++j) {
        extremes.push_back(best_max[j]);
        extremes.push_back(best_min[j]);
      }
      std::sort(extremes.begin(), extremes.end());
      extremes.erase(std::unique(extremes.begin(), extremes.end()), extremes.end());
      return extremes;
    }
  }
}

std::span<const std::uint32_t> OnionIndex::layer(std::size_t i) const {
  MMIR_EXPECTS(i < layers_.size());
  return layers_[i];
}

std::size_t OnionIndex::size() const noexcept {
  std::size_t total = residual_.size();
  for (const auto& l : layers_) total += l.size();
  return total;
}

OnionTopK OnionIndex::query(std::span<const double> weights, std::size_t k, double sign,
                            QueryContext& ctx, CostMeter& meter) const {
  MMIR_EXPECTS(weights.size() == points_.dim());
  MMIR_EXPECTS(k > 0);
  ScopedTimer timer(meter);
  obs::Span span = obs::Span::child_of(ctx.span(), "onion_query");
  OnionTopK out;
  TopK<std::uint32_t> top(k);
  const std::uint64_t ops_per_point = points_.dim();
  // Offered under the id as rank, so exact ties keep the smallest ids: the
  // canonical (score desc, id asc) top-K the sequential scan returns,
  // whatever order the layers visit the points in.
  const auto evaluate = [&](std::uint32_t id) {
    top.offer_ranked(sign * dot(points_.row(id), weights), id, id);
  };

  // Signed linear bound of a suffix box: max of sign*(w.x) over the box.
  const auto box_bound = [&](const std::vector<Interval>& box) {
    double bound = 0.0;
    for (std::size_t d = 0; d < box.size(); ++d) {
      const double sw = sign * weights[d];
      bound += sw >= 0.0 ? sw * box[d].hi : sw * box[d].lo;
    }
    return bound;
  };

  // Scans a contiguous id list, charging per point; returns false (and
  // records the sound missed bound for the enclosing suffix box) on expiry.
  bool truncated = false;
  const auto scan_ids = [&](std::span<const std::uint32_t> ids, const std::vector<Interval>& box,
                            std::size_t& evaluated) {
    for (auto id : ids) {
      if (!ctx.charge(ops_per_point)) {
        // The suffix box covers this id list and everything deeper, so its
        // bound soundly covers every unexamined point.
        out.missed_bound = sign * box_bound(box);
        truncated = true;
        return false;
      }
      evaluate(id);
      ++evaluated;
    }
    return true;
  };

  // The j-th best lies within the first j layers, so scanning min(k, L)
  // layers suffices; the suffix-box bound usually terminates much earlier —
  // as soon as nothing at or below the current layer can reach the K-th
  // best.  Only a bound strictly below it stops the scan: a deeper point
  // tying the K-th best with a smaller id still enters the canonical top-K.
  const std::size_t scan_layers = std::min(k, layers_.size());
  std::size_t evaluated = 0;
  bool terminated_early = false;
  for (std::size_t l = 0; l < scan_layers && !truncated; ++l) {
    if (top.full() && box_bound(layer_boxes_[l]) < top.threshold()) {
      terminated_early = true;
      break;
    }
    if (!scan_ids(layers_[l], layer_boxes_[l], evaluated)) break;
    meter.add_ops(points_.dim());  // the suffix-box bound check
  }
  // When k exceeds the peeled depth the guarantee needs the leftovers too.
  if (k > layers_.size() && !terminated_early && !truncated) {
    for (std::size_t l = scan_layers; l < layers_.size() && !truncated; ++l) {
      if (top.full() && box_bound(layer_boxes_[l]) < top.threshold()) {
        terminated_early = true;
        break;
      }
      if (!scan_ids(layers_[l], layer_boxes_[l], evaluated)) break;
    }
    if (!terminated_early && !truncated &&
        !(top.full() && !residual_.empty() && box_bound(residual_box_) < top.threshold())) {
      (void)scan_ids(residual_, residual_box_, evaluated);
    }
  }
  meter.add_points(evaluated);
  meter.add_ops(evaluated * points_.dim());
  meter.add_bytes(evaluated * points_.dim() * sizeof(double));

  for (auto& entry : top.take_sorted()) out.hits.push_back(ScoredId{entry.item, sign * entry.score});
  if (truncated) out.status = ctx.stop_reason();
  if (span.active()) {
    span.annotate("layers", static_cast<double>(layers_.size()));
    span.annotate("points_evaluated", static_cast<double>(evaluated));
    // Candidate accounting for EXPLAIN: every indexed point is a candidate;
    // whatever the layer/suffix bounds kept us from touching was pruned.
    span.annotate("items_examined", static_cast<double>(evaluated));
    span.annotate("items_pruned", static_cast<double>(size() - evaluated));
    span.annotate("hits", static_cast<double>(out.hits.size()));
    span.note("terminated_early", terminated_early ? "true" : "false");
    span.note("status", to_string(out.status));
  }
  return out;
}

std::vector<ScoredId> OnionIndex::top_k(std::span<const double> weights, std::size_t k,
                                        CostMeter& meter) const {
  QueryContext unbounded;
  return std::move(query(weights, k, 1.0, unbounded, meter).hits);
}

OnionTopK OnionIndex::top_k(std::span<const double> weights, std::size_t k, QueryContext& ctx,
                            CostMeter& meter) const {
  return query(weights, k, 1.0, ctx, meter);
}

std::vector<ScoredId> OnionIndex::bottom_k(std::span<const double> weights, std::size_t k,
                                           CostMeter& meter) const {
  QueryContext unbounded;
  return std::move(query(weights, k, -1.0, unbounded, meter).hits);
}

OnionTopK OnionIndex::bottom_k(std::span<const double> weights, std::size_t k, QueryContext& ctx,
                               CostMeter& meter) const {
  return query(weights, k, -1.0, ctx, meter);
}

OnionTopK merge_onion_partials(std::span<const OnionTopK> partials, std::size_t k) {
  MMIR_EXPECTS(k > 0);
  OnionTopK out;
  TopK<std::uint32_t> top(k);
  bool all_shed = !partials.empty();
  ResultStatus truncated = ResultStatus::kComplete;
  for (const OnionTopK& partial : partials) {
    for (const ScoredId& hit : partial.hits) top.offer_ranked(hit.score, hit.id, hit.id);
    out.missed_bound = std::max(out.missed_bound, partial.missed_bound);
    if (partial.status != ResultStatus::kShed) all_shed = false;
    if (is_truncated(partial.status) && truncated == ResultStatus::kComplete) {
      truncated = partial.status;
    }
  }
  for (auto& entry : top.take_sorted()) out.hits.push_back(ScoredId{entry.item, entry.score});
  if (all_shed) {
    out.status = ResultStatus::kShed;
    out.missed_bound = std::numeric_limits<double>::infinity();
  } else {
    out.status = truncated;
  }
  return out;
}

ShardedOnionIndex::ShardedOnionIndex(const TupleSet& points, std::size_t shard_count,
                                     OnionConfig config) {
  MMIR_EXPECTS(points.size() > 0);
  MMIR_EXPECTS(shard_count > 0);
  const std::size_t count = std::min(shard_count, points.size());
  const std::size_t dim = points.dim();
  slices_.reserve(count);
  global_ids_.assign(count, {});
  for (std::size_t s = 0; s < count; ++s) slices_.emplace_back(dim);
  for (std::size_t id = 0; id < points.size(); ++id) {
    const std::size_t s = id % count;
    slices_[s].push_row(points.row(id));
    global_ids_[s].push_back(static_cast<std::uint32_t>(id));
  }
  // slices_ never reallocates past this point, so the references the
  // per-shard indexes capture stay valid for the index's lifetime.
  indexes_.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    indexes_.push_back(std::make_unique<OnionIndex>(slices_[s], config));
  }
}

const OnionIndex& ShardedOnionIndex::shard(std::size_t s) const {
  MMIR_EXPECTS(s < indexes_.size());
  return *indexes_[s];
}

std::uint32_t ShardedOnionIndex::global_id(std::size_t s, std::uint32_t local) const {
  MMIR_EXPECTS(s < global_ids_.size());
  MMIR_EXPECTS(local < global_ids_[s].size());
  return global_ids_[s][local];
}

std::size_t ShardedOnionIndex::size() const noexcept {
  std::size_t total = 0;
  for (const auto& ids : global_ids_) total += ids.size();
  return total;
}

OnionTopK ShardedOnionIndex::top_k(std::span<const double> weights, std::size_t k,
                                   QueryContext& ctx, CostMeter& meter) const {
  std::vector<OnionTopK> partials;
  partials.reserve(indexes_.size());
  for (std::size_t s = 0; s < indexes_.size(); ++s) {
    OnionTopK partial = indexes_[s]->top_k(weights, k, ctx, meter);
    for (ScoredId& hit : partial.hits) hit.id = global_id(s, hit.id);
    partials.push_back(std::move(partial));
  }
  return merge_onion_partials(partials, k);
}

}  // namespace mmir
