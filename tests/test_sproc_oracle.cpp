// Randomized oracle for the three composite-query processors: across
// hundreds of seeded random fuzzy Cartesian queries — including degenerate
// strata (all-zero degrees, single-component, single-item libraries, and
// all-NaN degree tables) — brute force, the k-best DP, and the fast
// threshold processor must return identical top-K score lists, sharded or
// not, and sharded brute force must keep the monolithic tie order.
//
// Failing case seeds are printed so any divergence reproduces standalone.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "engine/shard_exec.hpp"
#include "engine/thread_pool.hpp"
#include "sproc/brute.hpp"
#include "sproc/fast_sproc.hpp"
#include "sproc/sproc.hpp"
#include "util/rng.hpp"

namespace mmir {
namespace {

constexpr std::size_t kCases = 240;

/// Degree tables owned by shared_ptr so the query's lambdas stay valid after
/// the factory returns.
struct TableData {
  std::size_t components = 0;
  std::size_t library = 0;
  std::vector<double> unary;   // [m * library + j]
  std::vector<double> binary;  // [((m-1) * library + i) * library + j]
};

struct OracleCase {
  std::uint64_t seed = 0;
  std::string stratum;
  std::size_t k = 1;
  CartesianQuery query;
  std::shared_ptr<TableData> data;

  [[nodiscard]] std::string describe() const {
    std::ostringstream os;
    os << "seed=" << seed << " stratum=" << stratum << " M=" << data->components
       << " L=" << data->library << " k=" << k
       << " tnorm=" << (query.tnorm == TNorm::kProduct ? "product" : "min");
    return os.str();
  }
};

CartesianQuery bind_query(const std::shared_ptr<TableData>& data, TNorm tnorm) {
  CartesianQuery q;
  q.components = data->components;
  q.library_size = data->library;
  q.tnorm = tnorm;
  q.unary = [data](std::size_t m, std::uint32_t j) {
    return data->unary[m * data->library + j];
  };
  q.binary = [data](std::size_t m, std::uint32_t i, std::uint32_t j) {
    return data->binary[((m - 1) * data->library + i) * data->library + j];
  };
  return q;
}

OracleCase make_case(std::uint64_t seed) {
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 11);
  OracleCase c;
  c.seed = seed;

  auto data = std::make_shared<TableData>();
  const std::uint64_t stratum = seed % 6;
  switch (stratum) {
    case 0: c.stratum = "dense"; break;
    case 1: c.stratum = "sparse"; break;
    case 2: c.stratum = "all_zero"; break;
    case 3: c.stratum = "single_component"; break;
    case 4: c.stratum = "single_item"; break;
    case 5: c.stratum = "all_nan"; break;
  }

  data->components = c.stratum == "single_component" ? 1 : 2 + rng.uniform_int(3);  // 2..4
  data->library = c.stratum == "single_item" ? 1 : 2 + rng.uniform_int(6);          // 2..7
  data->unary.resize(data->components * data->library);
  data->binary.resize(data->components > 1
                          ? (data->components - 1) * data->library * data->library
                          : 0);

  const double sparsity = c.stratum == "sparse" ? 0.5 : 0.1;
  const auto degree = [&]() -> double {
    if (c.stratum == "all_zero") return 0.0;
    if (c.stratum == "all_nan") return std::numeric_limits<double>::quiet_NaN();
    return rng.bernoulli(sparsity) ? 0.0 : rng.uniform(0.0, 1.0);
  };
  for (double& u : data->unary) u = degree();
  for (double& b : data->binary) b = degree();

  c.k = 1 + rng.uniform_int(12);
  c.data = data;
  c.query = bind_query(data, rng.bernoulli(0.5) ? TNorm::kProduct : TNorm::kMin);
  return c;
}

TEST(SprocOracle, BruteDpAndFastAgreeOnRandomQueries) {
  std::vector<std::uint64_t> failing_seeds;
  for (std::uint64_t seed = 0; seed < kCases; ++seed) {
    const OracleCase c = make_case(seed);
    SCOPED_TRACE(c.describe());

    CostMeter brute_meter;
    CostMeter dp_meter;
    CostMeter fast_meter;
    const std::vector<CompositeMatch> brute = brute_force_top_k(c.query, c.k, brute_meter);
    const std::vector<CompositeMatch> dp = sproc_top_k(c.query, c.k, dp_meter);
    const std::vector<CompositeMatch> fast = fast_sproc_top_k(c.query, c.k, fast_meter);

    bool ok = true;
    if (!same_scores(brute, dp)) {
      ADD_FAILURE() << "brute vs DP diverge";
      ok = false;
    }
    if (!same_scores(brute, fast)) {
      ADD_FAILURE() << "brute vs fast diverge";
      ok = false;
    }
    // Every reported assignment must reproduce its score from the degree
    // tables (sanitized the way the processors see them).
    for (const auto* matches : {&brute, &dp, &fast}) {
      for (const CompositeMatch& match : *matches) {
        double score = 1.0;
        for (std::size_t m = 0; m < c.query.components; ++m) {
          score = tnorm_combine(c.query.tnorm, score,
                                sanitize_degree(c.query.unary(m, match.items[m])));
          if (m > 0) {
            score = tnorm_combine(
                c.query.tnorm, score,
                sanitize_degree(c.query.binary(m, match.items[m - 1], match.items[m])));
          }
        }
        if (std::abs(score - match.score) > 1e-12) {
          ADD_FAILURE() << "assignment does not reproduce its score (got " << match.score
                        << ", recomputed " << score << ")";
          ok = false;
        }
      }
    }
    if (c.stratum == "all_zero" || c.stratum == "all_nan") {
      // Zero (and sanitized-NaN) degrees can never form a positive composite.
      EXPECT_TRUE(brute.empty()) << "all-" << c.stratum << " query produced matches";
      ok = ok && brute.empty();
    }
    if (!ok) failing_seeds.push_back(seed);
  }

  if (!failing_seeds.empty()) {
    std::ostringstream os;
    os << "failing case seeds:";
    for (std::uint64_t s : failing_seeds) os << ' ' << s;
    ADD_FAILURE() << os.str();
  }
}

// Sharded-vs-monolithic oracle: partitioning the component-0 item domain
// across S shards (each slice run by any of the three processors, merged at
// gather) must reproduce the monolithic brute-force ranking score for score —
// the slices partition the positive-score candidate space, so nothing can be
// lost or double-counted.
TEST(SprocOracle, ShardedScatterGatherMatchesMonolithicBruteForce) {
  const ShardedSprocProcessor processors[] = {ShardedSprocProcessor::kFastSproc,
                                              ShardedSprocProcessor::kSproc,
                                              ShardedSprocProcessor::kBruteForce};
  std::vector<std::uint64_t> failing_seeds;
  for (std::uint64_t seed = 0; seed < 80; ++seed) {
    const OracleCase c = make_case(seed);
    SCOPED_TRACE(c.describe());

    CostMeter exact_meter;
    const std::vector<CompositeMatch> exact = brute_force_top_k(c.query, c.k, exact_meter);

    bool ok = true;
    for (std::size_t shards : {1UL, 2UL, 3UL}) {
      for (ShardedSprocProcessor processor : processors) {
        for (std::size_t workers : {0UL, 2UL}) {
          ThreadPool pool(workers);
          QueryContext ctx;
          CostMeter meter;
          const CompositeTopK result =
              sharded_composite_top_k(c.query, shards, processor, c.k, ctx, meter, pool);
          if (result.status != ResultStatus::kComplete &&
              result.status != ResultStatus::kDegraded) {
            ADD_FAILURE() << "unbudgeted sharded run truncated (shards=" << shards << ")";
            ok = false;
          } else if (!same_scores(exact, result.matches)) {
            ADD_FAILURE() << "sharded (S=" << shards
                          << " processor=" << static_cast<int>(processor)
                          << " workers=" << workers << ") diverges from monolithic brute force";
            ok = false;
          }
        }
      }
    }
    if (!ok) failing_seeds.push_back(seed);
  }
  if (!failing_seeds.empty()) {
    std::ostringstream os;
    os << "failing case seeds:";
    for (std::uint64_t s : failing_seeds) os << ' ' << s;
    ADD_FAILURE() << os.str();
  }
}

// The sharded oracle again with every degree rounded up to a quarter, so
// products and minima tie exactly and many matches share a score.  The
// brute-force odometer keeps the lexicographically smaller assignment on a
// tie, and so must the gather: sharded brute force returns the monolithic
// matches assignment for assignment, at every shard and worker count.  The
// other processors keep their own tie order inside a shard, so for them the
// scores alone must agree.
TEST(SprocOracle, ShardedExactTiesMergeToTheBruteForceAssignments) {
  std::vector<std::uint64_t> failing_seeds;
  std::size_t tied_cases = 0;
  for (std::uint64_t seed = 0; seed < 80; ++seed) {
    const OracleCase c = make_case(seed + 1000);
    for (double& u : c.data->unary) u = std::ceil(4.0 * u) / 4.0;
    for (double& b : c.data->binary) b = std::ceil(4.0 * b) / 4.0;
    SCOPED_TRACE(c.describe());

    CostMeter exact_meter;
    const std::vector<CompositeMatch> exact = brute_force_top_k(c.query, c.k, exact_meter);
    for (std::size_t i = 1; i < exact.size(); ++i) {
      if (exact[i].score == exact[i - 1].score) {
        ++tied_cases;
        break;
      }
    }

    bool ok = true;
    for (std::size_t shards : {2UL, 3UL, 4UL}) {
      for (std::size_t workers : {0UL, 2UL}) {
        ThreadPool pool(workers);
        for (ShardedSprocProcessor processor :
             {ShardedSprocProcessor::kBruteForce, ShardedSprocProcessor::kSproc,
              ShardedSprocProcessor::kFastSproc}) {
          QueryContext ctx;
          CostMeter meter;
          const CompositeTopK result =
              sharded_composite_top_k(c.query, shards, processor, c.k, ctx, meter, pool);
          bool same = same_scores(exact, result.matches);
          if (same && processor == ShardedSprocProcessor::kBruteForce) {
            for (std::size_t i = 0; i < exact.size(); ++i) {
              same = same && result.matches[i].items == exact[i].items;
            }
          }
          if (!same) {
            ADD_FAILURE() << "sharded (S=" << shards << " processor="
                          << static_cast<int>(processor) << " workers=" << workers
                          << ") diverges from monolithic brute force";
            ok = false;
          }
        }
      }
    }
    if (!ok) failing_seeds.push_back(seed + 1000);
  }
  // The rounding really produces exact ties inside the answers.
  EXPECT_GT(tied_cases, 20u);
  if (!failing_seeds.empty()) {
    std::ostringstream os;
    os << "failing case seeds:";
    for (std::uint64_t s : failing_seeds) os << ' ' << s;
    ADD_FAILURE() << os.str();
  }
}

// Truncated processors must stay sound: under a tight budget the fast
// processor's certified prefix is a prefix of the exact ranking.
TEST(SprocOracle, BudgetedFastSprocCertifiesSoundPrefix) {
  std::vector<std::uint64_t> failing_seeds;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    OracleCase c = make_case(seed * 7 + 1);
    if (c.stratum == "all_zero" || c.stratum == "all_nan") continue;
    SCOPED_TRACE(c.describe());

    CostMeter exact_meter;
    const std::vector<CompositeMatch> exact = brute_force_top_k(c.query, c.k, exact_meter);

    Rng rng(c.seed + 99);
    QueryContext ctx;
    ctx.with_op_budget(1 + rng.uniform_int(256)).with_check_interval(1);
    CostMeter meter;
    const CompositeTopK result = fast_sproc_top_k(c.query, c.k, ctx, meter);
    bool ok = true;
    if (result.status == ResultStatus::kComplete) {
      ok = same_scores(exact, result.matches);
      EXPECT_TRUE(ok) << "within-budget completion diverges from exact";
    } else {
      const std::size_t certified = result.certified_prefix();
      ASSERT_LE(certified, exact.size());
      for (std::size_t i = 0; i < certified; ++i) {
        if (std::abs(result.matches[i].score - exact[i].score) > 1e-9) {
          ADD_FAILURE() << "certified rank " << i << " diverges";
          ok = false;
        }
      }
    }
    if (!ok) failing_seeds.push_back(c.seed);
  }
  if (!failing_seeds.empty()) {
    std::ostringstream os;
    os << "failing case seeds:";
    for (std::uint64_t s : failing_seeds) os << ' ' << s;
    ADD_FAILURE() << os.str();
  }
}

}  // namespace
}  // namespace mmir
