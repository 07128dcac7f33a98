// 2-D probabilistic histograms: rectangle oracle, exact guillotine DP,
// greedy splitting.

#include "core/histogram2d.h"

#include <limits>

#include <gtest/gtest.h>

#include "core/histogram.h"
#include "gen/generators.h"
#include "reference/brute_force.h"
#include "reference/reference_solvers.h"
#include "util/logging.h"
#include "util/random.h"

namespace probsyn {
namespace {

ProbGrid2D RandomGrid(std::size_t w, std::size_t h, std::uint64_t seed) {
  ValuePdfInput flat = GenerateRandomValuePdf(
      {.domain_size = w * h, .max_support = 3, .max_value = 6, .seed = seed});
  auto grid = ProbGrid2D::Create(w, h, flat.items());
  PROBSYN_CHECK(grid.ok());
  return std::move(grid).value();
}

SynopsisOptions SseOptions() {
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  options.sse_variant = SseVariant::kFixedRepresentative;
  return options;
}

TEST(ProbGrid2D, CreateValidation) {
  EXPECT_FALSE(ProbGrid2D::Create(0, 3, {}).ok());
  EXPECT_FALSE(ProbGrid2D::Create(2, 2, {ValuePdf::PointMass(1)}).ok());
  EXPECT_FALSE(
      ProbGrid2D::Create(1, 1, {ValuePdf()}).ok());  // empty pdf
  auto ok = ProbGrid2D::Create(
      2, 1, {ValuePdf::PointMass(1), ValuePdf::PointMass(2)});
  ASSERT_TRUE(ok.ok());
  EXPECT_DOUBLE_EQ(ok->cell(1, 0).Mean(), 2.0);
}

TEST(Histogram2D, ValidateTilingRules) {
  Histogram2D good({{{0, 0, 1, 1}, 1.0}, {{2, 0, 2, 1}, 2.0}});
  EXPECT_TRUE(good.Validate(3, 2).ok());

  Histogram2D overlap({{{0, 0, 1, 1}, 1.0}, {{1, 0, 2, 1}, 2.0}});
  EXPECT_FALSE(overlap.Validate(3, 2).ok());

  Histogram2D gap({{{0, 0, 0, 1}, 1.0}, {{2, 0, 2, 1}, 2.0}});
  EXPECT_FALSE(gap.Validate(3, 2).ok());

  Histogram2D oob({{{0, 0, 3, 1}, 1.0}});
  EXPECT_FALSE(oob.Validate(3, 2).ok());
}

TEST(Histogram2D, EstimatesAndRangeSums) {
  Histogram2D h({{{0, 0, 1, 1}, 2.0}, {{2, 0, 2, 1}, 5.0}});
  ASSERT_TRUE(h.Validate(3, 2).ok());
  EXPECT_DOUBLE_EQ(h.Estimate(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(h.Estimate(2, 1), 5.0);
  EXPECT_DOUBLE_EQ(h.EstimateRangeSum({0, 0, 2, 1}), 4 * 2.0 + 2 * 5.0);
  EXPECT_DOUBLE_EQ(h.EstimateRangeSum({1, 1, 2, 1}), 2.0 + 5.0);
}

TEST(RectOracle2D, MatchesDirectComputation) {
  ProbGrid2D grid = RandomGrid(5, 4, 11);
  auto oracle = RectCostOracle2D::Create(grid, SseOptions());
  ASSERT_TRUE(oracle.ok());
  Rng rng(3);
  for (int trial = 0; trial < 40; ++trial) {
    std::size_t x0 = rng.NextBounded(5), x1 = x0 + rng.NextBounded(5 - x0);
    std::size_t y0 = rng.NextBounded(4), y1 = y0 + rng.NextBounded(4 - y0);
    Rect rect{x0, y0, x1, y1};
    auto got = oracle->Cost(rect);

    // Direct: optimal representative is the mean of expected frequencies;
    // cost is sum E[(g - rep)^2].
    double mean = 0.0;
    for (std::size_t y = y0; y <= y1; ++y) {
      for (std::size_t x = x0; x <= x1; ++x) mean += grid.cell(x, y).Mean();
    }
    mean /= static_cast<double>(rect.area());
    double direct = 0.0;
    for (std::size_t y = y0; y <= y1; ++y) {
      for (std::size_t x = x0; x <= x1; ++x) {
        direct += grid.cell(x, y).ExpectedSquaredDeviation(mean);
      }
    }
    EXPECT_NEAR(got.representative, mean, 1e-9);
    EXPECT_NEAR(got.cost, direct, 1e-8);
  }
}

TEST(RectOracle2D, RejectsUnsupportedMetrics) {
  ProbGrid2D grid = RandomGrid(3, 3, 1);
  SynopsisOptions abs;
  abs.metric = ErrorMetric::kSae;
  EXPECT_FALSE(RectCostOracle2D::Create(grid, abs).ok());
  SynopsisOptions world_mean;
  world_mean.metric = ErrorMetric::kSse;
  world_mean.sse_variant = SseVariant::kWorldMean;
  EXPECT_FALSE(RectCostOracle2D::Create(grid, world_mean).ok());
}

TEST(Guillotine2D, DegeneratesToOneDimensionalDp) {
  // A 1 x n grid: guillotine partitions are exactly 1-D bucketings, so the
  // DP must match the 1-D V-optimal histogram cost.
  ValuePdfInput flat = GenerateRandomValuePdf(
      {.domain_size = 10, .max_support = 3, .max_value = 6, .seed = 5});
  auto grid = ProbGrid2D::Create(10, 1, flat.items());
  ASSERT_TRUE(grid.ok());
  for (std::size_t b : {1u, 2u, 3u, 5u}) {
    auto two_d = BuildOptimalGuillotineHistogram2D(grid.value(), SseOptions(), b);
    ASSERT_TRUE(two_d.ok());
    // 1-D comparison via the exhaustive bucketization oracle.
    double best_1d = std::numeric_limits<double>::infinity();
    auto oracle = RectCostOracle2D::Create(grid.value(), SseOptions());
    ASSERT_TRUE(oracle.ok());
    reference::ForEachBucketization(
        10, b, [&](const std::vector<std::size_t>& ends) {
          double total = 0.0;
          std::size_t start = 0;
          for (std::size_t end : ends) {
            total += oracle->Cost({start, 0, end, 0}).cost;
            start = end + 1;
          }
          best_1d = std::min(best_1d, total);
        });
    // "At most b" vs "exactly b": the DP may use fewer buckets.
    EXPECT_LE(two_d->cost, best_1d + 1e-9) << "B=" << b;
    if (b == 1) {
      EXPECT_NEAR(two_d->cost, best_1d, 1e-9);
    }
  }
}

TEST(Guillotine2D, MatchesBruteForceOnTinyGrids) {
  // 2x2 grid, B=2: candidate partitions are {whole}, {left|right},
  // {top|bottom}; enumerate by hand.
  ProbGrid2D grid = RandomGrid(2, 2, 7);
  auto oracle = RectCostOracle2D::Create(grid, SseOptions());
  ASSERT_TRUE(oracle.ok());
  double whole = oracle->Cost({0, 0, 1, 1}).cost;
  double vertical =
      oracle->Cost({0, 0, 0, 1}).cost + oracle->Cost({1, 0, 1, 1}).cost;
  double horizontal =
      oracle->Cost({0, 0, 1, 0}).cost + oracle->Cost({0, 1, 1, 1}).cost;
  double expected = std::min({whole, vertical, horizontal});

  auto result = BuildOptimalGuillotineHistogram2D(grid, SseOptions(), 2);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->cost, expected, 1e-9);
  EXPECT_TRUE(result->histogram.Validate(2, 2).ok());
}

TEST(Guillotine2D, MonotoneInBudgetAndConsistentWithEvaluation) {
  ProbGrid2D grid = RandomGrid(6, 5, 13);
  double prev = std::numeric_limits<double>::infinity();
  for (std::size_t b = 1; b <= 8; ++b) {
    auto result = BuildOptimalGuillotineHistogram2D(grid, SseOptions(), b);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->cost, prev + 1e-9) << "B=" << b;
    prev = result->cost;
    auto evaluated = EvaluateHistogram2D(grid, result->histogram, SseOptions());
    ASSERT_TRUE(evaluated.ok());
    EXPECT_NEAR(*evaluated, result->cost, 1e-8) << "B=" << b;
  }
}

// The library solver (budget-vector memo + SIMD budget-split reduction)
// must reproduce the recursive scan of tests/reference bit-for-bit: costs
// AND the extracted tiling (traceback cut / orientation / budget-split
// ties).
void ExpectMatchesReference(const ProbGrid2D& grid,
                            const SynopsisOptions& options, std::size_t b,
                            const std::string& label) {
  auto reference = reference::BuildGuillotineHistogram2D(grid, options, b);
  auto fast = BuildOptimalGuillotineHistogram2D(grid, options, b);
  ASSERT_TRUE(reference.ok() && fast.ok()) << label;
  EXPECT_EQ(reference->cost, fast->cost) << label;
  EXPECT_EQ(reference->histogram.buckets(), fast->histogram.buckets())
      << label;
}

TEST(Guillotine2D, MinScanKernelMatchesReferenceBitForBit) {
  for (std::uint64_t seed : {4u, 19u, 31u}) {
    ProbGrid2D grid = RandomGrid(6, 5, seed);
    for (std::size_t b = 1; b <= 10; ++b) {
      ExpectMatchesReference(grid, SseOptions(), b,
                             "seed " + std::to_string(seed) +
                                 " B=" + std::to_string(b));
    }
  }
}

// Budgets up to and past the cell count: the per-rectangle budget vectors
// clamp at the area exactly where the recursive scan does.
TEST(Guillotine2D, DefaultKernelIsMinScan) {
  ProbGrid2D grid = RandomGrid(3, 3, 8);
  for (std::size_t b = 1; b <= 11; ++b) {
    ExpectMatchesReference(grid, SseOptions(), b, "B=" + std::to_string(b));
  }
}

TEST(Guillotine2D, SsreMetricAgreesAcrossKernels) {
  ProbGrid2D grid = RandomGrid(5, 4, 41);
  SynopsisOptions options;
  options.metric = ErrorMetric::kSsre;
  options.sanity_c = 0.5;
  ExpectMatchesReference(grid, options, 6, "SSRE B=6");
}

TEST(Guillotine2D, RejectsOversizedGrids) {
  ProbGrid2D grid = RandomGrid(10, 10, 2);
  auto result =
      BuildOptimalGuillotineHistogram2D(grid, SseOptions(), 4, /*max_cells=*/64);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(Greedy2D, ValidTilingAndEvaluationConsistency) {
  ProbGrid2D grid = RandomGrid(12, 9, 17);
  for (std::size_t b : {1u, 4u, 10u, 30u}) {
    auto result = BuildGreedyHistogram2D(grid, SseOptions(), b);
    ASSERT_TRUE(result.ok()) << "B=" << b;
    EXPECT_TRUE(result->histogram.Validate(12, 9).ok());
    EXPECT_LE(result->histogram.num_buckets(), b);
    auto evaluated = EvaluateHistogram2D(grid, result->histogram, SseOptions());
    ASSERT_TRUE(evaluated.ok());
    EXPECT_NEAR(*evaluated, result->cost, 1e-8);
  }
}

TEST(Greedy2D, NeverBeatsGuillotineOptimumAndStaysClose) {
  for (std::uint64_t seed : {3u, 9u, 27u}) {
    ProbGrid2D grid = RandomGrid(6, 6, seed);
    for (std::size_t b : {2u, 4u, 6u}) {
      auto exact = BuildOptimalGuillotineHistogram2D(grid, SseOptions(), b);
      auto greedy = BuildGreedyHistogram2D(grid, SseOptions(), b);
      ASSERT_TRUE(exact.ok() && greedy.ok());
      EXPECT_GE(greedy->cost, exact->cost - 1e-9)
          << "seed " << seed << " B=" << b;
      // Heuristic quality guard: within 2x of optimal on these inputs.
      EXPECT_LE(greedy->cost, 2.0 * exact->cost + 1e-6)
          << "seed " << seed << " B=" << b;
    }
  }
}

TEST(Greedy2D, SsreMetricWorks) {
  ProbGrid2D grid = RandomGrid(8, 8, 23);
  SynopsisOptions options;
  options.metric = ErrorMetric::kSsre;
  options.sanity_c = 0.5;
  auto result = BuildGreedyHistogram2D(grid, options, 6);
  ASSERT_TRUE(result.ok());
  auto evaluated = EvaluateHistogram2D(grid, result->histogram, options);
  ASSERT_TRUE(evaluated.ok());
  EXPECT_NEAR(*evaluated, result->cost, 1e-8);
}

TEST(Greedy2D, FindsPlantedBlockStructure) {
  // Four quadrants with distinct deterministic levels: with B=4 the greedy
  // must recover (near-)zero error.
  const std::size_t n = 8;
  std::vector<ValuePdf> cells;
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t x = 0; x < n; ++x) {
      double level = (x < n / 2 ? 1.0 : 5.0) + (y < n / 2 ? 0.0 : 10.0);
      cells.push_back(ValuePdf::PointMass(level));
    }
  }
  auto grid = ProbGrid2D::Create(n, n, std::move(cells));
  ASSERT_TRUE(grid.ok());
  auto result = BuildGreedyHistogram2D(grid.value(), SseOptions(), 4);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->cost, 0.0, 1e-9);
  EXPECT_EQ(result->histogram.num_buckets(), 4u);
}

}  // namespace
}  // namespace probsyn
