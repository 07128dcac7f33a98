// Workload-aware synopses (the paper's concluding-remarks extension):
// per-item query weights phi_i in every oracle, DP, and evaluator.

#include <limits>

#include <gtest/gtest.h>

#include "core/evaluate.h"
#include "core/histogram_dp.h"
#include "core/oracle_factory.h"
#include "core/wavelet_dp.h"
#include "core/wavelet_unrestricted.h"
#include "gen/generators.h"
#include "reference/brute_force.h"
#include "test_util.h"
#include "util/random.h"

namespace probsyn {
namespace {

std::vector<double> RandomWorkload(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> weights(n);
  for (double& w : weights) {
    // Mix of zero, light and heavy weights.
    switch (rng.NextBounded(4)) {
      case 0:
        w = 0.0;
        break;
      case 1:
        w = rng.NextUniform(0.1, 0.5);
        break;
      default:
        w = rng.NextUniform(1.0, 5.0);
        break;
    }
  }
  weights[rng.NextBounded(n)] = 3.0;  // ensure not all zero
  return weights;
}

double WeightedBruteBucketCost(
    const std::vector<reference::PossibleWorld>& worlds,
    const std::vector<double>& weights, std::size_t s, std::size_t e,
    double v, ErrorMetric metric, double c) {
  bool cumulative = IsCumulativeMetric(metric);
  double sum = 0.0, worst = 0.0;
  for (std::size_t i = s; i <= e; ++i) {
    double err =
        weights[i] * testing::EnumeratedItemError(worlds, i, v, metric, c);
    sum += err;
    worst = std::max(worst, err);
  }
  return cumulative ? sum : worst;
}

struct WorkloadCase {
  ErrorMetric metric;
  double c;
  std::uint64_t seed;
};

class WorkloadOracleTest : public ::testing::TestWithParam<WorkloadCase> {};

TEST_P(WorkloadOracleTest, MatchesWeightedBruteForce) {
  const WorkloadCase& param = GetParam();
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 7, .max_support = 3, .max_value = 5,
       .seed = param.seed});
  auto worlds = reference::EnumerateWorlds(input);
  ASSERT_TRUE(worlds.ok());
  std::vector<double> weights = RandomWorkload(7, param.seed * 31 + 1);

  SynopsisOptions options;
  options.metric = param.metric;
  options.sanity_c = param.c;
  options.sse_variant = SseVariant::kFixedRepresentative;
  options.workload = weights;
  auto bundle = MakeBucketOracle(input, options);
  ASSERT_TRUE(bundle.ok()) << bundle.status();

  for (std::size_t s = 0; s < 7; ++s) {
    for (std::size_t e = s; e < 7; ++e) {
      BucketCost got = bundle->oracle->Cost(s, e);
      // Consistency at the reported representative.
      EXPECT_NEAR(got.cost,
                  WeightedBruteBucketCost(worlds.value(), weights, s, e,
                                          got.representative, param.metric,
                                          param.c),
                  1e-8)
          << ErrorMetricName(param.metric) << " [" << s << "," << e << "]";
      // Optimality against a dense candidate grid.
      double best = std::numeric_limits<double>::infinity();
      for (int g = 0; g <= 600; ++g) {
        double v = 6.0 * g / 600.0;
        best = std::min(best,
                        WeightedBruteBucketCost(worlds.value(), weights, s, e,
                                                v, param.metric, param.c));
      }
      EXPECT_LE(got.cost, best + 1e-6)
          << ErrorMetricName(param.metric) << " [" << s << "," << e << "]";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MetricsAndSeeds, WorkloadOracleTest,
    ::testing::Values(WorkloadCase{ErrorMetric::kSse, 1.0, 1},
                      WorkloadCase{ErrorMetric::kSsre, 0.5, 2},
                      WorkloadCase{ErrorMetric::kSae, 1.0, 3},
                      WorkloadCase{ErrorMetric::kSare, 0.5, 4},
                      WorkloadCase{ErrorMetric::kMae, 1.0, 5},
                      WorkloadCase{ErrorMetric::kMare, 0.5, 6}),
    [](const ::testing::TestParamInfo<WorkloadCase>& info) {
      return std::string(ErrorMetricName(info.param.metric)) + "_seed" +
             std::to_string(info.param.seed);
    });

TEST(Workload, DpOptimalAgainstExhaustiveWeightedSearch) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 8, .max_support = 3, .max_value = 5, .seed = 9});
  std::vector<double> weights = RandomWorkload(8, 77);
  for (ErrorMetric metric : {ErrorMetric::kSse, ErrorMetric::kSae,
                             ErrorMetric::kMare}) {
    SynopsisOptions options;
    options.metric = metric;
    options.sanity_c = 0.5;
    options.sse_variant = SseVariant::kFixedRepresentative;
    options.workload = weights;
    auto bundle = MakeBucketOracle(input, options);
    ASSERT_TRUE(bundle.ok());
    HistogramDpResult dp =
        SolveHistogramDp(*bundle->oracle, 3, bundle->combiner);

    double brute = std::numeric_limits<double>::infinity();
    for (std::size_t b = 1; b <= 3; ++b) {
      reference::ForEachBucketization(
          8, b, [&](const std::vector<std::size_t>& ends) {
            double total = 0.0;
            std::size_t start = 0;
            for (std::size_t end : ends) {
              double cost = bundle->oracle->Cost(start, end).cost;
              total = bundle->combiner == DpCombiner::kSum
                          ? total + cost
                          : std::max(total, cost);
              start = end + 1;
            }
            brute = std::min(brute, total);
          });
    }
    EXPECT_NEAR(dp.OptimalCost(3), brute, 1e-9) << ErrorMetricName(metric);
  }
}

TEST(Workload, EvaluatorAgreesWithDpCost) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 20, .max_support = 3, .max_value = 6, .seed = 13});
  std::vector<double> weights = RandomWorkload(20, 5);
  SynopsisOptions options;
  options.metric = ErrorMetric::kSae;
  options.workload = weights;
  auto built = testing::BuildHistogram(input, options, 5);
  ASSERT_TRUE(built.ok());
  auto evaluated = EvaluateHistogram(input, built->histogram, options);
  ASSERT_TRUE(evaluated.ok());
  EXPECT_NEAR(*evaluated, built->cost, 1e-9);
}

TEST(Workload, ZeroWeightRegionsAreFreeToMerge) {
  // Items 8..15 have zero weight: the optimal weighted histogram should
  // spend its buckets entirely on 0..7 and achieve the same cost as if
  // the domain ended at 7.
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 16, .max_support = 3, .max_value = 6, .seed = 4});
  std::vector<double> weights(16, 0.0);
  for (std::size_t i = 0; i < 8; ++i) weights[i] = 1.0;

  SynopsisOptions weighted;
  weighted.metric = ErrorMetric::kSse;
  weighted.sse_variant = SseVariant::kFixedRepresentative;
  weighted.workload = weights;
  auto built = testing::BuildHistogram(input, weighted, 4);
  ASSERT_TRUE(built.ok());

  ValuePdfInput prefix(std::vector<ValuePdf>(input.items().begin(),
                                             input.items().begin() + 8));
  SynopsisOptions uniform;
  uniform.metric = ErrorMetric::kSse;
  uniform.sse_variant = SseVariant::kFixedRepresentative;
  auto prefix_built = testing::BuildHistogram(prefix, uniform, 4);
  ASSERT_TRUE(prefix_built.ok());
  // One bucket may be "wasted" covering the weightless tail, but since a
  // tail bucket is free, the weighted optimum equals the prefix optimum
  // with the same budget.
  EXPECT_NEAR(built->cost, prefix_built->cost, 1e-9);
}

TEST(Workload, UniformWorkloadMatchesUnweighted) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 12, .max_support = 3, .max_value = 5, .seed = 8});
  for (ErrorMetric metric : {ErrorMetric::kSsre, ErrorMetric::kSare,
                             ErrorMetric::kMae}) {
    SynopsisOptions plain;
    plain.metric = metric;
    plain.sanity_c = 1.0;
    SynopsisOptions ones = plain;
    ones.workload.assign(12, 1.0);

    auto a = testing::BuildHistogram(input, plain, 4);
    auto b = testing::BuildHistogram(input, ones, 4);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_NEAR(a->cost, b->cost, 1e-9)
        << ErrorMetricName(metric);
  }
}

TEST(Workload, RejectsInvalidWorkloads) {
  ValuePdfInput input = testing::PaperExampleValuePdf();
  SynopsisOptions options;
  options.metric = ErrorMetric::kSae;

  options.workload = {1.0, -0.5, 1.0};
  EXPECT_FALSE(MakeBucketOracle(input, options).ok());

  options.workload = {1.0, std::numeric_limits<double>::infinity(), 1.0};
  EXPECT_FALSE(MakeBucketOracle(input, options).ok());

  options.workload = {0.0, 0.0, 0.0};
  EXPECT_FALSE(MakeBucketOracle(input, options).ok());

  options.workload = {1.0, 1.0};  // wrong size
  EXPECT_FALSE(MakeBucketOracle(input, options).ok());

  options.workload = {1.0, 1.0, 1.0};
  options.metric = ErrorMetric::kSse;
  options.sse_variant = SseVariant::kWorldMean;
  auto result = MakeBucketOracle(input, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
}

TEST(Workload, WaveletDpsHonorWeights) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 8, .max_support = 3, .max_value = 5, .seed = 30});
  std::vector<double> weights = RandomWorkload(8, 41);
  SynopsisOptions options;
  options.metric = ErrorMetric::kSae;
  options.workload = weights;

  auto restricted = BuildRestrictedWaveletDp(input, 3, options);
  ASSERT_TRUE(restricted.ok());
  auto evaluated = EvaluateWavelet(input, restricted->synopsis, options);
  ASSERT_TRUE(evaluated.ok());
  EXPECT_NEAR(restricted->cost, *evaluated, 1e-9);

  auto unrestricted =
      BuildUnrestrictedWaveletDp(input, 3, options, {.grid_points = 21});
  ASSERT_TRUE(unrestricted.ok());
  auto eval_u = EvaluateWavelet(input, unrestricted->synopsis, options);
  ASSERT_TRUE(eval_u.ok());
  EXPECT_NEAR(unrestricted->cost, *eval_u, 1e-9);
}

TEST(Workload, SkewedWorkloadShiftsBucketBoundaries) {
  // All query mass on the right half: the weighted histogram should spend
  // more boundaries there than the uniform one.
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 32, .max_support = 4, .max_value = 8, .seed = 3});
  std::vector<double> weights(32, 0.01);
  for (std::size_t i = 16; i < 32; ++i) weights[i] = 10.0;

  SynopsisOptions uniform;
  uniform.metric = ErrorMetric::kSse;
  uniform.sse_variant = SseVariant::kFixedRepresentative;
  SynopsisOptions skewed = uniform;
  skewed.workload = weights;

  auto u = testing::BuildHistogram(input, uniform, 6);
  auto s = testing::BuildHistogram(input, skewed, 6);
  ASSERT_TRUE(u.ok() && s.ok());
  auto boundaries_right = [](const Histogram& h) {
    std::size_t count = 0;
    for (const HistogramBucket& b : h.buckets()) {
      if (b.start >= 16) ++count;
    }
    return count;
  };
  EXPECT_GE(boundaries_right(s->histogram), boundaries_right(u->histogram));

  // And it must do at least as well under the weighted objective.
  auto cost_s = EvaluateHistogram(input, s->histogram, skewed);
  auto cost_u = EvaluateHistogram(input, u->histogram, skewed);
  ASSERT_TRUE(cost_s.ok() && cost_u.ok());
  EXPECT_LE(*cost_s, *cost_u + 1e-9);
}

}  // namespace
}  // namespace probsyn
