// DP optimality: the dynamic program must match exhaustive search over all
// bucketizations, for every metric and model, and its traceback must
// reproduce the reported optimal cost.

#include <limits>

#include <gtest/gtest.h>

#include "core/builders.h"
#include "core/evaluate.h"
#include "core/histogram_dp.h"
#include "core/oracle_factory.h"
#include "gen/generators.h"
#include "model/induced.h"
#include "reference/brute_force.h"
#include "test_util.h"

namespace probsyn {
namespace {

// Exhaustive optimum over all partitions into at most `max_buckets`
// buckets, using oracle costs per bucket.
double BruteForceOptimal(const BucketCostOracle& oracle,
                         std::size_t max_buckets, DpCombiner combiner) {
  std::size_t n = oracle.domain_size();
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t b = 1; b <= std::min(max_buckets, n); ++b) {
    reference::ForEachBucketization(
        n, b, [&](const std::vector<std::size_t>& ends) {
          double total = combiner == DpCombiner::kSum ? 0.0 : 0.0;
          std::size_t start = 0;
          for (std::size_t end : ends) {
            double cost = oracle.Cost(start, end).cost;
            total = combiner == DpCombiner::kSum ? total + cost
                                                 : std::max(total, cost);
            start = end + 1;
          }
          best = std::min(best, total);
        });
  }
  return best;
}

struct DpCase {
  ErrorMetric metric;
  double c;
  SseVariant variant;
  std::uint64_t seed;
};

class DpOptimalityTest : public ::testing::TestWithParam<DpCase> {};

TEST_P(DpOptimalityTest, MatchesExhaustiveSearchOnValuePdf) {
  const DpCase& param = GetParam();
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 9, .max_support = 3, .max_value = 6,
       .seed = param.seed});
  SynopsisOptions options;
  options.metric = param.metric;
  options.sanity_c = param.c;
  options.sse_variant = param.variant;
  auto bundle = MakeBucketOracle(input, options);
  ASSERT_TRUE(bundle.ok()) << bundle.status();

  HistogramDpResult dp = SolveHistogramDp(*bundle->oracle, 4, bundle->combiner);
  for (std::size_t b = 1; b <= 4; ++b) {
    double brute = BruteForceOptimal(*bundle->oracle, b, bundle->combiner);
    EXPECT_NEAR(dp.OptimalCost(b), brute, 1e-9)
        << ErrorMetricName(param.metric) << " B=" << b;

    Histogram h = dp.ExtractHistogram(b);
    ASSERT_TRUE(h.Validate(input.domain_size()).ok());
    EXPECT_LE(h.num_buckets(), b);
    // The traced histogram's bucket costs re-sum to the optimum.
    double recomputed = bundle->combiner == DpCombiner::kSum ? 0.0 : 0.0;
    for (const HistogramBucket& bucket : h.buckets()) {
      double cost = bundle->oracle->Cost(bucket.start, bucket.end).cost;
      recomputed = bundle->combiner == DpCombiner::kSum
                       ? recomputed + cost
                       : std::max(recomputed, cost);
    }
    EXPECT_NEAR(recomputed, dp.OptimalCost(b), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    MetricsAndSeeds, DpOptimalityTest,
    ::testing::Values(
        DpCase{ErrorMetric::kSse, 1.0, SseVariant::kWorldMean, 1},
        DpCase{ErrorMetric::kSse, 1.0, SseVariant::kFixedRepresentative, 2},
        DpCase{ErrorMetric::kSsre, 0.5, SseVariant::kWorldMean, 3},
        DpCase{ErrorMetric::kSsre, 1.0, SseVariant::kWorldMean, 4},
        DpCase{ErrorMetric::kSae, 1.0, SseVariant::kWorldMean, 5},
        DpCase{ErrorMetric::kSare, 0.5, SseVariant::kWorldMean, 6},
        DpCase{ErrorMetric::kMae, 1.0, SseVariant::kWorldMean, 7},
        DpCase{ErrorMetric::kMare, 0.5, SseVariant::kWorldMean, 8}),
    [](const ::testing::TestParamInfo<DpCase>& info) {
      return std::string(ErrorMetricName(info.param.metric)) + "_seed" +
             std::to_string(info.param.seed);
    });

TEST(HistogramDp, ExactTupleSseMatchesExhaustiveSearch) {
  TuplePdfInput input = GenerateRandomTuplePdf(
      {.domain_size = 8, .num_tuples = 10, .max_alternatives = 3, .seed = 9});
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  options.sse_variant = SseVariant::kWorldMean;
  auto bundle = MakeBucketOracle(input, options);
  ASSERT_TRUE(bundle.ok());
  HistogramDpResult dp = SolveHistogramDp(*bundle->oracle, 3, bundle->combiner);
  for (std::size_t b = 1; b <= 3; ++b) {
    EXPECT_NEAR(dp.OptimalCost(b),
                BruteForceOptimal(*bundle->oracle, b, bundle->combiner), 1e-9)
        << "B=" << b;
  }
}

TEST(HistogramDp, CostCurveIsMonotoneInBuckets) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 24, .max_support = 4, .max_value = 8, .seed = 12});
  for (ErrorMetric metric : {ErrorMetric::kSse, ErrorMetric::kSae,
                             ErrorMetric::kMare}) {
    SynopsisOptions options;
    options.metric = metric;
    options.sanity_c = 1.0;
    auto bundle = MakeBucketOracle(input, options);
    ASSERT_TRUE(bundle.ok());
    HistogramDpResult dp =
        SolveHistogramDp(*bundle->oracle, 24, bundle->combiner);
    for (std::size_t b = 2; b <= 24; ++b) {
      EXPECT_LE(dp.OptimalCost(b), dp.OptimalCost(b - 1) + 1e-12)
          << ErrorMetricName(metric) << " B=" << b;
    }
  }
}

TEST(HistogramDp, BudgetsBeyondDomainSizeSaturate) {
  ValuePdfInput input = GenerateRandomValuePdf({.domain_size = 6, .seed = 2});
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  auto bundle = MakeBucketOracle(input, options);
  ASSERT_TRUE(bundle.ok());
  HistogramDpResult dp = SolveHistogramDp(*bundle->oracle, 50, bundle->combiner);
  EXPECT_NEAR(dp.OptimalCost(6), dp.OptimalCost(50), 0.0);
  Histogram h = dp.ExtractHistogram(50);
  EXPECT_LE(h.num_buckets(), 6u);
}

TEST(HistogramDp, SingleItemDomain) {
  ValuePdfInput input({ValuePdf::PointMass(3.0)});
  SynopsisOptions options;
  options.metric = ErrorMetric::kSae;
  auto bundle = MakeBucketOracle(input, options);
  ASSERT_TRUE(bundle.ok());
  HistogramDpResult dp = SolveHistogramDp(*bundle->oracle, 3, bundle->combiner);
  EXPECT_NEAR(dp.OptimalCost(1), 0.0, 1e-12);
  Histogram h = dp.ExtractHistogram(1);
  ASSERT_EQ(h.num_buckets(), 1u);
  EXPECT_DOUBLE_EQ(h.buckets()[0].representative, 3.0);
}

TEST(HistogramDp, ExtractOnEmptyDomainNormalizesToEmptyHistogram) {
  // A never-solved (default-constructed) result has n = 0; extraction must
  // return the empty histogram — the unique partition of an empty domain,
  // and the one Histogram Validate(0) accepts — not walk unfilled tables
  // or abort. Regression: this used to CHECK-fail on n_ > 0.
  HistogramDpResult unsolved;
  Histogram h = unsolved.ExtractHistogram(3);
  EXPECT_EQ(h.num_buckets(), 0u);
  EXPECT_EQ(h.domain_size(), 0u);
  EXPECT_TRUE(h.Validate(0).ok());
}

TEST(HistogramDp, DeterministicDataWithEnoughBucketsHasZeroError) {
  // n distinct deterministic frequencies, B = n: every item its own bucket.
  std::vector<double> freqs{5, 1, 4, 2, 8, 3};
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  auto builder = HistogramBuilder::CreateDeterministic(freqs, options, 6);
  ASSERT_TRUE(builder.ok());
  EXPECT_NEAR(builder->OptimalCost(6), 0.0, 1e-12);
  // And with 1 bucket, the classic SSE formula: sum (g - mean)^2.
  double mean = (5 + 1 + 4 + 2 + 8 + 3) / 6.0;
  double expect = 0.0;
  for (double g : freqs) expect += (g - mean) * (g - mean);
  EXPECT_NEAR(builder->OptimalCost(1), expect, 1e-9);
}

TEST(HistogramDp, UncertainDataKeepsResidualErrorAtFullBudget) {
  // Paper section 5.1: "unlike in the deterministic case, a histogram with
  // B = n buckets does not have zero error".
  ValuePdfInput input = testing::PaperExampleValuePdf();
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  options.sse_variant = SseVariant::kFixedRepresentative;
  auto builder = HistogramBuilder::Create(input, options, 3);
  ASSERT_TRUE(builder.ok());
  EXPECT_GT(builder->OptimalCost(3), 0.01);
}

TEST(HistogramDp, ExtractedRepresentativesAreBucketOptimal) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 10, .max_support = 3, .max_value = 5, .seed = 33});
  SynopsisOptions options;
  options.metric = ErrorMetric::kSae;
  auto bundle = MakeBucketOracle(input, options);
  ASSERT_TRUE(bundle.ok());
  HistogramDpResult dp = SolveHistogramDp(*bundle->oracle, 4, bundle->combiner);
  Histogram h = dp.ExtractHistogram(4);
  for (const HistogramBucket& b : h.buckets()) {
    EXPECT_DOUBLE_EQ(b.representative,
                     bundle->oracle->Cost(b.start, b.end).representative);
  }
}

// ---------------------------------------------------------------------------
// Approximate DP (paper section 3.5).

class ApproxDpTest : public ::testing::TestWithParam<double> {};

TEST_P(ApproxDpTest, WithinFactorOfExactOptimum) {
  const double epsilon = GetParam();
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 60, .max_support = 4, .max_value = 9, .seed = 77});
  for (ErrorMetric metric :
       {ErrorMetric::kSse, ErrorMetric::kSsre, ErrorMetric::kSae}) {
    SynopsisOptions options;
    options.metric = metric;
    options.sanity_c = 1.0;
    auto bundle = MakeBucketOracle(input, options);
    ASSERT_TRUE(bundle.ok());
    const std::size_t kBuckets = 6;
    HistogramDpResult exact =
        SolveHistogramDp(*bundle->oracle, kBuckets, bundle->combiner);
    auto approx = SolveApproxHistogramDp(*bundle->oracle, kBuckets, epsilon);
    ASSERT_TRUE(approx.ok()) << approx.status();
    EXPECT_TRUE(approx->histogram.Validate(input.domain_size()).ok());
    EXPECT_LE(approx->histogram.num_buckets(), kBuckets);
    EXPECT_GE(approx->cost, exact.OptimalCost(kBuckets) - 1e-9);
    EXPECT_LE(approx->cost,
              (1.0 + epsilon) * exact.OptimalCost(kBuckets) + 1e-9)
        << ErrorMetricName(metric) << " eps=" << epsilon;
  }
}

INSTANTIATE_TEST_SUITE_P(Epsilons, ApproxDpTest,
                         ::testing::Values(0.05, 0.1, 0.25, 0.5, 1.0));

TEST(ApproxDp, UsesFewerOracleEvaluationsThanExactOnLargeInputs) {
  // The approximation's per-position candidate count is O((B/eps) log R)
  // independent of n, so it overtakes the exact DP's n^2/2 bucket
  // evaluations once n is large relative to B^2/eps.
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 2000, .max_support = 3, .max_value = 6, .seed = 13});
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  auto bundle = MakeBucketOracle(input, options);
  ASSERT_TRUE(bundle.ok());
  auto approx = SolveApproxHistogramDp(*bundle->oracle, 4, 1.0);
  ASSERT_TRUE(approx.ok());
  // Exact DP would evaluate n^2/2 = 2M bucket costs; require a 4x margin.
  EXPECT_LT(approx->oracle_evaluations, 500000u);
}

TEST(ApproxDp, RejectsMaxMetrics) {
  ValuePdfInput input = testing::PaperExampleValuePdf();
  SynopsisOptions options;
  options.metric = ErrorMetric::kMae;
  auto result = testing::BuildHistogram(input, options, 2,
                                        HistogramMethod::kApprox, 0.1);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
}

TEST(ApproxDp, RejectsBadEpsilon) {
  ValuePdfInput input = testing::PaperExampleValuePdf();
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  for (double epsilon : {0.0, -1.0}) {
    EXPECT_FALSE(testing::BuildHistogram(input, options, 2,
                                         HistogramMethod::kApprox, epsilon)
                     .ok())
        << epsilon;
  }
}

}  // namespace
}  // namespace probsyn
