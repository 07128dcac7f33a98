// Property tests for the histogram DP at sizes where exhaustive search is
// infeasible: local optimality under boundary perturbation, consistency
// between DP costs and independent evaluation, and approximation
// guarantees across seeds.

#include <algorithm>
#include <span>

#include <gtest/gtest.h>

#include "core/dp_kernels.h"
#include "core/evaluate.h"
#include "core/histogram_dp.h"
#include "core/oracle_factory.h"
#include "gen/generators.h"
#include "model/induced.h"
#include "reference/reference_solvers.h"
#include "stream/streaming_histogram.h"

namespace probsyn {
namespace {

double HistogramCostUnderOracle(const BucketCostOracle& oracle,
                                DpCombiner combiner, const Histogram& h) {
  double total = 0.0;
  for (const HistogramBucket& b : h.buckets()) {
    double cost = oracle.Cost(b.start, b.end).cost;
    total = combiner == DpCombiner::kSum ? total + cost
                                         : std::max(total, cost);
  }
  return total;
}

struct PropertyCase {
  ErrorMetric metric;
  double c;
  std::uint64_t seed;
};

class DpLocalOptimalityTest : public ::testing::TestWithParam<PropertyCase> {};

// Moving any single bucket boundary by one item must not improve the
// optimum — a necessary condition that exercises n far beyond what the
// exhaustive oracle can cover.
TEST_P(DpLocalOptimalityTest, BoundaryPerturbationNeverImproves) {
  const PropertyCase& param = GetParam();
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 48, .max_support = 4, .max_value = 7,
       .seed = param.seed});
  SynopsisOptions options;
  options.metric = param.metric;
  options.sanity_c = param.c;
  options.sse_variant = SseVariant::kFixedRepresentative;
  auto bundle = MakeBucketOracle(input, options);
  ASSERT_TRUE(bundle.ok());
  HistogramDpResult dp = SolveHistogramDp(*bundle->oracle, 8, bundle->combiner);
  Histogram h = dp.ExtractHistogram(8);
  double base = HistogramCostUnderOracle(*bundle->oracle, bundle->combiner, h);
  EXPECT_NEAR(base, dp.OptimalCost(8), 1e-8);

  std::vector<HistogramBucket> buckets = h.buckets();
  for (std::size_t k = 0; k + 1 < buckets.size(); ++k) {
    for (int delta : {-1, +1}) {
      std::vector<HistogramBucket> tweaked = buckets;
      // Shift the boundary between buckets k and k+1.
      std::int64_t end = static_cast<std::int64_t>(tweaked[k].end) + delta;
      if (end < static_cast<std::int64_t>(tweaked[k].start) ||
          end + 1 > static_cast<std::int64_t>(tweaked[k + 1].end)) {
        continue;  // perturbation would empty a bucket
      }
      tweaked[k].end = static_cast<std::size_t>(end);
      tweaked[k + 1].start = static_cast<std::size_t>(end) + 1;
      Histogram candidate(tweaked);
      ASSERT_TRUE(candidate.Validate(48).ok());
      double cost = HistogramCostUnderOracle(*bundle->oracle,
                                             bundle->combiner, candidate);
      EXPECT_GE(cost, base - 1e-9)
          << ErrorMetricName(param.metric) << " boundary " << k << " delta "
          << delta;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MetricsAndSeeds, DpLocalOptimalityTest,
    ::testing::Values(PropertyCase{ErrorMetric::kSse, 1.0, 1},
                      PropertyCase{ErrorMetric::kSse, 1.0, 21},
                      PropertyCase{ErrorMetric::kSsre, 0.5, 2},
                      PropertyCase{ErrorMetric::kSsre, 1.0, 22},
                      PropertyCase{ErrorMetric::kSae, 1.0, 3},
                      PropertyCase{ErrorMetric::kSae, 1.0, 23},
                      PropertyCase{ErrorMetric::kSare, 0.5, 4},
                      PropertyCase{ErrorMetric::kSare, 1.0, 24},
                      PropertyCase{ErrorMetric::kMae, 1.0, 5},
                      PropertyCase{ErrorMetric::kMare, 0.5, 6}),
    [](const ::testing::TestParamInfo<PropertyCase>& info) {
      return std::string(ErrorMetricName(info.param.metric)) + "_seed" +
             std::to_string(info.param.seed);
    });

// The DP's reported optimum must agree with the fully independent
// evaluator for every per-item-decomposable metric (this ties together the
// oracle precomputations, the DP transitions, the traceback and the
// evaluation tables).
class DpEvaluationConsistencyTest
    : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(DpEvaluationConsistencyTest, DpCostEqualsEvaluatedCost) {
  const PropertyCase& param = GetParam();
  TuplePdfInput input = GenerateRandomTuplePdf(
      {.domain_size = 32, .num_tuples = 96, .max_alternatives = 4,
       .seed = param.seed});
  SynopsisOptions options;
  options.metric = param.metric;
  options.sanity_c = param.c;
  options.sse_variant = SseVariant::kFixedRepresentative;
  auto bundle = MakeBucketOracle(input, options);
  ASSERT_TRUE(bundle.ok());
  HistogramDpResult dp = SolveHistogramDp(*bundle->oracle, 6, bundle->combiner);
  for (std::size_t b : {1u, 2u, 4u, 6u}) {
    Histogram h = dp.ExtractHistogram(b);
    auto evaluated = EvaluateHistogram(input, h, options);
    ASSERT_TRUE(evaluated.ok());
    EXPECT_NEAR(*evaluated, dp.OptimalCost(b), 1e-8)
        << ErrorMetricName(param.metric) << " B=" << b;
  }
}

INSTANTIATE_TEST_SUITE_P(
    MetricsAndSeeds, DpEvaluationConsistencyTest,
    ::testing::Values(PropertyCase{ErrorMetric::kSse, 1.0, 7},
                      PropertyCase{ErrorMetric::kSsre, 0.5, 8},
                      PropertyCase{ErrorMetric::kSae, 1.0, 9},
                      PropertyCase{ErrorMetric::kSare, 1.0, 10},
                      PropertyCase{ErrorMetric::kMae, 1.0, 11},
                      PropertyCase{ErrorMetric::kMare, 0.5, 12}),
    [](const ::testing::TestParamInfo<PropertyCase>& info) {
      return std::string(ErrorMetricName(info.param.metric)) + "_seed" +
             std::to_string(info.param.seed);
    });

// The (1+eps) guarantee must hold across many random inputs, not just the
// one exhaustive case.
class ApproxGuaranteeTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ApproxGuaranteeTest, HoldsOnRandomInputs) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 100, .max_support = 4, .max_value = 9,
       .seed = GetParam()});
  const double kEps = 0.2;
  for (ErrorMetric metric : {ErrorMetric::kSse, ErrorMetric::kSare}) {
    SynopsisOptions options;
    options.metric = metric;
    options.sanity_c = 1.0;
    options.sse_variant = SseVariant::kFixedRepresentative;
    auto bundle = MakeBucketOracle(input, options);
    ASSERT_TRUE(bundle.ok());
    HistogramDpResult exact =
        SolveHistogramDp(*bundle->oracle, 7, bundle->combiner);
    auto approx = SolveApproxHistogramDp(*bundle->oracle, 7, kEps);
    ASSERT_TRUE(approx.ok());
    EXPECT_LE(approx->cost, (1.0 + kEps) * exact.OptimalCost(7) + 1e-9)
        << ErrorMetricName(metric) << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApproxGuaranteeTest,
                         ::testing::Values(31, 32, 33, 34, 35, 36, 37, 38));

// --- Randomized differential sweep: streaming vs offline DP vs chains. ---
//
// A seeded generator sweep (200 cases: 8 blocks x 25 seeds) that
// cross-checks, per case,
//   (1) the streaming builder against the OFFLINE exact DP, run as the
//       textbook DP of tests/reference AND through the library's
//       specialized kernel (the two must agree bit-for-bit; the stream
//       must land in [opt, (1 + eps) opt]),
//   (2) the persistent-chain builder, fed in PushBatch blocks of 1..8
//       items (the size cycles with the seed), against the one-item
//       copy-based-chain builder of tests/reference, bit-for-bit (costs,
//       bucket boundaries, representatives, breakpoint counts), and
//   (3) the reported stream cost against the independent evaluator.
// Shapes (n, B, eps) are derived from the seed so the sweep covers the
// B = 1 and tiny-epsilon corners as well as wide buckets and loose slack.

class StreamingDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamingDifferentialTest, StreamMatchesOfflineDpAndCopyChains) {
  constexpr std::uint64_t kSeedsPerBlock = 25;
  const double kEpsilons[] = {0.05, 0.1, 0.25, 0.5, 1.0};
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  options.sse_variant = SseVariant::kFixedRepresentative;

  StreamChainStore shared_store;  // leak check across the whole block
  for (std::uint64_t k = 0; k < kSeedsPerBlock; ++k) {
    const std::uint64_t seed = GetParam() * kSeedsPerBlock + k + 1;
    const std::size_t n = 40 + (seed * 7919) % 160;
    const std::size_t buckets = 1 + (seed * 104729) % 12;
    const double eps = kEpsilons[seed % 5];
    ValuePdfInput input = GenerateRandomValuePdf(
        {.domain_size = n, .max_support = 4, .max_value = 9, .seed = seed});

    reference::StreamingBuilder reference(buckets, eps);
    StreamingHistogramBuilder fast(buckets, eps, &shared_store);
    for (const ValuePdf& pdf : input.items()) reference.Push(pdf);
    const std::span<const ValuePdf> items = input.items();
    const std::size_t block = 1 + seed % 8;
    for (std::size_t offset = 0; offset < n; offset += block) {
      fast.PushBatch(items.subspan(offset, std::min(block, n - offset)));
    }
    auto want = reference.Finish();
    auto got = fast.Finish();
    ASSERT_TRUE(want.ok() && got.ok()) << "seed " << seed;

    // (2) Persistent chains == copy-based chains, bit-for-bit.
    EXPECT_EQ(want->cost, got->cost) << "seed " << seed;
    EXPECT_EQ(want->peak_breakpoints, got->peak_breakpoints)
        << "seed " << seed;
    ASSERT_EQ(want->histogram.num_buckets(), got->histogram.num_buckets())
        << "seed " << seed;
    for (std::size_t i = 0; i < want->histogram.num_buckets(); ++i) {
      const HistogramBucket& a = want->histogram.buckets()[i];
      const HistogramBucket& b = got->histogram.buckets()[i];
      EXPECT_EQ(a.start, b.start) << "seed " << seed << " bucket " << i;
      EXPECT_EQ(a.end, b.end) << "seed " << seed << " bucket " << i;
      EXPECT_EQ(a.representative, b.representative)
          << "seed " << seed << " bucket " << i;
    }

    // (3) The reported cost is the exact expected SSE of the histogram.
    auto evaluated = EvaluateHistogram(input, got->histogram, options);
    ASSERT_TRUE(evaluated.ok()) << "seed " << seed;
    EXPECT_NEAR(*evaluated, got->cost, 1e-7) << "seed " << seed;

    // (1) Offline optimum, solved by the textbook DP AND the specialized
    // kernel — they must agree exactly, and bound the stream.
    auto bundle = MakeBucketOracle(input, options);
    ASSERT_TRUE(bundle.ok()) << "seed " << seed;
    const reference::ExactDpTables ref_dp =
        reference::SolveExactDp(*bundle->oracle, buckets, bundle->combiner);
    DpWorkspace workspace;
    HistogramDpResult fast_dp = SolveHistogramDp(
        *bundle->oracle, buckets, bundle->combiner, {.workspace = &workspace});
    const double opt = ref_dp.ErrorRow(ref_dp.layers)[input.domain_size() - 1];
    EXPECT_EQ(opt, fast_dp.OptimalCost(buckets)) << "seed " << seed;
    EXPECT_GE(got->cost, opt - 1e-9) << "seed " << seed;
    EXPECT_LE(got->cost, (1.0 + eps) * opt + 1e-6)
        << "seed " << seed << " n=" << n << " B=" << buckets
        << " eps=" << eps;
  }
  // Every builder in the block released its chains on destruction.
  EXPECT_EQ(shared_store.stats().live, 0u);
}

INSTANTIATE_TEST_SUITE_P(Blocks, StreamingDifferentialTest,
                         ::testing::Range<std::uint64_t>(0, 8));

// Cross-model consistency: the basic model, its tuple-pdf embedding, and
// its induced value pdf must all produce the same optimal histograms for
// per-item-decomposable metrics.
TEST(DpCrossModel, BasicTupleAndInducedAgree) {
  BasicModelInput basic = GenerateMovieLinkage({.domain_size = 40, .seed = 3});
  auto tuple_pdf = basic.ToTuplePdf();
  ASSERT_TRUE(tuple_pdf.ok());
  auto induced = InduceValuePdf(basic);
  ASSERT_TRUE(induced.ok());

  for (ErrorMetric metric : {ErrorMetric::kSsre, ErrorMetric::kSae,
                             ErrorMetric::kMare}) {
    SynopsisOptions options;
    options.metric = metric;
    options.sanity_c = 0.5;
    auto tuple_bundle = MakeBucketOracle(tuple_pdf.value(), options);
    auto value_bundle = MakeBucketOracle(induced.value(), options);
    ASSERT_TRUE(tuple_bundle.ok() && value_bundle.ok());
    HistogramDpResult from_tuple =
        SolveHistogramDp(*tuple_bundle->oracle, 5, tuple_bundle->combiner);
    HistogramDpResult from_value =
        SolveHistogramDp(*value_bundle->oracle, 5, value_bundle->combiner);
    for (std::size_t b = 1; b <= 5; ++b) {
      EXPECT_NEAR(from_tuple.OptimalCost(b), from_value.OptimalCost(b), 1e-9)
          << ErrorMetricName(metric) << " B=" << b;
    }
  }
}

}  // namespace
}  // namespace probsyn
