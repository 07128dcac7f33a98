// Equi-depth (probabilistic-quantile) histogram baseline tests.

#include <gtest/gtest.h>

#include "core/baselines.h"
#include "core/evaluate.h"
#include "gen/generators.h"
#include "test_util.h"

namespace probsyn {
namespace {

TEST(EquiDepth, ProducesValidPartition) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 40, .max_support = 3, .max_value = 6, .seed = 2});
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  options.sse_variant = SseVariant::kFixedRepresentative;
  for (std::size_t b : {1u, 3u, 8u, 40u, 100u}) {
    auto h = BuildEquiDepthHistogram(input, options, b);
    ASSERT_TRUE(h.ok()) << "B=" << b << ": " << h.status();
    EXPECT_TRUE(h->Validate(40).ok()) << "B=" << b;
    EXPECT_LE(h->num_buckets(), std::min<std::size_t>(b, 40));
  }
}

TEST(EquiDepth, BalancesExpectedMass) {
  // Heavily skewed expected mass: the equi-depth boundaries must split it
  // into roughly equal parts, i.e. the heavy region gets narrow buckets.
  std::vector<double> freqs(32, 1.0);
  for (std::size_t i = 0; i < 4; ++i) freqs[i] = 50.0;
  ValuePdfInput input = PointMassInput(freqs);
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  options.sse_variant = SseVariant::kFixedRepresentative;
  auto h = BuildEquiDepthHistogram(input, options, 4);
  ASSERT_TRUE(h.ok());
  ASSERT_EQ(h->num_buckets(), 4u);
  // The first buckets cover the heavy prefix with very few items.
  EXPECT_LE(h->buckets()[0].width(), 2u);
  EXPECT_LE(h->buckets()[1].width(), 2u);
}

TEST(EquiDepth, RepresentativesAreBucketOptimal) {
  TuplePdfInput input = GenerateRandomTuplePdf(
      {.domain_size = 16, .num_tuples = 40, .max_alternatives = 3, .seed = 6});
  SynopsisOptions options;
  options.metric = ErrorMetric::kSae;
  auto h = BuildEquiDepthHistogram(input, options, 4);
  ASSERT_TRUE(h.ok());
  // Moving any representative to a nearby value must not help.
  auto base = EvaluateHistogram(input, h.value(), options);
  ASSERT_TRUE(base.ok());
  for (std::size_t k = 0; k < h->num_buckets(); ++k) {
    for (double delta : {-0.5, 0.5, 1.0}) {
      Histogram tweaked = h.value();
      std::vector<HistogramBucket> buckets = tweaked.buckets();
      buckets[k].representative += delta;
      auto cost = EvaluateHistogram(input, Histogram(buckets), options);
      ASSERT_TRUE(cost.ok());
      EXPECT_GE(*cost, *base - 1e-9);
    }
  }
}

TEST(EquiDepth, DominatedByErrorOptimalHistogram) {
  BasicModelInput basic = GenerateMovieLinkage({.domain_size = 64, .seed = 17});
  auto input = basic.ToTuplePdf();
  ASSERT_TRUE(input.ok());
  for (ErrorMetric metric : {ErrorMetric::kSse, ErrorMetric::kSsre,
                             ErrorMetric::kSae}) {
    SynopsisOptions options;
    options.metric = metric;
    options.sanity_c = 0.5;
    options.sse_variant = SseVariant::kFixedRepresentative;
    auto optimal = testing::BuildHistogram(input.value(), options, 6);
    auto equidepth = BuildEquiDepthHistogram(input.value(), options, 6);
    ASSERT_TRUE(optimal.ok() && equidepth.ok());
    auto cost_opt =
        EvaluateHistogram(input.value(), optimal->histogram, options);
    auto cost_eq = EvaluateHistogram(input.value(), equidepth.value(), options);
    ASSERT_TRUE(cost_opt.ok() && cost_eq.ok());
    EXPECT_LE(*cost_opt, *cost_eq + 1e-9) << ErrorMetricName(metric);
  }
}

TEST(EquiDepth, SingleBucketAndTinyDomains) {
  ValuePdfInput input = testing::PaperExampleValuePdf();
  SynopsisOptions options;
  options.metric = ErrorMetric::kSae;
  auto one = BuildEquiDepthHistogram(input, options, 1);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->num_buckets(), 1u);

  ValuePdfInput single({ValuePdf::PointMass(2.0)});
  auto h = BuildEquiDepthHistogram(single, options, 3);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->num_buckets(), 1u);
  EXPECT_DOUBLE_EQ(h->buckets()[0].representative, 2.0);
}

TEST(EquiDepth, RejectsZeroBuckets) {
  ValuePdfInput input = testing::PaperExampleValuePdf();
  SynopsisOptions options;
  EXPECT_FALSE(BuildEquiDepthHistogram(input, options, 0).ok());
}

}  // namespace
}  // namespace probsyn
