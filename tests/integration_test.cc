// End-to-end pipelines mirroring the paper's experimental setup
// (section 5) at test-friendly scale: generate data, build probabilistic
// and baseline synopses, evaluate everything under the true distribution,
// check the orderings the paper reports.

#include <gtest/gtest.h>

#include "core/baselines.h"
#include "core/builders.h"
#include "core/evaluate.h"
#include "core/wavelet.h"
#include "gen/generators.h"
#include "io/pdata.h"
#include "model/induced.h"
#include "test_util.h"

namespace probsyn {
namespace {

class MovieLinkagePipeline : public ::testing::Test {
 protected:
  void SetUp() override {
    BasicModelInput basic =
        GenerateMovieLinkage({.domain_size = 96, .seed = 1234});
    auto tuple_pdf = basic.ToTuplePdf();
    ASSERT_TRUE(tuple_pdf.ok());
    input_ = std::move(tuple_pdf).value();
    auto induced = InduceValuePdf(input_);
    ASSERT_TRUE(induced.ok());
    induced_ = std::move(induced).value();
  }

  TuplePdfInput input_;
  ValuePdfInput induced_;
};

TEST_F(MovieLinkagePipeline, HistogramErrorPercentOrdering) {
  SynopsisOptions options;
  options.metric = ErrorMetric::kSsre;
  options.sanity_c = 0.5;
  const std::size_t kBuckets = 12;

  auto builder = HistogramBuilder::Create(input_, options, kBuckets);
  ASSERT_TRUE(builder.ok());
  ErrorScale scale = ComputeErrorScale(builder->oracle(), true);

  Histogram prob = builder->Extract(kBuckets);
  auto expectation = BuildExpectationHistogram(input_, options, kBuckets);
  ASSERT_TRUE(expectation.ok());
  Rng rng(55);
  auto sampled = BuildSampledWorldHistogram(input_, options, kBuckets, rng);
  ASSERT_TRUE(sampled.ok());

  auto cost_prob = EvaluateHistogram(input_, prob, options);
  auto cost_exp = EvaluateHistogram(input_, expectation.value(), options);
  auto cost_smp = EvaluateHistogram(input_, sampled.value(), options);
  ASSERT_TRUE(cost_prob.ok() && cost_exp.ok() && cost_smp.ok());

  // DP optimality: probabilistic never loses. (The figure-2 headline.)
  EXPECT_LE(*cost_prob, *cost_exp + 1e-9);
  EXPECT_LE(*cost_prob, *cost_smp + 1e-9);

  // Error% stays in [0, 100] and the DP cost matches its own evaluation.
  double pct = scale.Percent(*cost_prob);
  EXPECT_GE(pct, 0.0);
  EXPECT_LE(pct, 100.0);
  EXPECT_NEAR(*cost_prob, builder->OptimalCost(kBuckets), 1e-8);
}

TEST_F(MovieLinkagePipeline, ApproximateHistogramNearOptimal) {
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  options.sse_variant = SseVariant::kFixedRepresentative;
  const std::size_t kBuckets = 10;
  auto exact = HistogramBuilder::Create(input_, options, kBuckets);
  auto approx = testing::BuildHistogram(input_, options, kBuckets,
                                        HistogramMethod::kApprox, 0.1);
  ASSERT_TRUE(exact.ok() && approx.ok());
  EXPECT_LE(approx->cost, 1.1 * exact->OptimalCost(kBuckets) + 1e-9);
}

TEST_F(MovieLinkagePipeline, WaveletEnergyOrdering) {
  const std::size_t kCoeffs = 10;
  std::vector<double> mu =
      ExpectedHaarCoefficients(input_.ExpectedFrequencies());
  auto prob = BuildSseOptimalWavelet(input_, kCoeffs);
  ASSERT_TRUE(prob.ok());
  Rng rng(8);
  auto sampled = BuildSampledWorldWavelet(input_, kCoeffs, rng);
  ASSERT_TRUE(sampled.ok());
  EXPECT_LE(WaveletUnretainedEnergyPercent(mu, prob.value()),
            WaveletUnretainedEnergyPercent(mu, sampled.value()) + 1e-9);
}

TEST_F(MovieLinkagePipeline, SynopsesAnswerRangeQueriesReasonably) {
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  options.sse_variant = SseVariant::kFixedRepresentative;
  auto hist = testing::BuildHistogram(input_, options, 16);
  auto wave = BuildSseOptimalWavelet(input_, 16);
  ASSERT_TRUE(hist.ok() && wave.ok());

  // True expected range counts vs synopsis answers over a few ranges.
  auto expected = input_.ExpectedFrequencies();
  for (auto [a, b] : std::vector<std::pair<std::size_t, std::size_t>>{
           {0, 95}, {10, 30}, {50, 51}}) {
    double truth = 0.0;
    for (std::size_t i = a; i <= b; ++i) truth += expected[i];
    double from_hist = hist->histogram.EstimateRangeSum(a, b);
    double from_wave = wave->EstimateRangeSum(a, b);
    double span = static_cast<double>(b - a + 1);
    EXPECT_NEAR(from_hist, truth, 0.75 * span + 2.0) << a << ".." << b;
    EXPECT_NEAR(from_wave, truth, 0.75 * span + 2.0) << a << ".." << b;
  }
}

TEST_F(MovieLinkagePipeline, PersistAndReloadKeepsCostsIdentical) {
  std::string path = ::testing::TempDir() + "/pipeline.pdata";
  ASSERT_TRUE(SaveTuplePdf(path, input_).ok());
  auto reloaded = LoadTuplePdf(path);
  ASSERT_TRUE(reloaded.ok());

  SynopsisOptions options;
  options.metric = ErrorMetric::kSae;
  auto h1 = testing::BuildHistogram(input_, options, 8);
  auto h2 = testing::BuildHistogram(reloaded.value(), options, 8);
  ASSERT_TRUE(h1.ok() && h2.ok());
  EXPECT_EQ(h1->histogram, h2->histogram);
}

TEST(MaybmsPipeline, TupleSseVariantsBothWork) {
  TuplePdfInput input = GenerateMaybmsTpch(
      {.domain_size = 64, .num_tuples = 256, .seed = 99});
  const std::size_t kBuckets = 8;

  SynopsisOptions world_mean;
  world_mean.metric = ErrorMetric::kSse;
  world_mean.sse_variant = SseVariant::kWorldMean;
  auto exact = HistogramBuilder::Create(input, world_mean, kBuckets);
  ASSERT_TRUE(exact.ok());

  SynopsisOptions fixed;
  fixed.metric = ErrorMetric::kSse;
  fixed.sse_variant = SseVariant::kFixedRepresentative;
  auto fixed_builder = HistogramBuilder::Create(input, fixed, kBuckets);
  ASSERT_TRUE(fixed_builder.ok());

  Histogram h_world = exact->Extract(kBuckets);
  Histogram h_fixed = fixed_builder->Extract(kBuckets);
  EXPECT_TRUE(h_world.Validate(64).ok());
  EXPECT_TRUE(h_fixed.Validate(64).ok());

  // Each variant is optimal under its own objective.
  auto world_cost_of_fixed = EvaluateHistogramWorldMeanSse(input, h_fixed);
  ASSERT_TRUE(world_cost_of_fixed.ok());
  EXPECT_LE(exact->OptimalCost(kBuckets), *world_cost_of_fixed + 1e-9);

  auto fixed_cost_of_world = EvaluateHistogram(input, h_world, fixed);
  ASSERT_TRUE(fixed_cost_of_world.ok());
  EXPECT_LE(fixed_builder->OptimalCost(kBuckets), *fixed_cost_of_world + 1e-9);
}

TEST(MaybmsPipeline, MaxErrorHistogramsOnTupleData) {
  TuplePdfInput input = GenerateMaybmsTpch(
      {.domain_size = 32, .num_tuples = 96, .seed = 5});
  SynopsisOptions options;
  options.metric = ErrorMetric::kMare;
  options.sanity_c = 1.0;
  auto builder = HistogramBuilder::Create(input, options, 6);
  ASSERT_TRUE(builder.ok());
  Histogram h = builder->Extract(6);
  EXPECT_TRUE(h.Validate(32).ok());
  auto evaluated = EvaluateHistogram(input, h, options);
  ASSERT_TRUE(evaluated.ok());
  EXPECT_NEAR(*evaluated, builder->OptimalCost(6), 1e-8);
}

}  // namespace
}  // namespace probsyn
