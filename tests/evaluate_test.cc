#include "core/evaluate.h"

#include <gtest/gtest.h>

#include "core/histogram_dp.h"
#include "core/oracle_factory.h"
#include "core/wavelet.h"
#include "gen/generators.h"
#include "model/induced.h"
#include "reference/brute_force.h"
#include "test_util.h"

namespace probsyn {
namespace {

TEST(EvaluateHistogram, MatchesWorldEnumerationOnValuePdf) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 6, .max_support = 3, .max_value = 4, .seed = 3});
  auto worlds = reference::EnumerateWorlds(input);
  ASSERT_TRUE(worlds.ok());
  Histogram h({{0, 1, 0.5}, {2, 4, 2.0}, {5, 5, 1.0}});
  for (ErrorMetric metric :
       {ErrorMetric::kSse, ErrorMetric::kSsre, ErrorMetric::kSae,
        ErrorMetric::kSare, ErrorMetric::kMae, ErrorMetric::kMare}) {
    SynopsisOptions options;
    options.metric = metric;
    options.sanity_c = 0.5;
    auto got = EvaluateHistogram(input, h, options);
    ASSERT_TRUE(got.ok());
    EXPECT_NEAR(*got,
                testing::EnumeratedHistogramCost(worlds.value(), h, metric,
                                                 0.5),
                1e-9)
        << ErrorMetricName(metric);
  }
}

TEST(EvaluateHistogram, TuplePdfMatchesEnumerationIncludingSse) {
  // With fixed representatives, even SSE needs only marginals — the induced
  // value pdf must give the exact answer despite within-tuple correlation.
  TuplePdfInput input = testing::PaperExampleTuplePdf();
  auto worlds = reference::EnumerateWorlds(input);
  ASSERT_TRUE(worlds.ok());
  Histogram h({{0, 1, 0.6}, {2, 2, 0.4}});
  for (ErrorMetric metric : {ErrorMetric::kSse, ErrorMetric::kSae,
                             ErrorMetric::kMare}) {
    SynopsisOptions options;
    options.metric = metric;
    options.sanity_c = 1.0;
    auto got = EvaluateHistogram(input, h, options);
    ASSERT_TRUE(got.ok());
    EXPECT_NEAR(*got,
                testing::EnumeratedHistogramCost(worlds.value(), h, metric,
                                                 1.0),
                1e-9)
        << ErrorMetricName(metric);
  }
}

TEST(EvaluateHistogram, RejectsMismatchedDomain) {
  ValuePdfInput input = testing::PaperExampleValuePdf();
  Histogram h({{0, 4, 1.0}});
  SynopsisOptions options;
  EXPECT_FALSE(EvaluateHistogram(input, h, options).ok());
}

TEST(EvaluateWorldMeanSse, MatchesEnumerationBothModels) {
  TuplePdfInput tuple_input = testing::PaperExampleTuplePdf();
  auto tuple_worlds = reference::EnumerateWorlds(tuple_input);
  ASSERT_TRUE(tuple_worlds.ok());

  ValuePdfInput value_input = testing::PaperExampleValuePdf();
  auto value_worlds = reference::EnumerateWorlds(value_input);
  ASSERT_TRUE(value_worlds.ok());

  for (const Histogram& h :
       {Histogram({{0, 2, 0.0}}), Histogram({{0, 0, 0.0}, {1, 2, 0.0}}),
        Histogram({{0, 1, 0.0}, {2, 2, 0.0}})}) {
    auto tuple_got = EvaluateHistogramWorldMeanSse(tuple_input, h);
    ASSERT_TRUE(tuple_got.ok());
    EXPECT_NEAR(*tuple_got,
                testing::EnumeratedWorldMeanSse(tuple_worlds.value(), h),
                1e-10);

    auto value_got = EvaluateHistogramWorldMeanSse(value_input, h);
    ASSERT_TRUE(value_got.ok());
    EXPECT_NEAR(*value_got,
                testing::EnumeratedWorldMeanSse(value_worlds.value(), h),
                1e-10);
  }
}

TEST(EvaluateWavelet, MatchesManualPointErrors) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 8, .max_support = 3, .max_value = 5, .seed = 7});
  auto synopsis = BuildSseOptimalWavelet(input, 3);
  ASSERT_TRUE(synopsis.ok());
  std::vector<double> ghat = synopsis->ToFrequencyVector();

  SynopsisOptions options;
  options.metric = ErrorMetric::kSae;
  auto got = EvaluateWavelet(input, synopsis.value(), options);
  ASSERT_TRUE(got.ok());

  double expect = 0.0;
  for (std::size_t i = 0; i < 8; ++i) {
    expect += reference::ExpectedAbsDeviation(input.item(i), ghat[i]);
  }
  EXPECT_NEAR(*got, expect, 1e-9);
}

TEST(EvaluateWavelet, PaddedItemsCountAgainstTheSynopsis) {
  // Domain 3 pads to 4; a synopsis that reconstructs nonzero mass at the
  // padded slot pays for it.
  ValuePdfInput input = testing::PaperExampleValuePdf();
  WaveletSynopsis only_average(3, 4, {{0, 2.0}});  // ghat = 1 everywhere
  SynopsisOptions options;
  options.metric = ErrorMetric::kSae;
  auto got = EvaluateWavelet(input, only_average, options);
  ASSERT_TRUE(got.ok());
  double expect = 0.0;
  for (std::size_t i = 0; i < 3; ++i) {
    expect += reference::ExpectedAbsDeviation(input.item(i), 1.0);
  }
  expect += 1.0;  // padded item: |0 - 1|
  EXPECT_NEAR(*got, expect, 1e-9);
}

TEST(WaveletEnergy, UnretainedPercent) {
  std::vector<double> mu{3.0, 0.0, 4.0, 0.0};  // total energy 25
  WaveletSynopsis keep_first(4, 4, {{0, 3.0}});
  EXPECT_NEAR(WaveletUnretainedEnergyPercent(mu, keep_first), 64.0, 1e-9);
  WaveletSynopsis keep_both(4, 4, {{0, 3.0}, {2, 4.0}});
  EXPECT_NEAR(WaveletUnretainedEnergyPercent(mu, keep_both), 0.0, 1e-9);
  WaveletSynopsis keep_none(4, 4, {});
  EXPECT_NEAR(WaveletUnretainedEnergyPercent(mu, keep_none), 100.0, 1e-9);
}

TEST(ErrorScale, PercentNormalization) {
  ErrorScale scale{100.0, 20.0};
  EXPECT_NEAR(scale.Percent(100.0), 100.0, 1e-12);
  EXPECT_NEAR(scale.Percent(20.0), 0.0, 1e-12);
  EXPECT_NEAR(scale.Percent(60.0), 50.0, 1e-12);
  EXPECT_NEAR(scale.Percent(10.0), 0.0, 1e-12);   // clamped
  EXPECT_NEAR(scale.Percent(200.0), 100.0, 1e-12);  // clamped

  ErrorScale degenerate{5.0, 5.0};
  EXPECT_DOUBLE_EQ(degenerate.Percent(5.0), 0.0);
}

TEST(ErrorScale, ComputedFromOracleEndpoints) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 12, .max_support = 3, .max_value = 6, .seed = 9});
  SynopsisOptions options;
  options.metric = ErrorMetric::kSae;
  auto bundle = MakeBucketOracle(input, options);
  ASSERT_TRUE(bundle.ok());
  ErrorScale scale = ComputeErrorScale(*bundle->oracle, true);

  // The scale endpoints bracket every DP optimum.
  HistogramDpResult dp =
      SolveHistogramDp(*bundle->oracle, 12, bundle->combiner);
  for (std::size_t b = 1; b <= 12; ++b) {
    double cost = dp.OptimalCost(b);
    EXPECT_GE(cost, scale.min_cost - 1e-9);
    EXPECT_LE(cost, scale.max_cost + 1e-9);
  }
  EXPECT_NEAR(dp.OptimalCost(1), scale.max_cost, 1e-9);
  EXPECT_NEAR(dp.OptimalCost(12), scale.min_cost, 1e-9);
}

}  // namespace
}  // namespace probsyn
