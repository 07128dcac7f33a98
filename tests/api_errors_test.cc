// Failure-injection suite: every public entry point must reject malformed
// input with the right Status code rather than crash or mis-compute.

#include <gtest/gtest.h>

#include "core/baselines.h"
#include "core/evaluate.h"
#include "core/histogram2d.h"
#include "core/oracle_factory.h"
#include "core/wavelet.h"
#include "core/wavelet_dp.h"
#include "core/wavelet_unrestricted.h"
#include "model/induced.h"
#include "reference/brute_force.h"
#include "test_util.h"

namespace probsyn {
namespace {

SynopsisOptions Sae() {
  SynopsisOptions options;
  options.metric = ErrorMetric::kSae;
  return options;
}

TEST(ApiErrors, EmptyDomainIsRejectedEverywhere) {
  ValuePdfInput empty;
  EXPECT_FALSE(MakeBucketOracle(empty, Sae()).ok());
  EXPECT_FALSE(testing::BuildHistogram(empty, Sae(), 2).ok());
  EXPECT_FALSE(
      testing::BuildHistogram(empty, Sae(), 2, HistogramMethod::kApprox).ok());
  EXPECT_FALSE(BuildSseOptimalWavelet(empty, 2).ok());
  EXPECT_FALSE(BuildRestrictedWaveletDp(empty, 2, Sae()).ok());
  EXPECT_FALSE(BuildUnrestrictedWaveletDp(empty, 2, Sae()).ok());
  EXPECT_FALSE(BuildEquiDepthHistogram(empty, Sae(), 2).ok());
}

TEST(ApiErrors, ZeroBucketBudgetsAreRejected) {
  ValuePdfInput input = testing::PaperExampleValuePdf();
  EXPECT_FALSE(testing::BuildHistogram(input, Sae(), 0).ok());
  EXPECT_FALSE(
      testing::BuildHistogram(input, Sae(), 0, HistogramMethod::kApprox).ok());
  EXPECT_FALSE(BuildEquiDepthHistogram(input, Sae(), 0).ok());
  EXPECT_FALSE(BuildExpectationHistogram(input, Sae(), 0).ok());
  Rng rng(3);
  EXPECT_FALSE(BuildSampledWorldHistogram(input, Sae(), 0, rng).ok());
}

TEST(ApiErrors, BadSanityConstantIsRejected) {
  ValuePdfInput input = testing::PaperExampleValuePdf();
  for (ErrorMetric metric : {ErrorMetric::kSsre, ErrorMetric::kSare,
                             ErrorMetric::kMare}) {
    SynopsisOptions options;
    options.metric = metric;
    options.sanity_c = 0.0;
    EXPECT_FALSE(MakeBucketOracle(input, options).ok())
        << ErrorMetricName(metric);
    options.sanity_c = -1.0;
    EXPECT_FALSE(testing::BuildHistogram(input, options, 2).ok())
        << ErrorMetricName(metric);
  }
}

TEST(ApiErrors, InvalidModelInputsPropagateStatus) {
  // Tuple referencing an out-of-domain item.
  auto bad_tuple = ProbTuple::Create({{9, 0.5}});
  ASSERT_TRUE(bad_tuple.ok());
  TuplePdfInput bad(3, {bad_tuple.value()});
  EXPECT_EQ(MakeBucketOracle(bad, Sae()).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_FALSE(InduceValuePdf(bad).ok());
  EXPECT_FALSE(reference::EnumerateWorlds(bad).ok());
  EXPECT_FALSE(BuildSseOptimalWavelet(bad, 2).ok());

  BasicModelInput bad_basic(2, {{0, 2.0}});
  EXPECT_FALSE(bad_basic.ToTuplePdf().ok());
  EXPECT_FALSE(reference::EnumerateWorlds(bad_basic).ok());
}

TEST(ApiErrors, EvaluatorsRejectMismatchedShapes) {
  ValuePdfInput input = testing::PaperExampleValuePdf();  // n = 3
  Histogram wrong_domain({{0, 4, 1.0}});
  EXPECT_FALSE(EvaluateHistogram(input, wrong_domain, Sae()).ok());
  EXPECT_FALSE(EvaluateHistogramWorldMeanSse(input, wrong_domain).ok());

  WaveletSynopsis wrong_synopsis(5, 8, {});
  EXPECT_FALSE(EvaluateWavelet(input, wrong_synopsis, Sae()).ok());

  SynopsisOptions bad_workload = Sae();
  bad_workload.workload = {1.0, 1.0};  // n == 3
  Histogram ok_hist({{0, 2, 1.0}});
  EXPECT_FALSE(EvaluateHistogram(input, ok_hist, bad_workload).ok());
}

TEST(ApiErrors, ApproxDpParameterValidation) {
  ValuePdfInput input = testing::PaperExampleValuePdf();
  SynopsisOptions sse;
  sse.metric = ErrorMetric::kSse;
  EXPECT_FALSE(
      testing::BuildHistogram(input, sse, 2, HistogramMethod::kApprox, 0.0)
          .ok());
  EXPECT_FALSE(
      testing::BuildHistogram(input, sse, 2, HistogramMethod::kApprox, -0.5)
          .ok());
  SynopsisOptions mae;
  mae.metric = ErrorMetric::kMae;
  EXPECT_EQ(
      testing::BuildHistogram(input, mae, 2, HistogramMethod::kApprox, 0.1)
          .status()
          .code(),
      StatusCode::kUnimplemented);
}

TEST(ApiErrors, WaveletSynopsisValidation) {
  // Non-power-of-two transform and out-of-range coefficient indices.
  WaveletSynopsis bad_transform(3, 3, {});
  EXPECT_FALSE(bad_transform.Validate().ok());
  WaveletSynopsis bad_index(3, 4, {{7, 1.0}});
  EXPECT_FALSE(bad_index.Validate().ok());
}

TEST(ApiErrors, TwoDimensionalGuards) {
  auto grid = ProbGrid2D::Create(
      2, 2, {ValuePdf::PointMass(1), ValuePdf::PointMass(2),
             ValuePdf::PointMass(3), ValuePdf::PointMass(4)});
  ASSERT_TRUE(grid.ok());
  EXPECT_FALSE(BuildGreedyHistogram2D(grid.value(), Sae(), 2).ok());
  EXPECT_FALSE(BuildGreedyHistogram2D(grid.value(), SynopsisOptions{}, 0).ok());
  SynopsisOptions sse;
  sse.metric = ErrorMetric::kSse;
  sse.sse_variant = SseVariant::kFixedRepresentative;
  EXPECT_FALSE(
      BuildOptimalGuillotineHistogram2D(grid.value(), sse, 2, /*max_cells=*/1)
          .ok());
  Histogram2D not_a_tiling({{{0, 0, 0, 0}, 1.0}});
  EXPECT_FALSE(EvaluateHistogram2D(grid.value(), not_a_tiling, sse).ok());
}

TEST(ApiErrors, WorkloadValidationAcrossBuilders) {
  ValuePdfInput input = testing::PaperExampleValuePdf();
  SynopsisOptions options = Sae();
  options.workload = {1.0, 1.0};  // wrong size (n = 3)
  EXPECT_FALSE(testing::BuildHistogram(input, options, 2).ok());
  EXPECT_FALSE(BuildRestrictedWaveletDp(input, 2, options).ok());
  EXPECT_FALSE(BuildUnrestrictedWaveletDp(input, 2, options).ok());

  options.workload = {-1.0, 0.0, 0.0};
  EXPECT_FALSE(testing::BuildHistogram(input, options, 2).ok());
}

TEST(ApiErrors, StatusMessagesAreInformative) {
  ValuePdfInput empty;
  Status s = MakeBucketOracle(empty, Sae()).status();
  EXPECT_FALSE(s.message().empty());
  EXPECT_NE(s.ToString().find(StatusCodeToString(s.code())),
            std::string::npos);
}

}  // namespace
}  // namespace probsyn
