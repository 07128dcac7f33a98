// End-to-end smoke checks: build each synopsis type on small inputs.

#include <gtest/gtest.h>

#include "core/baselines.h"
#include "core/evaluate.h"
#include "core/wavelet_dp.h"
#include "gen/generators.h"
#include "model/induced.h"
#include "test_util.h"

namespace probsyn {
namespace {

TEST(Smoke, HistogramOnRandomValuePdf) {
  ValuePdfInput input = GenerateRandomValuePdf({.domain_size = 32, .seed = 3});
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  auto hist = testing::BuildHistogram(input, options, 4);
  ASSERT_TRUE(hist.ok()) << hist.status();
  EXPECT_TRUE(hist->histogram.Validate(32).ok());
  EXPECT_LE(hist->histogram.num_buckets(), 4u);
}

TEST(Smoke, WaveletOnMovieLinkage) {
  BasicModelInput data = GenerateMovieLinkage({.domain_size = 64, .seed = 5});
  auto tuple_pdf = data.ToTuplePdf();
  ASSERT_TRUE(tuple_pdf.ok());
  auto synopsis = BuildSseOptimalWavelet(tuple_pdf.value(), 8);
  ASSERT_TRUE(synopsis.ok()) << synopsis.status();
  EXPECT_EQ(synopsis->num_coefficients(), 8u);
}

TEST(Smoke, RestrictedWaveletDp) {
  ValuePdfInput input = GenerateRandomValuePdf({.domain_size = 16, .seed = 9});
  SynopsisOptions options;
  options.metric = ErrorMetric::kSae;
  auto result = BuildRestrictedWaveletDp(input, 4, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_LE(result->synopsis.num_coefficients(), 4u);
  EXPECT_GE(result->cost, 0.0);
}

}  // namespace
}  // namespace probsyn
