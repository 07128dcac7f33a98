#include "core/baselines.h"

#include <gtest/gtest.h>

#include "core/evaluate.h"
#include "core/oracle_factory.h"
#include "gen/generators.h"
#include "model/induced.h"
#include "test_util.h"

namespace probsyn {
namespace {

TEST(Baselines, ExpectationFrequenciesMatchModelMoments) {
  TuplePdfInput input = testing::PaperExampleTuplePdf();
  auto freqs = ExpectationFrequencies(input);
  ASSERT_EQ(freqs.size(), 3u);
  EXPECT_NEAR(freqs[1], 7.0 / 12, 1e-12);
}

TEST(Baselines, SampledWorldsAreRealizableWorlds) {
  TuplePdfInput input = testing::PaperExampleTuplePdf();
  Rng rng(4);
  for (int trial = 0; trial < 50; ++trial) {
    auto freq = SampleWorldFrequencies(input, rng);
    ASSERT_EQ(freq.size(), 3u);
    // Frequencies must be achievable counts: item 1 can see 0..2 tuples,
    // items 0/2 at most one each.
    EXPECT_TRUE(freq[0] == 0 || freq[0] == 1);
    EXPECT_TRUE(freq[1] >= 0 && freq[1] <= 2);
    EXPECT_TRUE(freq[2] == 0 || freq[2] == 1);
  }
}

TEST(Baselines, BuildersProduceValidHistograms) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 20, .max_support = 3, .max_value = 6, .seed = 8});
  SynopsisOptions options;
  options.metric = ErrorMetric::kSsre;
  options.sanity_c = 0.5;
  auto expectation = BuildExpectationHistogram(input, options, 5);
  ASSERT_TRUE(expectation.ok());
  EXPECT_TRUE(expectation->Validate(20).ok());

  Rng rng(5);
  auto sampled = BuildSampledWorldHistogram(input, options, 5, rng);
  ASSERT_TRUE(sampled.ok());
  EXPECT_TRUE(sampled->Validate(20).ok());
}

// The central claim of the paper's experiments: the probabilistic method is
// never worse than either baseline under the true expected error, since it
// optimizes that objective exactly.
TEST(Baselines, ProbabilisticMethodDominatesBaselines) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 24, .max_support = 4, .max_value = 8, .seed = 15});
  for (ErrorMetric metric :
       {ErrorMetric::kSse, ErrorMetric::kSsre, ErrorMetric::kSae,
        ErrorMetric::kSare}) {
    SynopsisOptions options;
    options.metric = metric;
    options.sanity_c = 0.5;
    options.sse_variant = SseVariant::kFixedRepresentative;
    const std::size_t kBuckets = 6;

    auto optimal = testing::BuildHistogram(input, options, kBuckets);
    auto expectation = BuildExpectationHistogram(input, options, kBuckets);
    ASSERT_TRUE(optimal.ok() && expectation.ok());
    Rng rng(77);
    auto sampled = BuildSampledWorldHistogram(input, options, kBuckets, rng);
    ASSERT_TRUE(sampled.ok());

    auto cost_opt = EvaluateHistogram(input, optimal->histogram, options);
    auto cost_exp = EvaluateHistogram(input, expectation.value(), options);
    auto cost_smp = EvaluateHistogram(input, sampled.value(), options);
    ASSERT_TRUE(cost_opt.ok() && cost_exp.ok() && cost_smp.ok());
    EXPECT_LE(*cost_opt, *cost_exp + 1e-9) << ErrorMetricName(metric);
    EXPECT_LE(*cost_opt, *cost_smp + 1e-9) << ErrorMetricName(metric);
  }
}

TEST(Baselines, SampledWorldWaveletIsValidAndDominated) {
  TuplePdfInput input = GenerateRandomTuplePdf(
      {.domain_size = 32, .num_tuples = 80, .max_alternatives = 3,
       .seed = 21});
  const std::size_t kB = 6;
  auto optimal = BuildSseOptimalWavelet(input, kB);
  ASSERT_TRUE(optimal.ok());
  Rng rng(9);
  auto sampled = BuildSampledWorldWavelet(input, kB, rng);
  ASSERT_TRUE(sampled.ok());
  EXPECT_TRUE(sampled->Validate().ok());
  EXPECT_LE(sampled->num_coefficients(), kB);

  // Under the mu-energy measure the optimal selection captures at least as
  // much energy (it keeps the B largest |mu| by construction) — but the
  // sampled synopsis also carries sampled VALUES, so compare via the full
  // expected-SSE evaluation, where optimality is guaranteed only for the
  // index-set + mu-values combination.
  std::vector<double> mu = ExpectedHaarCoefficients(input.ExpectedFrequencies());
  EXPECT_LE(WaveletUnretainedEnergyPercent(mu, optimal.value()),
            WaveletUnretainedEnergyPercent(mu, sampled.value()) + 1e-9);
}

TEST(Baselines, ExpectationEqualsDeterministicPipelineOnPointMasses) {
  // On deterministic data the Expectation baseline IS the data, so the
  // probabilistic and baseline histograms must coincide in cost.
  std::vector<double> freqs = GenerateZipfFrequencies(16, 1.1, 100.0, 3);
  ValuePdfInput input = PointMassInput(freqs);
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  auto prob = testing::BuildHistogram(input, options, 4);
  auto baseline = BuildExpectationHistogram(input, options, 4);
  ASSERT_TRUE(prob.ok() && baseline.ok());
  auto cost_prob = EvaluateHistogram(input, prob->histogram, options);
  auto cost_base = EvaluateHistogram(input, baseline.value(), options);
  ASSERT_TRUE(cost_prob.ok() && cost_base.ok());
  EXPECT_NEAR(*cost_prob, *cost_base, 1e-9);
}

}  // namespace
}  // namespace probsyn
