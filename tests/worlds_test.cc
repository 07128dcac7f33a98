#include "model/worlds.h"

#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "model/induced.h"
#include "reference/brute_force.h"
#include "test_util.h"

namespace probsyn {
namespace {

double TotalProbability(const std::vector<reference::PossibleWorld>& worlds) {
  double total = 0.0;
  for (const reference::PossibleWorld& w : worlds) total += w.probability;
  return total;
}

TEST(Worlds, PaperExampleBasicModelHasTwelveDistinctOutcomes) {
  // Example 1: the basic-model input defines twelve possible worlds (some
  // multisets arise from distinct tuple subsets; our enumerator keeps them
  // separate, so aggregate by frequency vector before comparing).
  auto worlds = reference::EnumerateWorlds(testing::PaperExampleBasic());
  ASSERT_TRUE(worlds.ok());
  EXPECT_NEAR(TotalProbability(worlds.value()), 1.0, 1e-12);

  std::map<std::vector<double>, double> aggregated;
  for (const reference::PossibleWorld& w : worlds.value()) {
    aggregated[w.frequencies] += w.probability;
  }
  EXPECT_EQ(aggregated.size(), 12u);
  // Spot-check Example 1's table: Pr[empty] = 1/8, Pr[{1,2,2,3}] = 1/48.
  EXPECT_NEAR((aggregated[{0, 0, 0}]), 1.0 / 8, 1e-12);
  EXPECT_NEAR((aggregated[{1, 2, 1}]), 1.0 / 48, 1e-12);
  // Pr[{1,2,3}] = 5/48 (either tuple for item 2 may supply the occurrence).
  EXPECT_NEAR((aggregated[{1, 1, 1}]), 5.0 / 48, 1e-12);
}

TEST(Worlds, PaperExampleTuplePdfHasEightWorlds) {
  auto worlds = reference::EnumerateWorlds(testing::PaperExampleTuplePdf());
  ASSERT_TRUE(worlds.ok());
  EXPECT_NEAR(TotalProbability(worlds.value()), 1.0, 1e-12);

  std::map<std::vector<double>, double> aggregated;
  for (const reference::PossibleWorld& w : worlds.value()) {
    aggregated[w.frequencies] += w.probability;
  }
  EXPECT_EQ(aggregated.size(), 8u);
  EXPECT_NEAR((aggregated[{0, 0, 0}]), 1.0 / 24, 1e-12);  // Pr[empty]
  EXPECT_NEAR((aggregated[{1, 0, 1}]), 1.0 / 4, 1e-12);   // Pr[{1,3}]
  EXPECT_NEAR((aggregated[{0, 2, 0}]), 1.0 / 12, 1e-12);  // Pr[{2,2}]
}

TEST(Worlds, PaperExampleValuePdfHasTwelveWorlds) {
  auto worlds = reference::EnumerateWorlds(testing::PaperExampleValuePdf());
  ASSERT_TRUE(worlds.ok());
  EXPECT_EQ(worlds->size(), 2u * 3u * 2u);
  EXPECT_NEAR(TotalProbability(worlds.value()), 1.0, 1e-12);
  // Example 1: Pr[{1,2,2,3}] = 1/16 in the value-pdf variant.
  std::map<std::vector<double>, double> aggregated;
  for (const reference::PossibleWorld& w : worlds.value()) {
    aggregated[w.frequencies] += w.probability;
  }
  EXPECT_NEAR((aggregated[{1, 2, 1}]), 1.0 / 16, 1e-12);
  EXPECT_NEAR((aggregated[{0, 0, 0}]), 5.0 / 48, 1e-12);
}

TEST(Worlds, ExpectationsMatchExample1) {
  // "In all three cases, E[g1] = 1/2. In the value pdf case E[g2] = 5/6,
  // for the other two cases E[g2] = 7/12."
  auto basic = reference::EnumerateWorlds(testing::PaperExampleBasic());
  auto tuple = reference::EnumerateWorlds(testing::PaperExampleTuplePdf());
  auto value = reference::EnumerateWorlds(testing::PaperExampleValuePdf());
  ASSERT_TRUE(basic.ok() && tuple.ok() && value.ok());

  auto g = [](std::size_t i) {
    return [i](const std::vector<double>& f) { return f[i]; };
  };
  EXPECT_NEAR(reference::ExpectationOverWorlds(basic.value(), g(0)),
              0.5, 1e-12);
  EXPECT_NEAR(reference::ExpectationOverWorlds(tuple.value(), g(0)),
              0.5, 1e-12);
  EXPECT_NEAR(reference::ExpectationOverWorlds(value.value(), g(0)),
              0.5, 1e-12);
  EXPECT_NEAR(reference::ExpectationOverWorlds(basic.value(), g(1)),
              7.0 / 12, 1e-12);
  EXPECT_NEAR(reference::ExpectationOverWorlds(tuple.value(), g(1)),
              7.0 / 12, 1e-12);
  EXPECT_NEAR(reference::ExpectationOverWorlds(value.value(), g(1)),
              5.0 / 6, 1e-12);
}

TEST(Worlds, EnumerationMatchesAnalyticMomentsOnRandomInputs) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    TuplePdfInput input = GenerateRandomTuplePdf(
        {.domain_size = 5, .num_tuples = 5, .max_alternatives = 3, .seed = seed});
    auto worlds = reference::EnumerateWorlds(input);
    ASSERT_TRUE(worlds.ok());
    ASSERT_NEAR(TotalProbability(worlds.value()), 1.0, 1e-9);
    auto mean = input.ExpectedFrequencies();
    auto second = input.FrequencySecondMoments();
    for (std::size_t i = 0; i < input.domain_size(); ++i) {
      double em = reference::ExpectationOverWorlds(
          worlds.value(), [i](const std::vector<double>& f) { return f[i]; });
      double e2 = reference::ExpectationOverWorlds(
          worlds.value(),
          [i](const std::vector<double>& f) { return f[i] * f[i]; });
      EXPECT_NEAR(em, mean[i], 1e-9) << "seed " << seed << " item " << i;
      EXPECT_NEAR(e2, second[i], 1e-9) << "seed " << seed << " item " << i;
    }
  }
}

TEST(Worlds, EnumerationCapIsEnforced) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 30, .max_support = 4, .max_value = 5, .seed = 2});
  auto worlds = reference::EnumerateWorlds(input, /*max_worlds=*/1000);
  EXPECT_FALSE(worlds.ok());
  EXPECT_EQ(worlds.status().code(), StatusCode::kOutOfRange);
}

TEST(Worlds, ValuePdfSamplerMatchesMarginals) {
  ValuePdfInput input = testing::PaperExampleValuePdf();
  ValuePdfWorldSampler sampler(input);
  Rng rng(123);
  const int kSamples = 200000;
  double sum_g1 = 0.0;
  for (int s = 0; s < kSamples; ++s) {
    sum_g1 += sampler.Sample(rng)[1];
  }
  EXPECT_NEAR(sum_g1 / kSamples, 5.0 / 6, 0.01);
}

TEST(Worlds, TuplePdfSamplerMatchesMarginals) {
  TuplePdfInput input = testing::PaperExampleTuplePdf();
  TuplePdfWorldSampler sampler(input);
  Rng rng(321);
  const int kSamples = 200000;
  double sum_g1 = 0.0, sum_g1_sq = 0.0;
  for (int s = 0; s < kSamples; ++s) {
    double g = sampler.Sample(rng)[1];
    sum_g1 += g;
    sum_g1_sq += g * g;
  }
  EXPECT_NEAR(sum_g1 / kSamples, 7.0 / 12, 0.01);
  // E[g2^2] = Var + mean^2 with Var = 1/3*2/3 + 1/4*3/4.
  double expected_second = (2.0 / 9 + 3.0 / 16) + 49.0 / 144;
  EXPECT_NEAR(sum_g1_sq / kSamples, expected_second, 0.02);
}

TEST(Induced, PoissonBinomialMatchesHandCases) {
  auto pdf = PoissonBinomialPdf(std::vector<double>{0.5, 0.5});
  ASSERT_EQ(pdf.size(), 3u);
  EXPECT_NEAR(pdf[0], 0.25, 1e-12);
  EXPECT_NEAR(pdf[1], 0.5, 1e-12);
  EXPECT_NEAR(pdf[2], 0.25, 1e-12);

  auto empty = PoissonBinomialPdf(std::vector<double>{});
  ASSERT_EQ(empty.size(), 1u);
  EXPECT_DOUBLE_EQ(empty[0], 1.0);
}

TEST(Induced, MatchesEnumeratedMarginals) {
  TuplePdfInput input = testing::PaperExampleTuplePdf();
  auto induced = InduceValuePdf(input);
  ASSERT_TRUE(induced.ok());
  // Example 1 in-text: induced pdf of item 2 (our index 1) under the tuple
  // model: Pr[g=0] = 1/2*3/4 = 3/8... computed via enumeration instead.
  auto worlds = reference::EnumerateWorlds(input);
  ASSERT_TRUE(worlds.ok());
  for (std::size_t i = 0; i < input.domain_size(); ++i) {
    for (double v : {0.0, 1.0, 2.0}) {
      double enumerated = reference::ExpectationOverWorlds(
          worlds.value(), [i, v](const std::vector<double>& f) {
            return f[i] == v ? 1.0 : 0.0;
          });
      EXPECT_NEAR(reference::ProbEquals(induced->item(i), v), enumerated, 1e-12)
          << "item " << i << " value " << v;
    }
  }
}

TEST(Induced, BasicModelSharesTupleModelMarginals) {
  auto from_basic = InduceValuePdf(testing::PaperExampleBasic());
  ASSERT_TRUE(from_basic.ok());
  // Item 1 receives two independent tuples with p = 1/3 and 1/4.
  const ValuePdf& g2 = from_basic->item(1);
  EXPECT_NEAR(reference::ProbEquals(g2, 0.0), (2.0 / 3) * (3.0 / 4), 1e-12);
  EXPECT_NEAR(reference::ProbEquals(g2, 2.0), (1.0 / 3) * (1.0 / 4), 1e-12);
  EXPECT_NEAR(g2.Mean(), 7.0 / 12, 1e-12);
}

}  // namespace
}  // namespace probsyn
