// Wavelet synopsis type + SSE-optimal thresholding (paper section 4.1).

#include "core/wavelet.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include <gtest/gtest.h>

#include "core/evaluate.h"
#include "core/haar.h"
#include "gen/generators.h"
#include "model/induced.h"
#include "reference/brute_force.h"
#include "test_util.h"
#include "util/random.h"

namespace probsyn {
namespace {

TEST(WaveletSynopsis, ValidateChecksIndices) {
  WaveletSynopsis ok(6, 8, {{0, 1.0}, {3, -2.0}});
  EXPECT_TRUE(ok.Validate().ok());

  WaveletSynopsis bad_index(6, 8, {{9, 1.0}});
  EXPECT_FALSE(bad_index.Validate().ok());

  WaveletSynopsis dup(6, 8, {{3, 1.0}, {3, 2.0}});
  EXPECT_FALSE(dup.Validate().ok());

  WaveletSynopsis bad_transform(6, 6, {});
  EXPECT_FALSE(bad_transform.Validate().ok());
}

TEST(WaveletSynopsis, EstimateMatchesDenseReconstruction) {
  Rng rng(3);
  std::vector<double> data(16);
  for (double& d : data) d = rng.NextUniform(0, 10);
  WaveletSynopsis synopsis = BuildSseWaveletFromFrequencies(data, 5);
  std::vector<double> dense = synopsis.ToFrequencyVector();
  ASSERT_EQ(dense.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(synopsis.Estimate(i), dense[i], 1e-10);
  }
}

TEST(WaveletSynopsis, FullBudgetReconstructsExactly) {
  std::vector<double> data{2, 2, 0, 2, 3, 5, 4, 4};
  WaveletSynopsis synopsis = BuildSseWaveletFromFrequencies(data, 8);
  std::vector<double> back = synopsis.ToFrequencyVector();
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(back[i], data[i], 1e-10);
  }
}

TEST(WaveletSynopsis, RangeSumQueries) {
  std::vector<double> data{1, 1, 1, 1};
  WaveletSynopsis synopsis = BuildSseWaveletFromFrequencies(data, 1);
  // The retained coefficient is the scaling one; the range sums are exact.
  EXPECT_NEAR(synopsis.EstimateRangeSum(0, 3), 4.0, 1e-10);
  EXPECT_NEAR(synopsis.EstimateRangeSum(1, 2), 2.0, 1e-10);
}

// The range sum reads only the coefficients whose support straddles an end
// of the range, so it rounds differently from summing the reconstructed
// estimates: check it against a long-double sum of ToFrequencyVector(),
// with a tolerance scaled by the magnitude of the terms, and check that the
// server-side lookup (SparseHaar) gives the same bits.
TEST(WaveletSynopsis, RangeSumMatchesLongDoubleSumOfEstimates) {
  Rng rng(41);
  for (std::size_t n : {1u, 2u, 3u, 1000u, 65536u}) {
    for (std::size_t budget : {std::size_t{1}, std::size_t{7}, n / 3 + 1, n}) {
      std::vector<double> data(n);
      for (double& d : data) d = rng.NextUniform(0, 100);
      const WaveletSynopsis synopsis =
          BuildSseWaveletFromFrequencies(data, budget);
      const std::size_t nt = synopsis.transform_size();
      const SparseHaar served(nt, synopsis.coefficients());
      const std::vector<double> ghat = synopsis.ToFrequencyVector();

      std::vector<std::pair<std::size_t, std::size_t>> ranges = {
          {0, n - 1}, {0, 0}, {n - 1, n - 1}, {n / 2, n - 1}, {0, n / 2}};
      for (int k = 0; k < 24; ++k) {
        const std::size_t a = rng.NextBounded(n);
        const std::size_t b = a + rng.NextBounded(n - a);
        ranges.emplace_back(a, b);
        ranges.emplace_back(a, a);
        ranges.emplace_back(a, n - 1);  // ends below nt - 1 when n < nt
      }
      for (auto [a, b] : ranges) {
        long double want = 0.0L;
        double magnitude = 0.0;
        for (std::size_t i = a; i <= b; ++i) {
          want += ghat[i];
          magnitude += std::fabs(ghat[i]);
        }
        for (const WaveletCoefficient& c : synopsis.coefficients()) {
          const SupportRange r = CoefficientSupport(c.index, nt);
          const std::size_t lo = std::max(a, r.lo);
          const std::size_t hi = std::min(b + 1, r.hi);
          if (hi > lo) {
            magnitude += std::fabs(c.value) *
                         LeafContributionScale(c.index, nt) *
                         static_cast<double>(hi - lo);
          }
        }
        const double got = synopsis.EstimateRangeSum(a, b);
        EXPECT_NEAR(got, static_cast<double>(want), 1e-12 * magnitude)
            << "n=" << n << " B=" << budget << " [" << a << "," << b << "]";
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(served.RangeSum(a, b)))
            << "n=" << n << " B=" << budget << " [" << a << "," << b << "]";
      }
    }
  }
}

TEST(WaveletSse, GreedySelectionKeepsLargestCoefficients) {
  std::vector<double> data{2, 2, 0, 2, 3, 5, 4, 4};
  std::vector<double> coeffs = HaarTransform(data);
  WaveletSynopsis synopsis = BuildSseWaveletFromFrequencies(data, 3);
  ASSERT_EQ(synopsis.num_coefficients(), 3u);
  // The smallest |retained| must be >= the largest |dropped|.
  double smallest_kept = std::numeric_limits<double>::infinity();
  std::vector<bool> kept(8, false);
  for (const WaveletCoefficient& c : synopsis.coefficients()) {
    kept[c.index] = true;
    smallest_kept = std::min(smallest_kept, std::fabs(c.value));
    EXPECT_DOUBLE_EQ(c.value, coeffs[c.index]);
  }
  for (std::size_t i = 0; i < 8; ++i) {
    if (!kept[i]) {
      EXPECT_LE(std::fabs(coeffs[i]), smallest_kept + 1e-12);
    }
  }
}

TEST(WaveletSse, PadsNonPowerOfTwoDomains) {
  std::vector<double> data{1, 2, 3, 4, 5};
  WaveletSynopsis synopsis = BuildSseWaveletFromFrequencies(data, 3);
  EXPECT_EQ(synopsis.domain_size(), 5u);
  EXPECT_EQ(synopsis.transform_size(), 8u);
}

// The decomposition of section 4.1: expected SSE of a synopsis that keeps
// index set I with values mu_i equals sum_i Var[c_i] + sum_{i not in I}
// mu_i^2; in particular the greedy choice is optimal. Verify both against
// exhaustive subset search on a small input.
TEST(WaveletSse, GreedyIsOptimalAmongAllSubsets) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 8, .max_support = 3, .max_value = 6, .seed = 19});
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;

  std::vector<double> mu =
      ExpectedHaarCoefficients(input.ExpectedFrequencies());
  const std::size_t n = 8;
  for (std::size_t budget : {1u, 2u, 3u, 5u}) {
    auto greedy = BuildSseOptimalWavelet(input, budget);
    ASSERT_TRUE(greedy.ok());
    auto greedy_cost = EvaluateWavelet(input, greedy.value(), options);
    ASSERT_TRUE(greedy_cost.ok());

    // Exhaustive: every subset of exactly `budget` indices, values fixed at
    // mu (the optimal retained values for expected SSE).
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t mask = 0; mask < (1u << n); ++mask) {
      if (static_cast<std::size_t>(__builtin_popcount(mask)) != budget) {
        continue;
      }
      std::vector<WaveletCoefficient> coeffs;
      for (std::size_t i = 0; i < n; ++i) {
        if (mask & (1u << i)) coeffs.push_back({i, mu[i]});
      }
      WaveletSynopsis candidate(n, n, std::move(coeffs));
      auto cost = EvaluateWavelet(input, candidate, options);
      ASSERT_TRUE(cost.ok());
      best = std::min(best, *cost);
    }
    EXPECT_NEAR(*greedy_cost, best, 1e-9) << "budget " << budget;
  }
}

TEST(WaveletSse, ExpectedSseDecomposition) {
  // E[SSE] = sum_i Var[g_i] + sum_{i not in I} mu_i^2 for value-pdf input
  // (coefficient variances sum to data variances by orthonormality).
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 16, .max_support = 4, .max_value = 7, .seed = 23});
  std::vector<double> mu =
      ExpectedHaarCoefficients(input.ExpectedFrequencies());
  double total_var = 0.0;
  for (double v : input.FrequencyVariances()) total_var += v;

  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  for (std::size_t budget : {0u, 1u, 4u, 16u}) {
    auto synopsis = BuildSseOptimalWavelet(input, budget);
    ASSERT_TRUE(synopsis.ok());
    double dropped_energy = 0.0;
    std::vector<bool> kept(mu.size(), false);
    for (const WaveletCoefficient& c : synopsis->coefficients()) {
      kept[c.index] = true;
    }
    for (std::size_t i = 0; i < mu.size(); ++i) {
      if (!kept[i]) dropped_energy += mu[i] * mu[i];
    }
    auto cost = EvaluateWavelet(input, synopsis.value(), options);
    ASSERT_TRUE(cost.ok());
    EXPECT_NEAR(*cost, total_var + dropped_energy, 1e-8)
        << "budget " << budget;
  }
}

TEST(WaveletSse, ExpectedCoefficientsAreTransformOfExpectations) {
  // mu_ci = H_i(E[A]) — linearity (section 4.1). Check against the
  // coefficient-wise expectation over enumerated worlds.
  TuplePdfInput input = testing::PaperExampleTuplePdf();
  auto worlds = reference::EnumerateWorlds(input);
  ASSERT_TRUE(worlds.ok());
  std::vector<double> mu = ExpectedHaarCoefficients(input.ExpectedFrequencies());
  ASSERT_EQ(mu.size(), 4u);  // padded 3 -> 4
  for (std::size_t k = 0; k < 4; ++k) {
    double expect = reference::ExpectationOverWorlds(
        worlds.value(), [k](const std::vector<double>& freq) {
          std::vector<double> padded(freq);
          padded.resize(4, 0.0);
          return HaarTransform(padded)[k];
        });
    EXPECT_NEAR(mu[k], expect, 1e-10) << "coefficient " << k;
  }
}

TEST(WaveletSse, TupleAndInducedValueInputsAgree) {
  // The tuple model and its induced value pdf share expected frequencies,
  // so the two synopses must capture the same coefficient energy. (The
  // retained index sets may differ on near-ties: the Poisson-binomial
  // convolution perturbs means at the 1e-16 level.)
  TuplePdfInput input = GenerateRandomTuplePdf(
      {.domain_size = 16, .num_tuples = 30, .max_alternatives = 3, .seed = 29});
  auto induced = InduceValuePdf(input);
  ASSERT_TRUE(induced.ok());
  auto from_tuple = BuildSseOptimalWavelet(input, 5);
  auto from_value = BuildSseOptimalWavelet(induced.value(), 5);
  ASSERT_TRUE(from_tuple.ok() && from_value.ok());
  std::vector<double> mu = ExpectedHaarCoefficients(input.ExpectedFrequencies());
  EXPECT_NEAR(WaveletUnretainedEnergyPercent(mu, from_tuple.value()),
              WaveletUnretainedEnergyPercent(mu, from_value.value()), 1e-9);
}

TEST(WaveletSse, BudgetLargerThanTransformKeepsEverything) {
  std::vector<double> data{1, 2, 3, 4};
  WaveletSynopsis synopsis = BuildSseWaveletFromFrequencies(data, 100);
  EXPECT_EQ(synopsis.num_coefficients(), 4u);
}

}  // namespace
}  // namespace probsyn
