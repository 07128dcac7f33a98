// Restricted non-SSE wavelet DP (paper section 4.2, Theorem 8) against
// exhaustive subset search.

#include "core/wavelet_dp.h"

#include <limits>

#include <gtest/gtest.h>

#include "core/evaluate.h"
#include "core/wavelet.h"
#include "gen/generators.h"
#include "test_util.h"

namespace probsyn {
namespace {

// Exhaustive optimum over all <=B subsets of coefficients with values fixed
// at the expected coefficients mu (the restricted problem).
double BruteRestrictedOptimum(const ValuePdfInput& input, std::size_t budget,
                              const SynopsisOptions& options) {
  std::vector<double> mu = ExpectedHaarCoefficients(input.ExpectedFrequencies());
  const std::size_t nt = mu.size();
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t mask = 0; mask < (1u << nt); ++mask) {
    if (static_cast<std::size_t>(__builtin_popcount(mask)) > budget) continue;
    std::vector<WaveletCoefficient> coeffs;
    for (std::size_t i = 0; i < nt; ++i) {
      if (mask & (1u << i)) coeffs.push_back({i, mu[i]});
    }
    WaveletSynopsis candidate(input.domain_size(), nt, std::move(coeffs));
    auto cost = EvaluateWavelet(input, candidate, options);
    if (cost.ok()) best = std::min(best, *cost);
  }
  return best;
}

struct WaveletDpCase {
  ErrorMetric metric;
  double c;
  std::size_t domain;
  std::size_t budget;
  std::uint64_t seed;
};

class WaveletDpTest : public ::testing::TestWithParam<WaveletDpCase> {};

TEST_P(WaveletDpTest, MatchesExhaustiveRestrictedSearch) {
  const WaveletDpCase& param = GetParam();
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = param.domain, .max_support = 3, .max_value = 5,
       .seed = param.seed});
  SynopsisOptions options;
  options.metric = param.metric;
  options.sanity_c = param.c;

  auto result = BuildRestrictedWaveletDp(input, param.budget, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_LE(result->synopsis.num_coefficients(), param.budget);
  EXPECT_TRUE(result->synopsis.Validate().ok());

  // (a) The DP's reported cost equals the evaluated cost of its synopsis.
  auto evaluated = EvaluateWavelet(input, result->synopsis, options);
  ASSERT_TRUE(evaluated.ok());
  EXPECT_NEAR(result->cost, *evaluated, 1e-9);

  // (b) No subset does better.
  double brute = BruteRestrictedOptimum(input, param.budget, options);
  EXPECT_NEAR(result->cost, brute, 1e-9)
      << ErrorMetricName(param.metric) << " n=" << param.domain
      << " B=" << param.budget;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, WaveletDpTest,
    ::testing::Values(
        WaveletDpCase{ErrorMetric::kSae, 1.0, 4, 1, 1},
        WaveletDpCase{ErrorMetric::kSae, 1.0, 4, 2, 2},
        WaveletDpCase{ErrorMetric::kSae, 1.0, 8, 3, 3},
        WaveletDpCase{ErrorMetric::kSare, 0.5, 8, 2, 4},
        WaveletDpCase{ErrorMetric::kSare, 1.0, 8, 4, 5},
        WaveletDpCase{ErrorMetric::kMae, 1.0, 8, 2, 6},
        WaveletDpCase{ErrorMetric::kMare, 0.5, 8, 3, 7},
        WaveletDpCase{ErrorMetric::kSse, 1.0, 8, 3, 8},
        WaveletDpCase{ErrorMetric::kSsre, 1.0, 8, 2, 9},
        WaveletDpCase{ErrorMetric::kSae, 1.0, 6, 2, 10},  // padded domain
        WaveletDpCase{ErrorMetric::kMae, 1.0, 5, 3, 11}),
    [](const ::testing::TestParamInfo<WaveletDpCase>& info) {
      return std::string(ErrorMetricName(info.param.metric)) + "_n" +
             std::to_string(info.param.domain) + "_B" +
             std::to_string(info.param.budget) + "_seed" +
             std::to_string(info.param.seed);
    });

TEST(WaveletDp, SseAgreesWithGreedyThresholding) {
  // For the SSE metric the restricted DP must reproduce Theorem 7's greedy
  // optimum exactly.
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 16, .max_support = 3, .max_value = 6, .seed = 41});
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  for (std::size_t budget : {1u, 3u, 6u}) {
    auto dp = BuildRestrictedWaveletDp(input, budget, options);
    auto greedy = BuildSseOptimalWavelet(input, budget);
    ASSERT_TRUE(dp.ok() && greedy.ok());
    auto dp_cost = EvaluateWavelet(input, dp->synopsis, options);
    auto greedy_cost = EvaluateWavelet(input, greedy.value(), options);
    ASSERT_TRUE(dp_cost.ok() && greedy_cost.ok());
    EXPECT_NEAR(*dp_cost, *greedy_cost, 1e-8) << "budget " << budget;
  }
}

TEST(WaveletDp, ZeroBudgetEstimatesEverythingAsZero) {
  ValuePdfInput input = testing::PaperExampleValuePdf();
  SynopsisOptions options;
  options.metric = ErrorMetric::kSae;
  auto result = BuildRestrictedWaveletDp(input, 0, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->synopsis.num_coefficients(), 0u);
  // Cost = sum_i E|g_i - 0| = sum of expected frequencies.
  double expect = 0.0;
  for (double m : input.ExpectedFrequencies()) expect += m;
  EXPECT_NEAR(result->cost, expect, 1e-9);
}

TEST(WaveletDp, SingleItemDomain) {
  ValuePdfInput input({ValuePdf::PointMass(4.0)});
  SynopsisOptions options;
  options.metric = ErrorMetric::kSae;
  auto result = BuildRestrictedWaveletDp(input, 1, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->synopsis.num_coefficients(), 1u);
  EXPECT_NEAR(result->cost, 0.0, 1e-12);
}

TEST(WaveletDp, RejectsOversizedDomains) {
  ValuePdfInput input = GenerateRandomValuePdf({.domain_size = 64, .seed = 1});
  SynopsisOptions options;
  options.metric = ErrorMetric::kSae;
  auto result = BuildRestrictedWaveletDp(input, 4, options, /*max_domain=*/32);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

// Regression for the old hash-memo's rehash-dangling footgun: the
// recursive solver held a reference to the left child's best table while
// computing the right child, and an unordered_map rehash in between left
// it dangling (the historical fix copied the vector per state). This input
// is big enough that the old memo rehashed many times mid-recursion, so a
// reintroduced dangling read would corrupt costs or coefficients; under
// the flat arena, child spans are stable by construction. The check is
// three-way: a solve into a fresh arena == a solve into an arena dirtied
// by a larger solve, bit-for-bit, and the reported cost equals the
// evaluated cost of the returned synopsis.
TEST(WaveletDp, ArenaSpansStableUnderLargeStateCounts) {
  for (std::size_t domain : {64u, 200u}) {
    ValuePdfInput input = GenerateRandomValuePdf(
        {.domain_size = domain, .max_support = 3, .max_value = 6,
         .seed = domain});
    SynopsisOptions options;
    options.metric = ErrorMetric::kSae;
    DpWorkspace workspace;
    ASSERT_TRUE(
        BuildRestrictedWaveletDp(input, 40, options, 2048, &workspace).ok());
    auto reference =
        BuildRestrictedWaveletDp(input, 24, options, 2048, &workspace);
    auto fast = BuildRestrictedWaveletDp(input, 24, options);
    ASSERT_TRUE(reference.ok() && fast.ok());
    EXPECT_EQ(reference->cost, fast->cost);
    ASSERT_EQ(reference->synopsis.coefficients().size(),
              fast->synopsis.coefficients().size());
    for (std::size_t i = 0; i < fast->synopsis.coefficients().size(); ++i) {
      EXPECT_EQ(reference->synopsis.coefficients()[i].index,
                fast->synopsis.coefficients()[i].index);
      EXPECT_EQ(reference->synopsis.coefficients()[i].value,
                fast->synopsis.coefficients()[i].value);
    }
    auto evaluated = EvaluateWavelet(input, fast->synopsis, options);
    ASSERT_TRUE(evaluated.ok());
    EXPECT_NEAR(fast->cost, *evaluated, 1e-9) << "n=" << domain;
  }
}

// Zero steady-state allocation: repeat solves through one leased workspace
// must not grow the arena (the pool-stats assertion of the acceptance
// criteria), and reusing the arena must not change any output.
TEST(WaveletDp, WorkspaceReuseAllocatesNoDpState) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 128, .max_support = 3, .max_value = 6, .seed = 77});
  SynopsisOptions options;
  options.metric = ErrorMetric::kMae;

  DpWorkspacePool pool;
  DpWorkspacePool::Lease lease = pool.Acquire();
  DpWorkspace* workspace = lease.get();

  auto first = BuildRestrictedWaveletDp(input, 32, options, 2048, workspace);
  ASSERT_TRUE(first.ok());
  const std::size_t grows_after_warmup =
      workspace->wavelet_arena().grow_events;
  EXPECT_GT(grows_after_warmup, 0u);  // the warmup solve sized the arena

  for (int repeat = 0; repeat < 3; ++repeat) {
    auto again = BuildRestrictedWaveletDp(input, 32, options, 2048, workspace);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->cost, first->cost);
    EXPECT_EQ(again->synopsis.coefficients().size(),
              first->synopsis.coefficients().size());
    EXPECT_EQ(workspace->wavelet_arena().grow_events, grows_after_warmup)
        << "repeat solve " << repeat << " grew the arena";
  }

  // Smaller shapes fit the warm arena too: still no growth.
  ValuePdfInput smaller = GenerateRandomValuePdf(
      {.domain_size = 64, .max_support = 3, .max_value = 6, .seed = 78});
  auto small = BuildRestrictedWaveletDp(smaller, 8, options, 2048, workspace);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(workspace->wavelet_arena().grow_events, grows_after_warmup);
  EXPECT_EQ(workspace->wavelet_arena().solves, 5u);
}

TEST(WaveletDp, ResultRecordsMemoLayout) {
  ValuePdfInput input = testing::PaperExampleValuePdf();
  SynopsisOptions options;
  options.metric = ErrorMetric::kSae;
  auto result = BuildRestrictedWaveletDp(input, 2, options);
  ASSERT_TRUE(result.ok());
  EXPECT_STREQ(result->memo, "dense-arena");
}

TEST(WaveletDp, MonotoneInBudget) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 16, .max_support = 3, .max_value = 5, .seed = 55});
  SynopsisOptions options;
  options.metric = ErrorMetric::kSare;
  options.sanity_c = 1.0;
  double prev = std::numeric_limits<double>::infinity();
  for (std::size_t budget = 0; budget <= 8; ++budget) {
    auto result = BuildRestrictedWaveletDp(input, budget, options);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->cost, prev + 1e-12) << "budget " << budget;
    prev = result->cost;
  }
}

}  // namespace
}  // namespace probsyn
