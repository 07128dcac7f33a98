// Bucket-cost oracle correctness: every oracle's (representative, cost)
// is checked against brute force over possible worlds and candidate
// representatives, including the paper's section-3.1 worked example.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/abs_oracle.h"
#include "core/max_oracle.h"
#include "core/oracle_factory.h"
#include "core/point_error.h"
#include "core/sse_oracle.h"
#include "core/ssre_oracle.h"
#include "gen/generators.h"
#include "model/induced.h"
#include "reference/brute_force.h"
#include "test_util.h"

namespace probsyn {
namespace {

// Brute-force expected bucket error at a FIXED representative, from
// enumerated worlds: sum/max over items in [s,e] of E_W[err(g_i, v)].
double BruteBucketCost(const std::vector<reference::PossibleWorld>& worlds,
                       std::size_t s, std::size_t e, double v,
                       ErrorMetric metric, double c) {
  bool cumulative = IsCumulativeMetric(metric);
  double sum = 0.0, worst = 0.0;
  for (std::size_t i = s; i <= e; ++i) {
    double err = testing::EnumeratedItemError(worlds, i, v, metric, c);
    sum += err;
    worst = std::max(worst, err);
  }
  return cumulative ? sum : worst;
}

// Dense candidate scan for a near-optimal representative.
double BruteBestCost(const std::vector<reference::PossibleWorld>& worlds,
                     std::size_t s, std::size_t e, ErrorMetric metric,
                     double c, double v_max) {
  double best = std::numeric_limits<double>::infinity();
  const int kGrid = 800;
  for (int g = 0; g <= kGrid; ++g) {
    double v = v_max * g / kGrid;
    best = std::min(best, BruteBucketCost(worlds, s, e, v, metric, c));
  }
  return best;
}

TEST(SseOracle, PaperWorkedExampleWorldMean) {
  // Section 3.1: bucket spanning the full example domain has world-mean
  // SSE cost 252/144 - (1/3)(136/48) = 29/36.
  TuplePdfInput input = testing::PaperExampleTuplePdf();
  SseTupleWorldMeanOracle oracle(input);
  BucketCost cost = oracle.Cost(0, 2);
  EXPECT_NEAR(cost.cost, 29.0 / 36, 1e-12);
  // "The same value can be obtained by computing the expected sample
  // variance over all possible worlds."
  auto worlds = reference::EnumerateWorlds(input);
  ASSERT_TRUE(worlds.ok());
  Histogram one_bucket({{0, 2, 0.0}});
  EXPECT_NEAR(testing::EnumeratedWorldMeanSse(worlds.value(), one_bucket),
              29.0 / 36, 1e-12);
}

TEST(SseOracle, PaperExampleIntermediateMoments) {
  // E[(sum_i g_i)^2] over the bucket {0,1,2} must equal 136/48.
  TuplePdfInput input = testing::PaperExampleTuplePdf();
  auto worlds = reference::EnumerateWorlds(input);
  ASSERT_TRUE(worlds.ok());
  double e_square = reference::ExpectationOverWorlds(
      worlds.value(), [](const std::vector<double>& f) {
        double s = f[0] + f[1] + f[2];
        return s * s;
      });
  EXPECT_NEAR(e_square, 136.0 / 48, 1e-12);
}

TEST(SseOracle, FixedRepresentativeMatchesEnumerationOnPaperExample) {
  // With a representative fixed across worlds, the optimal bucket cost of
  // [0,2] is sum E[g^2] - (sum E[g])^2 / 3 = 252/144 - 3*(19/36)^2 = 395/432.
  TuplePdfInput input = testing::PaperExampleTuplePdf();
  SseMomentOracle oracle =
      SseMomentOracle::FromTuplePdf(input, SseVariant::kFixedRepresentative);
  BucketCost cost = oracle.Cost(0, 2);
  EXPECT_NEAR(cost.cost, 395.0 / 432, 1e-12);
  EXPECT_NEAR(cost.representative, 19.0 / 36, 1e-12);

  auto worlds = reference::EnumerateWorlds(input);
  ASSERT_TRUE(worlds.ok());
  EXPECT_NEAR(BruteBucketCost(worlds.value(), 0, 2, cost.representative,
                              ErrorMetric::kSse, 1.0),
              cost.cost, 1e-12);
  // And no grid candidate does better.
  EXPECT_LE(cost.cost, BruteBestCost(worlds.value(), 0, 2, ErrorMetric::kSse,
                                     1.0, 3.0) +
                           1e-9);
}

TEST(SseOracle, WorldMeanSubBucketsOnPaperExample) {
  // Cross-check every sub-bucket of the worked example against exhaustive
  // enumeration of E[sample variance].
  TuplePdfInput input = testing::PaperExampleTuplePdf();
  SseTupleWorldMeanOracle oracle(input);
  auto worlds = reference::EnumerateWorlds(input);
  ASSERT_TRUE(worlds.ok());
  for (std::size_t s = 0; s < 3; ++s) {
    for (std::size_t e = s; e < 3; ++e) {
      // Directly: expected within-bucket variance * n_b for bucket [s,e].
      double enumerated = 0.0;
      for (const reference::PossibleWorld& w : worlds.value()) {
        double nb = static_cast<double>(e - s + 1);
        double mean = 0.0;
        for (std::size_t i = s; i <= e; ++i) mean += w.frequencies[i];
        mean /= nb;
        for (std::size_t i = s; i <= e; ++i) {
          double d = w.frequencies[i] - mean;
          enumerated += w.probability * d * d;
        }
      }
      EXPECT_NEAR(oracle.Cost(s, e).cost, enumerated, 1e-10)
          << "bucket [" << s << "," << e << "]";
    }
  }
}

TEST(SseOracle, SweepAgreesWithRandomAccess) {
  TuplePdfInput input = GenerateRandomTuplePdf(
      {.domain_size = 12, .num_tuples = 20, .max_alternatives = 4, .seed = 5});
  SseTupleWorldMeanOracle oracle(input);
  for (std::size_t e = 0; e < 12; ++e) {
    auto sweep = oracle.StartSweep(e);
    for (std::size_t s = e;; --s) {
      BucketCost from_sweep = sweep->Extend();
      BucketCost direct = oracle.Cost(s, e);
      EXPECT_NEAR(from_sweep.cost, direct.cost, 1e-9)
          << "bucket [" << s << "," << e << "]";
      EXPECT_NEAR(from_sweep.representative, direct.representative, 1e-12);
      if (s == 0) break;
    }
  }
}

TEST(SseOracle, ValuePdfWorldMeanMatchesEnumeration) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ValuePdfInput input = GenerateRandomValuePdf(
        {.domain_size = 6, .max_support = 3, .max_value = 4, .seed = seed});
    auto worlds = reference::EnumerateWorlds(input);
    ASSERT_TRUE(worlds.ok());
    SseMomentOracle oracle =
        SseMomentOracle::FromValuePdf(input, SseVariant::kWorldMean);
    for (std::size_t s = 0; s < 6; ++s) {
      for (std::size_t e = s; e < 6; ++e) {
        double enumerated = 0.0;
        for (const reference::PossibleWorld& w : worlds.value()) {
          double nb = static_cast<double>(e - s + 1);
          double mean = 0.0;
          for (std::size_t i = s; i <= e; ++i) mean += w.frequencies[i];
          mean /= nb;
          for (std::size_t i = s; i <= e; ++i) {
            double d = w.frequencies[i] - mean;
            enumerated += w.probability * d * d;
          }
        }
        EXPECT_NEAR(oracle.Cost(s, e).cost, enumerated, 1e-9)
            << "seed " << seed << " [" << s << "," << e << "]";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Parameterized brute-force sweep across cumulative metrics on random
// value-pdf inputs: the oracle's cost must (a) equal the enumerated cost at
// its own representative, and (b) be no worse than any dense-grid candidate.

struct OracleCase {
  ErrorMetric metric;
  double c;
  std::uint64_t seed;
};

class CumulativeOracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(CumulativeOracleTest, MatchesBruteForce) {
  const OracleCase& param = GetParam();
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 7, .max_support = 3, .max_value = 5,
       .seed = param.seed});
  auto worlds = reference::EnumerateWorlds(input);
  ASSERT_TRUE(worlds.ok());

  SynopsisOptions options;
  options.metric = param.metric;
  options.sanity_c = param.c;
  options.sse_variant = SseVariant::kFixedRepresentative;
  auto bundle = MakeBucketOracle(input, options);
  ASSERT_TRUE(bundle.ok()) << bundle.status();

  for (std::size_t s = 0; s < input.domain_size(); ++s) {
    for (std::size_t e = s; e < input.domain_size(); ++e) {
      BucketCost got = bundle->oracle->Cost(s, e);
      double at_rep = BruteBucketCost(worlds.value(), s, e,
                                      got.representative, param.metric,
                                      param.c);
      EXPECT_NEAR(got.cost, at_rep, 1e-8)
          << ErrorMetricName(param.metric) << " [" << s << "," << e
          << "] rep=" << got.representative;
      double best = BruteBestCost(worlds.value(), s, e, param.metric, param.c,
                                  6.0);
      EXPECT_LE(got.cost, best + 1e-6)
          << ErrorMetricName(param.metric) << " [" << s << "," << e << "]";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MetricsAndSeeds, CumulativeOracleTest,
    ::testing::Values(OracleCase{ErrorMetric::kSse, 1.0, 1},
                      OracleCase{ErrorMetric::kSse, 1.0, 2},
                      OracleCase{ErrorMetric::kSsre, 0.5, 1},
                      OracleCase{ErrorMetric::kSsre, 1.0, 3},
                      OracleCase{ErrorMetric::kSae, 1.0, 1},
                      OracleCase{ErrorMetric::kSae, 1.0, 4},
                      OracleCase{ErrorMetric::kSare, 0.5, 2},
                      OracleCase{ErrorMetric::kSare, 1.0, 5},
                      OracleCase{ErrorMetric::kMae, 1.0, 1},
                      OracleCase{ErrorMetric::kMae, 1.0, 6},
                      OracleCase{ErrorMetric::kMare, 0.5, 3},
                      OracleCase{ErrorMetric::kMare, 1.0, 7}),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return std::string(ErrorMetricName(info.param.metric)) + "_seed" +
             std::to_string(info.param.seed);
    });

TEST(AbsOracle, GridCostIsConvexAndSearchFindsMinimum) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 10, .max_support = 4, .max_value = 8, .seed = 21});
  AbsCumulativeOracle oracle(input, /*relative=*/false, 1.0);
  const auto& grid = oracle.grid();
  for (std::size_t s = 0; s < 10; s += 3) {
    for (std::size_t e = s; e < 10; e += 2) {
      BucketCost got = oracle.Cost(s, e);
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t l = 0; l < grid.size(); ++l) {
        best = std::min(best, oracle.CostAtGridIndex(s, e, l));
      }
      EXPECT_NEAR(got.cost, best, 1e-10) << "[" << s << "," << e << "]";
    }
  }
}

TEST(MaxOracle, ContinuousOptimumBeatsGridWhenEnvelopeCrossesBetweenValues) {
  // Two deterministic items with frequencies 0 and 3: MAE envelope
  // max(|v|, |3 - v|) is minimized at v = 1.5, strictly between grid
  // values {0, 3} — exercising the min-of-max-of-lines refinement.
  ValuePdfInput input(
      {ValuePdf::PointMass(0.0), ValuePdf::PointMass(3.0)});
  auto tables = std::make_shared<const PointErrorTables>(
      input, 1.0, ErrorMetric::kMae, input.domain_size());
  MaxErrorOracle oracle(tables, /*relative=*/false);
  BucketCost got = oracle.Cost(0, 1);
  EXPECT_NEAR(got.representative, 1.5, 1e-9);
  EXPECT_NEAR(got.cost, 1.5, 1e-9);
}

TEST(MaxOracle, EnvelopeAtMatchesPointErrors) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 5, .max_support = 3, .max_value = 4, .seed = 31});
  auto tables = std::make_shared<const PointErrorTables>(
      input, 0.5, ErrorMetric::kMare, input.domain_size());
  MaxErrorOracle oracle(tables, /*relative=*/true);
  for (double v : {0.0, 0.5, 1.0, 2.5, 4.0}) {
    double expect = 0.0;
    for (std::size_t i = 1; i <= 3; ++i) {
      expect = std::max(expect, tables->AbsoluteRelativeError(i, v));
    }
    EXPECT_NEAR(oracle.EnvelopeAt(1, 3, v), expect, 1e-12);
  }
}

TEST(OracleFactory, TupleInputsRouteThroughInducedPdf) {
  TuplePdfInput input = testing::PaperExampleTuplePdf();
  SynopsisOptions options;
  options.metric = ErrorMetric::kSae;
  auto bundle = MakeBucketOracle(input, options);
  ASSERT_TRUE(bundle.ok());
  auto induced = InduceValuePdf(input);
  ASSERT_TRUE(induced.ok());
  auto value_bundle = MakeBucketOracle(induced.value(), options);
  ASSERT_TRUE(value_bundle.ok());
  for (std::size_t s = 0; s < 3; ++s) {
    for (std::size_t e = s; e < 3; ++e) {
      EXPECT_NEAR(bundle->oracle->Cost(s, e).cost,
                  value_bundle->oracle->Cost(s, e).cost, 1e-12);
    }
  }
}

TEST(OracleFactory, RejectsEmptyDomain) {
  ValuePdfInput empty;
  SynopsisOptions options;
  EXPECT_FALSE(MakeBucketOracle(empty, options).ok());
}

TEST(OracleFactory, MaxMetricsUseMaxCombiner) {
  ValuePdfInput input = testing::PaperExampleValuePdf();
  SynopsisOptions options;
  options.metric = ErrorMetric::kMae;
  auto bundle = MakeBucketOracle(input, options);
  ASSERT_TRUE(bundle.ok());
  EXPECT_EQ(bundle->combiner, DpCombiner::kMax);
  options.metric = ErrorMetric::kSse;
  auto sum_bundle = MakeBucketOracle(input, options);
  ASSERT_TRUE(sum_bundle.ok());
  EXPECT_EQ(sum_bundle->combiner, DpCombiner::kSum);
}

}  // namespace
}  // namespace probsyn
