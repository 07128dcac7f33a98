// Tuple-pdf inputs through the full metric grid: factory-built oracles
// (which route through the induced value pdf) checked against exhaustive
// possible-world enumeration, including within-tuple anticorrelation.

#include <limits>

#include <gtest/gtest.h>

#include "core/oracle_factory.h"
#include "gen/generators.h"
#include "reference/brute_force.h"
#include "test_util.h"

namespace probsyn {
namespace {

struct TupleOracleCase {
  ErrorMetric metric;
  double c;
  bool allow_absent;
  std::uint64_t seed;
};

class TupleOracleGridTest : public ::testing::TestWithParam<TupleOracleCase> {};

TEST_P(TupleOracleGridTest, CostsMatchWorldEnumeration) {
  const TupleOracleCase& param = GetParam();
  TuplePdfInput input = GenerateRandomTuplePdf(
      {.domain_size = 6,
       .num_tuples = 7,
       .max_alternatives = 3,
       .allow_absent = param.allow_absent,
       .seed = param.seed});
  auto worlds = reference::EnumerateWorlds(input);
  ASSERT_TRUE(worlds.ok());

  SynopsisOptions options;
  options.metric = param.metric;
  options.sanity_c = param.c;
  options.sse_variant = SseVariant::kFixedRepresentative;
  auto bundle = MakeBucketOracle(input, options);
  ASSERT_TRUE(bundle.ok()) << bundle.status();

  bool cumulative = IsCumulativeMetric(param.metric);
  for (std::size_t s = 0; s < 6; ++s) {
    for (std::size_t e = s; e < 6; ++e) {
      BucketCost got = bundle->oracle->Cost(s, e);
      // (a) Consistency: the reported cost is the enumerated expected
      // error at the reported representative.
      double sum = 0.0, worst = 0.0;
      for (std::size_t i = s; i <= e; ++i) {
        double err = testing::EnumeratedItemError(
            worlds.value(), i, got.representative, param.metric, param.c);
        sum += err;
        worst = std::max(worst, err);
      }
      double at_rep = cumulative ? sum : worst;
      EXPECT_NEAR(got.cost, at_rep, 1e-8)
          << ErrorMetricName(param.metric) << " [" << s << "," << e << "]";

      // (b) Optimality: no dense-grid candidate beats it.
      double best = std::numeric_limits<double>::infinity();
      for (int g = 0; g <= 500; ++g) {
        double v = 5.0 * g / 500.0;
        double cand_sum = 0.0, cand_worst = 0.0;
        for (std::size_t i = s; i <= e; ++i) {
          double err = testing::EnumeratedItemError(worlds.value(), i, v,
                                                    param.metric, param.c);
          cand_sum += err;
          cand_worst = std::max(cand_worst, err);
        }
        best = std::min(best, cumulative ? cand_sum : cand_worst);
      }
      EXPECT_LE(got.cost, best + 1e-6)
          << ErrorMetricName(param.metric) << " [" << s << "," << e << "]";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MetricsAndSeeds, TupleOracleGridTest,
    ::testing::Values(
        TupleOracleCase{ErrorMetric::kSse, 1.0, true, 41},
        TupleOracleCase{ErrorMetric::kSse, 1.0, false, 42},
        TupleOracleCase{ErrorMetric::kSsre, 0.5, true, 43},
        TupleOracleCase{ErrorMetric::kSsre, 1.0, false, 44},
        TupleOracleCase{ErrorMetric::kSae, 1.0, true, 45},
        TupleOracleCase{ErrorMetric::kSae, 1.0, false, 46},
        TupleOracleCase{ErrorMetric::kSare, 0.5, true, 47},
        TupleOracleCase{ErrorMetric::kSare, 1.0, false, 48},
        TupleOracleCase{ErrorMetric::kMae, 1.0, true, 49},
        TupleOracleCase{ErrorMetric::kMare, 0.5, false, 50}),
    [](const ::testing::TestParamInfo<TupleOracleCase>& info) {
      return std::string(ErrorMetricName(info.param.metric)) +
             (info.param.allow_absent ? "_absent" : "_full") + "_seed" +
             std::to_string(info.param.seed);
    });

// Basic-model inputs must agree with their tuple-pdf embedding through the
// oracle layer (Definition 1 as a special case of Definition 2).
TEST(TupleOracleGrid, BasicModelEmbeddingIsTransparent) {
  BasicModelInput basic = testing::PaperExampleBasic();
  auto tuple_pdf = basic.ToTuplePdf();
  ASSERT_TRUE(tuple_pdf.ok());
  auto worlds = reference::EnumerateWorlds(basic);
  ASSERT_TRUE(worlds.ok());

  for (ErrorMetric metric : {ErrorMetric::kSse, ErrorMetric::kSae,
                             ErrorMetric::kMare}) {
    SynopsisOptions options;
    options.metric = metric;
    options.sanity_c = 0.5;
    options.sse_variant = SseVariant::kFixedRepresentative;
    auto bundle = MakeBucketOracle(tuple_pdf.value(), options);
    ASSERT_TRUE(bundle.ok());
    BucketCost whole = bundle->oracle->Cost(0, 2);
    double sum = 0.0, worst = 0.0;
    for (std::size_t i = 0; i < 3; ++i) {
      double err = testing::EnumeratedItemError(
          worlds.value(), i, whole.representative, metric, 0.5);
      sum += err;
      worst = std::max(worst, err);
    }
    double expect = IsCumulativeMetric(metric) ? sum : worst;
    EXPECT_NEAR(whole.cost, expect, 1e-9) << ErrorMetricName(metric);
  }
}

}  // namespace
}  // namespace probsyn
