#include "core/point_error.h"

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "reference/brute_force.h"
#include "test_util.h"
#include "util/random.h"

namespace probsyn {
namespace {

// Direct per-pdf computation used as ground truth.
double Direct(const ValuePdf& pdf, ErrorMetric metric, double v, double c) {
  double total = 0.0;
  for (const ValueProb& e : pdf.entries()) {
    total += e.probability * PointError(metric, e.value, v, c);
  }
  return total;
}

// The tables a build for `metric` over the input's own domain fills.
PointErrorTables TablesFor(const ValuePdfInput& input, double c,
                           ErrorMetric metric) {
  return PointErrorTables(input, c, metric, input.domain_size());
}

constexpr ErrorMetric kAllMetrics[] = {
    ErrorMetric::kSse, ErrorMetric::kSsre, ErrorMetric::kSae,
    ErrorMetric::kSare, ErrorMetric::kMae, ErrorMetric::kMare};

class PointErrorRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PointErrorRandomTest, MatchesDirectComputationAtManyEstimates) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 24, .max_support = 5, .max_value = 9,
       .seed = GetParam()});
  const double c = 0.75;
  std::vector<PointErrorTables> tables;
  for (ErrorMetric m : kAllMetrics) tables.push_back(TablesFor(input, c, m));
  Rng rng(GetParam() * 131 + 7);

  for (int probe = 0; probe < 50; ++probe) {
    // Mix grid-exact, interior and out-of-range estimates.
    double v;
    switch (probe % 3) {
      case 0:
        v = static_cast<double>(rng.NextBounded(10));
        break;
      case 1:
        v = rng.NextUniform(0.0, 9.0);
        break;
      default:
        v = rng.NextUniform(-2.0, 14.0);
        break;
    }
    std::size_t i = rng.NextBounded(input.domain_size());
    for (std::size_t k = 0; k < std::size(kAllMetrics); ++k) {
      const ErrorMetric m = kAllMetrics[k];
      EXPECT_NEAR(tables[k].ExpectedPointError(m, i, v),
                  Direct(input.item(i), m, v, c), 1e-9)
          << ErrorMetricName(m) << " item " << i << " v=" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PointErrorRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(PointErrorTables, SegmentOf) {
  ValuePdfInput input = testing::PaperExampleValuePdf();
  const PointErrorTables tables = TablesFor(input, 1.0, ErrorMetric::kMae);
  // Grid is {0, 1, 2}.
  EXPECT_EQ(tables.SegmentOf(-0.5), static_cast<std::size_t>(-1));
  EXPECT_EQ(tables.SegmentOf(0.0), 0u);
  EXPECT_EQ(tables.SegmentOf(0.7), 0u);
  EXPECT_EQ(tables.SegmentOf(1.0), 1u);
  EXPECT_EQ(tables.SegmentOf(5.0), 2u);
}

TEST(PointErrorTables, LinesTileTheAbsoluteErrorCurve) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 6, .max_support = 4, .max_value = 6, .seed = 11});
  const PointErrorTables absolute = TablesFor(input, 1.0, ErrorMetric::kMae);
  const PointErrorTables relative_tables =
      TablesFor(input, 1.0, ErrorMetric::kMare);
  const auto& grid = absolute.grid();
  ASSERT_EQ(relative_tables.grid(), grid);
  for (std::size_t i = 0; i < input.domain_size(); ++i) {
    for (bool relative : {false, true}) {
      const PointErrorTables& tables = relative ? relative_tables : absolute;
      // Each segment's line must agree with the pointwise evaluation at
      // both segment ends (continuity + correctness).
      for (std::size_t l = 0; l + 1 < grid.size(); ++l) {
        Line line = tables.AbsoluteErrorLine(i, l, relative);
        for (double x : {grid[l], 0.5 * (grid[l] + grid[l + 1]), grid[l + 1]}) {
          double direct = relative
                              ? Direct(input.item(i), ErrorMetric::kSare, x, 1.0)
                              : Direct(input.item(i), ErrorMetric::kSae, x, 1.0);
          EXPECT_NEAR(line.At(x), direct, 1e-9)
              << "item " << i << " segment " << l << " x=" << x;
        }
      }
      // Left outer ray.
      Line ray = tables.AbsoluteErrorLine(i, static_cast<std::size_t>(-1),
                                          relative);
      double x = -1.5;
      double direct = relative
                          ? Direct(input.item(i), ErrorMetric::kSare, x, 1.0)
                          : Direct(input.item(i), ErrorMetric::kSae, x, 1.0);
      EXPECT_NEAR(ray.At(x), direct, 1e-9);
    }
  }
}

TEST(PointErrorTables, AgreesWithWorldEnumeration) {
  ValuePdfInput input = testing::PaperExampleValuePdf();
  auto worlds = reference::EnumerateWorlds(input);
  ASSERT_TRUE(worlds.ok());
  const double c = 0.5;
  for (ErrorMetric m : {ErrorMetric::kSse, ErrorMetric::kSsre,
                        ErrorMetric::kSae, ErrorMetric::kSare}) {
    const PointErrorTables tables = TablesFor(input, c, m);
    for (std::size_t i = 0; i < input.domain_size(); ++i) {
      for (double v : {0.0, 0.3, 1.0, 1.7, 2.0, 3.0}) {
        EXPECT_NEAR(tables.ExpectedPointError(m, i, v),
                    testing::EnumeratedItemError(worlds.value(), i, v, m, c),
                    1e-9)
            << ErrorMetricName(m) << " i=" << i << " v=" << v;
      }
    }
  }
}

}  // namespace
}  // namespace probsyn
