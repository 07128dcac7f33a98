#include "model/value_pdf.h"

#include <cmath>

#include <gtest/gtest.h>

#include "reference/brute_force.h"
#include "util/math.h"

namespace probsyn {
namespace {

TEST(ValuePdf, CreateMaterializesZeroRemainder) {
  auto pdf = ValuePdf::Create({{2.0, 0.25}, {1.0, 0.25}});
  ASSERT_TRUE(pdf.ok());
  ASSERT_EQ(pdf->size(), 3u);
  EXPECT_DOUBLE_EQ(pdf->entries()[0].value, 0.0);
  EXPECT_DOUBLE_EQ(pdf->entries()[0].probability, 0.5);
  EXPECT_DOUBLE_EQ(pdf->entries()[1].value, 1.0);
  EXPECT_DOUBLE_EQ(pdf->entries()[2].value, 2.0);
}

TEST(ValuePdf, CreateMergesDuplicateValues) {
  auto pdf = ValuePdf::Create({{1.0, 0.3}, {1.0, 0.2}, {2.0, 0.5}});
  ASSERT_TRUE(pdf.ok());
  ASSERT_EQ(pdf->size(), 2u);
  EXPECT_DOUBLE_EQ(pdf->entries()[0].probability, 0.5);
  EXPECT_DOUBLE_EQ(pdf->entries()[1].probability, 0.5);
}

TEST(ValuePdf, CreateMergesZeroRemainderIntoExplicitZero) {
  auto pdf = ValuePdf::Create({{0.0, 0.25}, {3.0, 0.25}});
  ASSERT_TRUE(pdf.ok());
  ASSERT_EQ(pdf->size(), 2u);
  EXPECT_DOUBLE_EQ(pdf->entries()[0].probability, 0.75);
}

TEST(ValuePdf, CreateDropsZeroProbabilityEntries) {
  auto pdf = ValuePdf::Create({{5.0, 0.0}, {1.0, 1.0}});
  ASSERT_TRUE(pdf.ok());
  ASSERT_EQ(pdf->size(), 1u);
  EXPECT_DOUBLE_EQ(pdf->entries()[0].value, 1.0);
}

TEST(ValuePdf, CreateRejectsOverflowingMass) {
  auto pdf = ValuePdf::Create({{1.0, 0.7}, {2.0, 0.7}});
  EXPECT_FALSE(pdf.ok());
  EXPECT_EQ(pdf.status().code(), StatusCode::kInvalidArgument);
}

TEST(ValuePdf, CreateRejectsNegativeProbability) {
  EXPECT_FALSE(ValuePdf::Create({{1.0, -0.1}}).ok());
}

TEST(ValuePdf, CreateRejectsNegativeOrNonFiniteValues) {
  EXPECT_FALSE(ValuePdf::Create({{-1.0, 0.5}}).ok());
  EXPECT_FALSE(ValuePdf::Create({{std::nan(""), 0.5}}).ok());
}

TEST(ValuePdf, PointMass) {
  ValuePdf pdf = ValuePdf::PointMass(7.0);
  ASSERT_EQ(pdf.size(), 1u);
  EXPECT_DOUBLE_EQ(pdf.Mean(), 7.0);
  EXPECT_DOUBLE_EQ(pdf.SecondMoment(), 49.0);
}

TEST(ValuePdf, MomentsMatchHandComputation) {
  // g ~ {0: 5/12, 1: 1/3, 2: 1/4}  (paper Example 1's g2 in the value-pdf
  // variant): E[g] = 1/3 + 1/2 = 5/6; E[g^2] = 1/3 + 1 = 4/3.
  auto pdf = ValuePdf::Create({{1.0, 1.0 / 3}, {2.0, 1.0 / 4}});
  ASSERT_TRUE(pdf.ok());
  EXPECT_NEAR(pdf->Mean(), 5.0 / 6, 1e-12);
  EXPECT_NEAR(pdf->SecondMoment(), 4.0 / 3, 1e-12);
}

TEST(ValuePdf, ProbQueries) {
  auto pdf = ValuePdf::Create({{1.0, 0.25}, {3.0, 0.25}});
  ASSERT_TRUE(pdf.ok());
  EXPECT_DOUBLE_EQ(reference::ProbEquals(*pdf, 0.0), 0.5);
  EXPECT_DOUBLE_EQ(reference::ProbEquals(*pdf, 1.0), 0.25);
  EXPECT_DOUBLE_EQ(reference::ProbEquals(*pdf, 2.0), 0.0);
}

TEST(ValuePdf, ExpectedDeviations) {
  auto pdf = ValuePdf::Create({{2.0, 0.5}});  // {0: .5, 2: .5}
  ASSERT_TRUE(pdf.ok());
  EXPECT_NEAR(reference::ExpectedAbsDeviation(*pdf, 1.0), 1.0, 1e-12);
  EXPECT_NEAR(reference::ExpectedAbsDeviation(*pdf, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(pdf->ExpectedSquaredDeviation(1.0), 1.0, 1e-12);
  EXPECT_NEAR(pdf->ExpectedSquaredDeviation(0.0), 2.0, 1e-12);
  EXPECT_NEAR(pdf->ExpectedSquaredRelDeviation(2.0, 1.0), 0.5 * 4.0, 1e-12);
}

TEST(ValuePdfInput, ValidateAcceptsNormalizedInput) {
  auto a = ValuePdf::Create({{1.0, 0.5}});
  auto b = ValuePdf::Create({{2.0, 1.0}});
  ASSERT_TRUE(a.ok() && b.ok());
  ValuePdfInput input({a.value(), b.value()});
  EXPECT_TRUE(input.Validate().ok());
  EXPECT_EQ(input.domain_size(), 2u);
  EXPECT_EQ(input.total_pairs(), 3u);  // zero entry materialized in `a`
}

TEST(ValuePdfInput, ValidateRejectsEmptyItemPdf) {
  ValuePdfInput input({ValuePdf()});
  EXPECT_FALSE(input.Validate().ok());
}

TEST(ValuePdfInput, ValueGridIncludesZeroAndIsSortedUnique) {
  auto a = ValuePdf::Create({{3.0, 0.5}, {1.0, 0.5}});
  auto b = ValuePdf::Create({{3.0, 1.0}});
  ASSERT_TRUE(a.ok() && b.ok());
  ValuePdfInput input({a.value(), b.value()});
  std::vector<double> grid = input.ValueGrid();
  ASSERT_EQ(grid.size(), 3u);
  EXPECT_DOUBLE_EQ(grid[0], 0.0);
  EXPECT_DOUBLE_EQ(grid[1], 1.0);
  EXPECT_DOUBLE_EQ(grid[2], 3.0);
}

TEST(ValuePdfInput, MomentVectors) {
  auto a = ValuePdf::Create({{4.0, 0.5}});
  ASSERT_TRUE(a.ok());
  ValuePdfInput input({a.value(), ValuePdf::PointMass(2.0)});
  auto means = input.ExpectedFrequencies();
  auto vars = input.FrequencyVariances();
  auto seconds = input.FrequencySecondMoments();
  EXPECT_NEAR(means[0], 2.0, 1e-12);
  EXPECT_NEAR(vars[0], 4.0, 1e-12);
  EXPECT_NEAR(seconds[0], 8.0, 1e-12);
  EXPECT_NEAR(means[1], 2.0, 1e-12);
  EXPECT_NEAR(vars[1], 0.0, 1e-12);
  EXPECT_NEAR(seconds[1], 4.0, 1e-12);
}

}  // namespace
}  // namespace probsyn
