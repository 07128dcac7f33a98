// Tests for the Histogram value type, the metric enum helpers, and the
// bucketization test oracle itself.

#include <gtest/gtest.h>

#include "core/histogram.h"
#include "core/metrics.h"
#include "reference/brute_force.h"

namespace probsyn {
namespace {

Histogram MakeHistogram() {
  return Histogram({{0, 2, 1.5}, {3, 3, 7.0}, {4, 7, 0.5}});
}

TEST(Histogram, ValidateAcceptsProperPartition) {
  EXPECT_TRUE(MakeHistogram().Validate(8).ok());
}

TEST(Histogram, ValidateRejectsWrongDomain) {
  EXPECT_FALSE(MakeHistogram().Validate(9).ok());
  EXPECT_FALSE(MakeHistogram().Validate(7).ok());
}

TEST(Histogram, ValidateRejectsGapsAndOverlaps) {
  Histogram gap({{0, 2, 1.0}, {4, 7, 2.0}});
  EXPECT_FALSE(gap.Validate(8).ok());
  Histogram overlap({{0, 3, 1.0}, {3, 7, 2.0}});
  EXPECT_FALSE(overlap.Validate(8).ok());
  Histogram late_start({{1, 7, 1.0}});
  EXPECT_FALSE(late_start.Validate(8).ok());
}

TEST(Histogram, EstimateAndBucketLookup) {
  Histogram h = MakeHistogram();
  EXPECT_DOUBLE_EQ(h.Estimate(0), 1.5);
  EXPECT_DOUBLE_EQ(h.Estimate(2), 1.5);
  EXPECT_DOUBLE_EQ(h.Estimate(3), 7.0);
  EXPECT_DOUBLE_EQ(h.Estimate(7), 0.5);
  EXPECT_EQ(h.BucketIndexOf(4), 2u);
}

TEST(Histogram, RangeSumQueries) {
  Histogram h = MakeHistogram();
  EXPECT_DOUBLE_EQ(h.EstimateRangeSum(0, 7), 3 * 1.5 + 7.0 + 4 * 0.5);
  EXPECT_DOUBLE_EQ(h.EstimateRangeSum(2, 4), 1.5 + 7.0 + 0.5);
  EXPECT_DOUBLE_EQ(h.EstimateRangeSum(5, 5), 0.5);
}

TEST(Histogram, ToFrequencyVector) {
  std::vector<double> v = MakeHistogram().ToFrequencyVector();
  ASSERT_EQ(v.size(), 8u);
  EXPECT_DOUBLE_EQ(v[1], 1.5);
  EXPECT_DOUBLE_EQ(v[3], 7.0);
  EXPECT_DOUBLE_EQ(v[6], 0.5);
}

TEST(ForEachBucketization, CountsMatchBinomials) {
  // #partitions of n items into exactly B contiguous buckets = C(n-1, B-1).
  auto count = [](std::size_t n, std::size_t b) {
    std::size_t count = 0;
    reference::ForEachBucketization(
        n, b, [&](const std::vector<std::size_t>&) { ++count; });
    return count;
  };
  EXPECT_EQ(count(5, 1), 1u);
  EXPECT_EQ(count(5, 2), 4u);   // C(4,1)
  EXPECT_EQ(count(5, 3), 6u);   // C(4,2)
  EXPECT_EQ(count(6, 4), 10u);  // C(5,3)
  EXPECT_EQ(count(4, 4), 1u);
  EXPECT_EQ(count(3, 5), 0u);   // impossible
}

TEST(ForEachBucketization, EmitsValidBoundaries) {
  reference::ForEachBucketization(
      6, 3, [&](const std::vector<std::size_t>& ends) {
        ASSERT_EQ(ends.size(), 3u);
        EXPECT_EQ(ends.back(), 5u);
        for (std::size_t k = 1; k < ends.size(); ++k) {
          EXPECT_LT(ends[k - 1], ends[k]);
        }
      });
}

TEST(Metrics, CumulativeAndRelativeFlags) {
  EXPECT_TRUE(IsCumulativeMetric(ErrorMetric::kSse));
  EXPECT_TRUE(IsCumulativeMetric(ErrorMetric::kSare));
  EXPECT_FALSE(IsCumulativeMetric(ErrorMetric::kMae));
  EXPECT_FALSE(IsCumulativeMetric(ErrorMetric::kMare));
  EXPECT_TRUE(IsRelativeMetric(ErrorMetric::kSsre));
  EXPECT_TRUE(IsRelativeMetric(ErrorMetric::kMare));
  EXPECT_FALSE(IsRelativeMetric(ErrorMetric::kSae));
}

TEST(Metrics, NamesRoundTrip) {
  for (ErrorMetric m :
       {ErrorMetric::kSse, ErrorMetric::kSsre, ErrorMetric::kSae,
        ErrorMetric::kSare, ErrorMetric::kMae, ErrorMetric::kMare}) {
    auto parsed = ParseErrorMetric(ErrorMetricName(m));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, m);
  }
  EXPECT_FALSE(ParseErrorMetric("bogus").ok());
}

TEST(Metrics, PointErrors) {
  EXPECT_DOUBLE_EQ(PointError(ErrorMetric::kSse, 3, 1, 1), 4.0);
  EXPECT_DOUBLE_EQ(PointError(ErrorMetric::kSae, 3, 1, 1), 2.0);
  EXPECT_DOUBLE_EQ(PointError(ErrorMetric::kMae, 1, 3, 1), 2.0);
  // Relative metrics use max(c, |g|) of the TRUE frequency.
  EXPECT_DOUBLE_EQ(PointError(ErrorMetric::kSare, 4, 2, 1), 0.5);
  EXPECT_DOUBLE_EQ(PointError(ErrorMetric::kSare, 0.5, 1.5, 1), 1.0);
  EXPECT_DOUBLE_EQ(PointError(ErrorMetric::kSsre, 4, 2, 1), 0.25);
  EXPECT_DOUBLE_EQ(PointError(ErrorMetric::kMare, 4, 2, 1), 0.5);
}

TEST(Metrics, OptionsValidate) {
  SynopsisOptions ok;
  ok.metric = ErrorMetric::kSare;
  ok.sanity_c = 0.5;
  EXPECT_TRUE(ok.Validate().ok());

  SynopsisOptions bad;
  bad.metric = ErrorMetric::kSare;
  bad.sanity_c = 0.0;
  EXPECT_FALSE(bad.Validate().ok());

  // Non-relative metrics do not care about c.
  SynopsisOptions sse;
  sse.metric = ErrorMetric::kSse;
  sse.sanity_c = 0.0;
  EXPECT_TRUE(sse.Validate().ok());
}

}  // namespace
}  // namespace probsyn
