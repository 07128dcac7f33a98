// Unit tests for the util substrate: Status/StatusOr, math helpers,
// prefix sums, searches, line envelopes.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "reference/brute_force.h"
#include "util/envelope.h"
#include "util/math.h"
#include "util/prefix_sums.h"
#include "util/random.h"
#include "util/search.h"
#include "util/status.h"

namespace probsyn {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(Status, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kOutOfRange,
        StatusCode::kFailedPrecondition, StatusCode::kNotFound,
        StatusCode::kUnimplemented, StatusCode::kInternal,
        StatusCode::kIOError}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOr, MoveOnlyTypes) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(7);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> owned = std::move(v).value();
  EXPECT_EQ(*owned, 7);
}

TEST(Math, KahanSumBeatsNaiveOnCancellation) {
  // 1 + 1e-16 added 1e6 times: naive double drops the tail entirely.
  KahanSum sum(1.0);
  for (int i = 0; i < 1000000; ++i) sum.Add(1e-16);
  EXPECT_NEAR(sum.value(), 1.0 + 1e-10, 1e-14);
}

TEST(Math, SumStable) {
  std::vector<double> xs{0.1, 0.2, 0.3};
  EXPECT_NEAR(reference::SumStable(xs), 0.6, 1e-15);
}

TEST(Math, AlmostEqual) {
  EXPECT_TRUE(AlmostEqual(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(AlmostEqual(1.0, 1.001));
  EXPECT_TRUE(AlmostEqual(0.0, 0.0));
  EXPECT_FALSE(AlmostEqual(std::nan(""), 1.0));
}

TEST(Math, SanityBoundAndWeights) {
  EXPECT_DOUBLE_EQ(SanityBound(0.5, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(SanityBound(3.0, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(RelativeWeight(4.0, 1.0), 0.25);
  EXPECT_DOUBLE_EQ(SquaredRelativeWeight(4.0, 1.0), 1.0 / 16);
  EXPECT_DOUBLE_EQ(SquaredRelativeWeight(0.0, 0.5), 4.0);
}

TEST(Math, PowerOfTwoHelpers) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(64));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(12));
  EXPECT_EQ(NextPowerOfTwo(0), 1u);
  EXPECT_EQ(NextPowerOfTwo(5), 8u);
  EXPECT_EQ(NextPowerOfTwo(8), 8u);
  EXPECT_EQ(FloorLog2(1), 0u);
  EXPECT_EQ(FloorLog2(9), 3u);
}

TEST(Math, ClampTinyNegative) {
  EXPECT_DOUBLE_EQ(ClampTinyNegative(-1e-12), 0.0);
  EXPECT_DOUBLE_EQ(ClampTinyNegative(-1.0), -1.0);
  EXPECT_DOUBLE_EQ(ClampTinyNegative(2.0), 2.0);
}

TEST(PrefixSums, RangeSums) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  PrefixSums ps(xs);
  EXPECT_EQ(ps.size(), 5u);
  EXPECT_DOUBLE_EQ(ps.RangeSum(0, 4), 15.0);
  EXPECT_DOUBLE_EQ(ps.RangeSum(1, 3), 9.0);
  EXPECT_DOUBLE_EQ(ps.RangeSum(2, 2), 3.0);
  EXPECT_DOUBLE_EQ(ps.Prefix(0), 1.0);
  EXPECT_DOUBLE_EQ(ps.Total(), 15.0);
}

TEST(PrefixSums, EmptyInput) {
  PrefixSums ps;
  EXPECT_EQ(ps.size(), 0u);
  EXPECT_DOUBLE_EQ(ps.Total(), 0.0);
}

TEST(PrefixSumsBank, RowsAreIndependent) {
  PrefixSumsBank bank(3, 4, [](std::size_t r, std::size_t i) {
    return static_cast<double>(r * 10 + i);
  });
  EXPECT_EQ(bank.rows(), 3u);
  EXPECT_EQ(bank.columns(), 4u);
  EXPECT_DOUBLE_EQ(bank.RangeSum(0, 0, 3), 0 + 1 + 2 + 3);
  EXPECT_DOUBLE_EQ(bank.RangeSum(2, 1, 2), 21 + 22);
}

TEST(Search, TernaryFindsMinOfConvexSequence) {
  // f(l) = (l - 13)^2 over [0, 40].
  auto f = [](std::size_t l) {
    double d = static_cast<double>(l) - 13.0;
    return d * d;
  };
  EXPECT_EQ(TernarySearchMinIndex(0, 40, f), 13u);
  EXPECT_EQ(TernarySearchMinIndex(0, 13, f), 13u);
  EXPECT_EQ(TernarySearchMinIndex(13, 40, f), 13u);
  EXPECT_EQ(TernarySearchMinIndex(5, 5, f), 5u);
}

TEST(Search, TernaryHandlesPlateaus) {
  // Convex with a flat valley: min anywhere in [10, 20].
  auto f = [](std::size_t l) {
    if (l < 10) return static_cast<double>(10 - l);
    if (l > 20) return static_cast<double>(l - 20);
    return 0.0;
  };
  std::size_t best = TernarySearchMinIndex(0, 100, f);
  EXPECT_GE(best, 10u);
  EXPECT_LE(best, 20u);
}

TEST(Search, TernaryOnNonUniformConvexSamples) {
  // Samples of |x - 7| at an uneven grid — convex but with non-monotone
  // successive differences.
  std::vector<double> grid{0, 1, 6.5, 6.9, 7.2, 30, 100};
  auto f = [&](std::size_t l) { return std::fabs(grid[l] - 7.0); };
  std::size_t best = TernarySearchMinIndex(0, grid.size() - 1, f);
  EXPECT_EQ(best, 3u);  // 6.9 is the closest sample
}

TEST(Search, ContinuousTernary) {
  auto f = [](double x) { return (x - 2.5) * (x - 2.5) + 1.0; };
  double x = reference::TernarySearchMinContinuous(-10, 10, f);
  // Value-comparison minimization of a smooth function bottoms out at
  // ~sqrt(ulp) precision: near the minimum, f differences round away.
  EXPECT_NEAR(x, 2.5, 1e-6);
}

TEST(Envelope, SingleLine) {
  std::vector<Line> lines{{2.0, 1.0}};
  EnvelopeMin m = MinimizeUpperEnvelope(lines, -1.0, 3.0);
  EXPECT_DOUBLE_EQ(m.x, -1.0);  // positive slope: min at left end
  EXPECT_DOUBLE_EQ(m.value, -1.0);
}

TEST(Envelope, VShape) {
  // max(-x, x) minimized at 0.
  std::vector<Line> lines{{-1.0, 0.0}, {1.0, 0.0}};
  EnvelopeMin m = MinimizeUpperEnvelope(lines, -5.0, 5.0);
  EXPECT_NEAR(m.x, 0.0, 1e-12);
  EXPECT_NEAR(m.value, 0.0, 1e-12);
}

TEST(Envelope, MinAtInteriorKnot) {
  // max(-2x + 1, 0.5x + 2, x - 3): optimum where first two lines cross.
  std::vector<Line> lines{{-2.0, 1.0}, {0.5, 2.0}, {1.0, -3.0}};
  EnvelopeMin m = MinimizeUpperEnvelope(lines, -10.0, 10.0);
  double x_star = (2.0 - 1.0) / (-2.0 - 0.5);  // -0.4
  EXPECT_NEAR(m.x, x_star, 1e-12);
  EXPECT_NEAR(m.value, 0.5 * x_star + 2.0, 1e-12);
}

TEST(Envelope, RespectsRangeClipping) {
  std::vector<Line> lines{{-1.0, 0.0}, {1.0, 0.0}};
  EnvelopeMin m = MinimizeUpperEnvelope(lines, 2.0, 5.0);
  EXPECT_DOUBLE_EQ(m.x, 2.0);
  EXPECT_DOUBLE_EQ(m.value, 2.0);
}

TEST(Envelope, MatchesBruteForceOnRandomLines) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::size_t k = 1 + rng.NextBounded(12);
    std::vector<Line> lines(k);
    for (Line& l : lines) {
      l.slope = rng.NextUniform(-5, 5);
      l.intercept = rng.NextUniform(-5, 5);
    }
    double lo = rng.NextUniform(-3, 0), hi = rng.NextUniform(0, 3);
    EnvelopeMin m = MinimizeUpperEnvelope(lines, lo, hi);

    // Dense-grid brute force.
    double brute = std::numeric_limits<double>::infinity();
    for (int g = 0; g <= 2000; ++g) {
      double x = lo + (hi - lo) * g / 2000.0;
      double v = -std::numeric_limits<double>::infinity();
      for (const Line& l : lines) v = std::max(v, l.At(x));
      brute = std::min(brute, v);
    }
    EXPECT_LE(m.value, brute + 1e-9) << "trial " << trial;
    // And the reported (x, value) must be consistent.
    double at_x = -std::numeric_limits<double>::infinity();
    for (const Line& l : lines) at_x = std::max(at_x, l.At(m.x));
    EXPECT_NEAR(at_x, m.value, 1e-9);
  }
}

TEST(Random, DeterministicGivenSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(Random, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.NextUint64(), b.NextUint64());
}

TEST(Random, DoublesInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Random, BoundedWithinBound) {
  Rng rng(12);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(7), 7u);
  }
}

TEST(Random, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Random, GaussianMoments) {
  Rng rng(14);
  double sum = 0, sum_sq = 0;
  const int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / kN, 1.0, 0.02);
}

TEST(Random, ZipfIsSkewedAndInRange) {
  Rng rng(15);
  ZipfDistribution zipf(10, 1.2);
  std::vector<int> counts(11, 0);
  for (int i = 0; i < 100000; ++i) {
    std::size_t v = zipf.Sample(rng);
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, 10u);
    counts[v]++;
  }
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[5]);
}

TEST(Random, AliasSamplerMatchesWeights) {
  Rng rng(16);
  std::vector<double> weights{1.0, 3.0, 0.0, 6.0};
  AliasSampler sampler(weights);
  std::vector<int> counts(4, 0);
  const int kN = 200000;
  for (int i = 0; i < kN; ++i) counts[sampler.Sample(rng)]++;
  EXPECT_NEAR(counts[0] / static_cast<double>(kN), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(kN), 0.3, 0.01);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3] / static_cast<double>(kN), 0.6, 0.01);
}

TEST(Random, ForkProducesIndependentStream) {
  Rng a(7);
  Rng forked = a.Fork();
  Rng b(7);
  b.Fork();
  // The parent stream advances identically after forking.
  EXPECT_EQ(a.NextUint64(), b.NextUint64());
  // And the fork differs from the parent.
  EXPECT_NE(forked.NextUint64(), a.NextUint64());
}

}  // namespace
}  // namespace probsyn
