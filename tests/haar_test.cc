#include "core/haar.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "reference/reference_solvers.h"
#include "util/math.h"
#include "util/random.h"

namespace probsyn {
namespace {

TEST(Haar, RoundTripIsExact) {
  Rng rng(5);
  for (std::size_t n : {1u, 2u, 4u, 8u, 64u, 256u}) {
    std::vector<double> data(n);
    for (double& d : data) d = rng.NextUniform(-10, 10);
    std::vector<double> coeffs = HaarTransform(data);
    std::vector<double> back = HaarInverse(coeffs);
    ASSERT_EQ(back.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(back[i], data[i], 1e-10) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Haar, ParsevalHolds) {
  Rng rng(6);
  std::vector<double> data(128);
  for (double& d : data) d = rng.NextUniform(-3, 3);
  std::vector<double> coeffs = HaarTransform(data);
  double energy_data = 0, energy_coeffs = 0;
  for (double d : data) energy_data += d * d;
  for (double c : coeffs) energy_coeffs += c * c;
  EXPECT_NEAR(energy_data, energy_coeffs, 1e-9);
}

TEST(Haar, PaperFigureOneExample) {
  // A = [2, 2, 0, 2, 3, 5, 4, 4]: the paper's unnormalized coefficients
  // are [11/4, -5/4, 1/2, 0, 0, -1, -1, 0]; our orthonormal coefficients
  // are those scaled by sqrt(support size / ... ): c0 = avg * sqrt(8),
  // detail at level l scaled by sqrt(2^l... verify via reconstruction
  // instead, plus the two hand-checkable entries.
  std::vector<double> data{2, 2, 0, 2, 3, 5, 4, 4};
  std::vector<double> coeffs = HaarTransform(data);
  // c0 (orthonormal) = sum / sqrt(8) = 22 / sqrt(8) = avg * sqrt(8).
  EXPECT_NEAR(coeffs[0], 22.0 / std::sqrt(8.0), 1e-12);
  // Paper: unnormalized c1 = -5/4; orthonormal = -5/4 * sqrt(8)/2... check
  // via definition: (avgL - avgR)/2 * ... simplest: c1 = (sumL - sumR)/sqrt(8).
  EXPECT_NEAR(coeffs[1], (2 + 2 + 0 + 2 - 3 - 5 - 4 - 4) / std::sqrt(8.0),
              1e-12);
  // The paper's c3 = 0 (its tree position corresponds to our index 3).
  EXPECT_NEAR(coeffs[3], 0.0, 1e-12);
}

TEST(Haar, SingleElement) {
  std::vector<double> data{5.0};
  std::vector<double> coeffs = HaarTransform(data);
  ASSERT_EQ(coeffs.size(), 1u);
  EXPECT_DOUBLE_EQ(coeffs[0], 5.0);
  EXPECT_DOUBLE_EQ(HaarInverse(coeffs)[0], 5.0);
}

TEST(Haar, PadToPowerOfTwo) {
  std::vector<double> data{1, 2, 3};
  std::vector<double> padded = PadToPowerOfTwo(data);
  ASSERT_EQ(padded.size(), 4u);
  EXPECT_DOUBLE_EQ(padded[2], 3.0);
  EXPECT_DOUBLE_EQ(padded[3], 0.0);

  std::vector<double> exact{1, 2};
  EXPECT_EQ(PadToPowerOfTwo(exact).size(), 2u);
}

TEST(Haar, CoefficientLevels) {
  EXPECT_EQ(CoefficientLevel(0), 0u);
  EXPECT_EQ(CoefficientLevel(1), 0u);
  EXPECT_EQ(CoefficientLevel(2), 1u);
  EXPECT_EQ(CoefficientLevel(3), 1u);
  EXPECT_EQ(CoefficientLevel(4), 2u);
  EXPECT_EQ(CoefficientLevel(7), 2u);
}

TEST(Haar, CoefficientSupports) {
  // n = 8: index 1 spans all; index 2 spans [0,4); index 7 spans [6,8).
  SupportRange r0 = CoefficientSupport(0, 8);
  EXPECT_EQ(r0.lo, 0u);
  EXPECT_EQ(r0.hi, 8u);
  SupportRange r2 = CoefficientSupport(2, 8);
  EXPECT_EQ(r2.lo, 0u);
  EXPECT_EQ(r2.hi, 4u);
  SupportRange r7 = CoefficientSupport(7, 8);
  EXPECT_EQ(r7.lo, 6u);
  EXPECT_EQ(r7.hi, 8u);
}

TEST(Haar, LeafContributionScalesMatchBasisAmplitudes) {
  // Transform the indicator of coefficient k and compare leaf values.
  const std::size_t n = 16;
  for (std::size_t k : {0u, 1u, 2u, 5u, 8u, 15u}) {
    std::vector<double> coeffs(n, 0.0);
    coeffs[k] = 1.0;
    std::vector<double> leaf = HaarInverse(coeffs);
    SupportRange r = CoefficientSupport(k, n);
    double scale = LeafContributionScale(k, n);
    for (std::size_t i = 0; i < n; ++i) {
      if (i < r.lo || i >= r.hi) {
        EXPECT_NEAR(leaf[i], 0.0, 1e-12);
      } else if (k == 0 || i < (r.lo + r.hi) / 2) {
        EXPECT_NEAR(leaf[i], scale, 1e-12) << "k=" << k << " i=" << i;
      } else {
        EXPECT_NEAR(leaf[i], -scale, 1e-12) << "k=" << k << " i=" << i;
      }
    }
  }
}

TEST(Haar, ReconstructPointSparseMatchesDenseInverse) {
  Rng rng(17);
  const std::size_t n = 32;
  std::vector<double> data(n);
  for (double& d : data) d = rng.NextUniform(0, 5);
  std::vector<double> coeffs = HaarTransform(data);

  // Keep an arbitrary subset of coefficients.
  std::vector<std::size_t> indices{0, 1, 3, 8, 21, 31};
  std::vector<double> values;
  std::vector<WaveletCoefficient> kept;
  std::vector<double> dense(n, 0.0);
  for (std::size_t idx : indices) {
    values.push_back(coeffs[idx]);
    kept.push_back({idx, coeffs[idx]});
    dense[idx] = coeffs[idx];
  }
  const SparseHaar sparse(n, kept);
  std::vector<double> expected = HaarInverse(dense);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(sparse.Point(i), expected[i], 1e-10) << "i=" << i;
    EXPECT_NEAR(SparseHaarPoint(kept, n, i), expected[i], 1e-10) << "i=" << i;
    EXPECT_NEAR(reference::ReconstructPointSparse(indices, values, i, n),
                expected[i], 1e-10)
        << "i=" << i;
  }
}

// Both lookups of the sparse query path reproduce the textbook
// reconstruction bit for bit, on random coefficient subsets including the
// empty set, a single coefficient and every coefficient, and on negative
// zeros (whose sign a reordered sum would lose).
TEST(Haar, SparsePointMatchesReferenceBitwise) {
  Rng rng(23);
  for (std::size_t n : {1u, 2u, 4u, 64u, 128u, 1024u}) {
    for (int trial = 0; trial < 12; ++trial) {
      std::vector<std::size_t> indices;
      std::vector<double> values;
      std::vector<WaveletCoefficient> kept;
      const double keep = trial == 0 ? 0.0 : trial == 1 ? 1.0
                                                        : rng.NextDouble();
      for (std::size_t k = 0; k < n; ++k) {
        if (rng.NextDouble() >= keep) continue;
        const double v = trial == 2 ? -0.0 : rng.NextUniform(-50, 50);
        indices.push_back(k);
        values.push_back(v);
        kept.push_back({k, v});
      }
      const SparseHaar sparse(n, kept);
      for (std::size_t i = 0; i < n; ++i) {
        const double want =
            reference::ReconstructPointSparse(indices, values, i, n);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(want),
                  std::bit_cast<std::uint64_t>(sparse.Point(i)))
            << "n=" << n << " trial=" << trial << " i=" << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(want),
                  std::bit_cast<std::uint64_t>(SparseHaarPoint(kept, n, i)))
            << "n=" << n << " trial=" << trial << " i=" << i;
      }
    }
  }

  // The bitmap lookup's edges: retained and absent coefficients in the
  // first and the last 64-bit word, the last retained index below and at
  // n - 1, -0.0 values, n = 1 and n = 2^16.
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  auto check = [&](std::size_t n, const std::vector<std::size_t>& indices,
                   double value) {
    std::vector<double> values(indices.size(), value);
    std::vector<WaveletCoefficient> kept;
    for (std::size_t k : indices) kept.push_back({k, value});
    const SparseHaar sparse(n, kept);
    for (std::size_t i = 0; i < n; ++i) {
      const double want =
          reference::ReconstructPointSparse(indices, values, i, n);
      ASSERT_EQ(bits(want), bits(sparse.Point(i)))
          << "n=" << n << " kept=" << indices.size() << " i=" << i;
      ASSERT_EQ(bits(want), bits(SparseHaarPoint(kept, n, i)))
          << "n=" << n << " kept=" << indices.size() << " i=" << i;
    }
  };
  for (std::size_t n : {128u, 65536u}) {
    for (double value : {-0.0, 2.5, -7.25}) {
      check(n, {0, 1, 63, n - 64, n - 2}, value);  // last retained < n - 1
      check(n, {2, 62, n - 63, n - 1}, value);     // last retained = n - 1
      check(n, {n - 1}, value);
    }
  }
  // A retained -0.0 comes back as -0.0 and an absent coefficient as +0.0:
  // at n = 1 the point is the scaling coefficient itself, and at n = 2 the
  // left leaf adds (-0.0) + (+1)(-0.0) while the right adds
  // (-0.0) + (-1)(-0.0) = +0.0.
  EXPECT_EQ(bits(SparseHaar(1, {{0, -0.0}}).Point(0)), bits(-0.0));
  EXPECT_EQ(bits(SparseHaar(1, {}).Point(0)), bits(0.0));
  const SparseHaar negative_zeros(2, {{0, -0.0}, {1, -0.0}});
  EXPECT_EQ(bits(negative_zeros.Point(0)), bits(-0.0));
  EXPECT_EQ(bits(negative_zeros.Point(1)), bits(0.0));
  EXPECT_EQ(bits(SparseHaar(2, {}).Point(0)), bits(0.0));
  check(1, {0}, -0.0);
  check(1, {}, 0.0);
  check(2, {0, 1}, -0.0);
}

// A coefficient's range contribution is v * s * (items of [a, b] in the
// left half of its support - items in the right half): check it on single
// coefficients against the dense inverse, where every term is exact.
TEST(Haar, SparseRangeSumOfOneCoefficientCountsHalves) {
  const std::size_t n = 16;
  for (std::size_t k = 0; k < n; ++k) {
    std::vector<double> dense(n, 0.0);
    dense[k] = 1.0;
    const std::vector<double> leaf = HaarInverse(dense);
    const SparseHaar sparse(n, {{k, 1.0}});
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a; b < n; ++b) {
        double want = 0.0;
        for (std::size_t i = a; i <= b; ++i) want += leaf[i];
        EXPECT_NEAR(sparse.RangeSum(a, b), want, 1e-12)
            << "k=" << k << " [" << a << "," << b << "]";
      }
    }
  }
}

}  // namespace
}  // namespace probsyn
