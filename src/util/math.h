#ifndef PROBSYN_UTIL_MATH_H_
#define PROBSYN_UTIL_MATH_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

namespace probsyn {

/// Numeric helpers shared by the cost oracles. Synopsis costs are long sums
/// of small nonnegative terms; compensated summation keeps the DP's
/// optimality comparisons stable when n is large.
class KahanSum {
 public:
  KahanSum() = default;
  explicit KahanSum(double initial) : sum_(initial) {}

  void Add(double x) {
    double y = x - compensation_;
    double t = sum_ + y;
    compensation_ = (t - sum_) - y;
    sum_ = t;
  }

  double value() const { return sum_; }

  KahanSum& operator+=(double x) {
    Add(x);
    return *this;
  }

 private:
  double sum_ = 0.0;
  double compensation_ = 0.0;
};

/// Relative-or-absolute approximate equality used throughout tests and by
/// internal sanity checks: |a-b| <= atol + rtol*max(|a|,|b|).
bool AlmostEqual(double a, double b, double rtol = 1e-9, double atol = 1e-12);

/// max(c, |x|): the paper's relative-error sanity bound (section 2.2).
inline double SanityBound(double x, double c) {
  return std::max(c, std::fabs(x));
}

/// Relative-error weight w(x) = 1 / max(c, |x|) (paper sections 3.2/3.4).
inline double RelativeWeight(double x, double c) {
  return 1.0 / SanityBound(x, c);
}

/// Squared relative-error weight w2(x) = 1 / max(c^2, x^2) (section 3.2).
inline double SquaredRelativeWeight(double x, double c) {
  double b = SanityBound(x, c);
  return 1.0 / (b * b);
}

/// True iff v is a power of two (and nonzero).
constexpr bool IsPowerOfTwo(std::size_t v) {
  return v != 0 && (v & (v - 1)) == 0;
}

/// Smallest power of two >= v (v == 0 maps to 1).
std::size_t NextPowerOfTwo(std::size_t v);

/// floor(log2(v)) for v >= 1.
std::size_t FloorLog2(std::size_t v);

/// Clamps tiny negative values arising from catastrophic cancellation in
/// variance-style formulas (E[X^2] - E[X]^2) back to zero; larger negatives
/// indicate a genuine bug and are passed through for CHECKs to catch.
inline double ClampTinyNegative(double x, double tolerance = 1e-9) {
  return (x < 0.0 && x > -tolerance) ? 0.0 : x;
}

}  // namespace probsyn

#endif  // PROBSYN_UTIL_MATH_H_
