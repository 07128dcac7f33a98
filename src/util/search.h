#ifndef PROBSYN_UTIL_SEARCH_H_
#define PROBSYN_UTIL_SEARCH_H_

#include <cstddef>
#include <functional>

namespace probsyn {

/// Minimizes a unimodal function over the integer range [lo, hi].
///
/// "Unimodal" here means: non-increasing up to some minimizer, then
/// non-decreasing — exactly the shape the paper proves for SAE/SARE/MAE/MARE
/// bucket cost as a function of the representative's index in V
/// (sections 3.3, 3.4, 3.6). Plateaus are handled by shrinking toward the
/// left, so the returned index is a (leftmost-ish) minimizer.
///
/// Cost: O(log(hi - lo)) evaluations.
///
/// The templated form exists so hot paths (the devirtualized DP kernels of
/// core/dp_kernels.cc) can inline the probe function; the std::function
/// overload below delegates to it, so both run the exact same probe
/// sequence and return bit-identical minimizers.
template <typename Fn> std::size_t TernarySearchMinIndexOver(
    std::size_t lo, std::size_t hi, const Fn& f) {
  // Invariant: a minimizer lies in [lo, hi]. The searched sequences are
  // samples of a convex function at increasing (not necessarily uniform)
  // grid points: if f(m1) <= f(m2) the convexity of the underlying function
  // places a minimizer in [lo, m2] (for x > m2, f(x) >= f(m2) >= f(m1)), and
  // symmetrically f(m1) > f(m2) places one in [m1, hi]. Keeping the probe
  // point inside the retained range (hi = m2, not m2 - 1) is what makes the
  // cut safe in the presence of plateaus.
  while (hi - lo > 2) {
    std::size_t m1 = lo + (hi - lo) / 3;
    std::size_t m2 = hi - (hi - lo) / 3;
    if (f(m1) <= f(m2)) {
      hi = m2;
    } else {
      lo = m1;
    }
  }
  std::size_t best = lo;
  double best_value = f(lo);
  for (std::size_t i = lo + 1; i <= hi; ++i) {
    double v = f(i);
    if (v < best_value) {
      best_value = v;
      best = i;
    }
  }
  return best;
}

/// TernarySearchMinIndexOver over a std::function probe (the same probe
/// sequence, the bit-identical minimizer). Requires lo <= hi.
std::size_t TernarySearchMinIndex(std::size_t lo, std::size_t hi,
                                  const std::function<double(std::size_t)>& f);

}  // namespace probsyn

#endif  // PROBSYN_UTIL_SEARCH_H_
