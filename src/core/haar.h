#ifndef PROBSYN_CORE_HAAR_H_
#define PROBSYN_CORE_HAAR_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace probsyn {

// Orthonormal Haar DWT utilities (paper section 2.2, Figure 1).
//
// Coefficient indexing is the standard Mallat layout for a power-of-two
// input of size n:
//   * index 0: the scaling coefficient (overall average * sqrt(n));
//   * index i in [2^l, 2^{l+1}): the detail coefficient at resolution
//     level l (l = 0 coarsest), supported on the dyadic interval of
//     length n / 2^l starting at (i - 2^l) * n / 2^l;
//   * the children of detail node i are 2i and 2i+1 (while 2i < n); for
//     i >= n/2 the "children" are the data leaves 2i - n and 2i + 1 - n.
//
// Normalization is orthonormal: sum of squared coefficients equals the sum
// of squared data values (Parseval), so greedy selection by |coefficient|
// is SSE-optimal.

/// Forward transform; `data.size()` must be a power of two.
std::vector<double> HaarTransform(std::span<const double> data);

/// Inverse transform; exact round trip up to fp rounding.
std::vector<double> HaarInverse(std::span<const double> coefficients);

/// Zero-pads to the next power of two (identity if already a power of two).
/// Padding with zeros matches extending the probabilistic domain with
/// deterministic zero-frequency items.
std::vector<double> PadToPowerOfTwo(std::span<const double> data);

/// Resolution level of a coefficient index (0 for the scaling coefficient
/// and for detail index 1; in general floor(log2(i)) for i >= 1).
std::size_t CoefficientLevel(std::size_t index);

/// Dyadic support [lo, hi) of a coefficient (see CoefficientSupport).
struct SupportRange {
  std::size_t lo = 0;
  std::size_t hi = 0;
};

/// Dyadic support of coefficient `index` in an n-point transform: the
/// whole domain [0, n) for the scaling coefficient and for detail index 1,
/// n / 2^l items for a detail coefficient at level l.
SupportRange CoefficientSupport(std::size_t index, std::size_t n);

/// |per-leaf reconstruction contribution| of coefficient `index` in an
/// n-point transform: 1/sqrt(n) for the scaling coefficient,
/// sqrt(2^l / n) for a detail coefficient at level l. The sign is + on the
/// left half of the support and - on the right half.
double LeafContributionScale(std::size_t index, std::size_t n);

/// One retained Haar coefficient of a wavelet synopsis.
struct WaveletCoefficient {
  std::size_t index = 0;
  double value = 0.0;  ///< Normalized (orthonormal) coefficient value.

  friend bool operator==(const WaveletCoefficient&, const WaveletCoefficient&) =
      default;
};

/// Point and range-sum queries over the retained coefficients of an
/// n-point Haar transform (every other coefficient is zero), answered in
/// O(log n) from the coefficients alone: no frequency vector is built.
///
/// Lookup: a presence bitmap over the n coefficient indices plus, per
/// 64-bit word, the 32-bit count of retained coefficients in the words
/// before it, so coefficient k sits at slot rank[k/64] + popcount(bits of
/// word k/64 below k) of the index-sorted array. That is n/8 + n/16 bytes
/// (12 KB at n = 2^16) built once in O(n/64 + B); the object is immutable
/// afterwards, so any number of threads may query one instance. The bit
/// counts (the lookups' and the constructor's rank pass) use an inline
/// SWAR popcount, not std::popcount, which is an out-of-line libgcc call
/// on targets without a popcount instruction. A lookup keeps one branch,
/// the early return of 0.0 for an absent coefficient: RangeSum skips
/// those, and a branch-free lookup more than doubled its time.
///
/// Arithmetic, with s_0 = LeafContributionScale(0, n) and s_l the scale of
/// detail level l, both computed once:
///  * Point(i) = v_0 s_0 + sum over the levels, coarse to fine, of
///    (+-1) v_node s_l along the root-to-leaf path of i — the accumulation
///    order of the textbook sparse reconstruction, so the bits are the same.
///    Each level's +-1 is read from a two-entry table indexed by a bit of
///    i, so the walk has no branch on the query position.
///  * RangeSum(a, b) = v_0 s_0 (b - a + 1) + sum, per level and for the
///    supports holding a and then b, of v s_l (|[a,b] ∩ [lo,mid)| -
///    |[a,b] ∩ [mid,hi)|). Every other detail coefficient's support lies
///    inside [a, b] or outside it and contributes exactly zero, so at most
///    2 log2 n coefficients are read. Equal in exact arithmetic to summing
///    the reconstructed estimates over [a, b]; only the rounding differs.
///
/// SparseHaarPoint and SparseHaarRangeSum run the same arithmetic with a
/// binary-search lookup and no set-up, for one-off queries: the two paths
/// give the same bits on the same coefficients.
class SparseHaar {
 public:
  SparseHaar() = default;
  /// `coefficients` sorted by strictly increasing index, each below `n`;
  /// `n` a power of two and fewer than 2^32 coefficients (checked).
  SparseHaar(std::size_t n, std::vector<WaveletCoefficient> coefficients);

  /// Retained coefficients, sorted by index.
  const std::vector<WaveletCoefficient>& coefficients() const {
    return coefficients_;
  }

  /// Reconstructed value at leaf i. Precondition: i < n.
  double Point(std::size_t i) const;
  /// Sum of the reconstructed values at leaves a..b.
  /// Precondition: a <= b < n.
  double RangeSum(std::size_t a, std::size_t b) const;

 private:
  double Lookup(std::size_t index) const;

  std::size_t n_ = 0;
  std::vector<WaveletCoefficient> coefficients_;
  std::vector<std::uint64_t> present_;  // bit k of word k/64: k retained
  std::vector<std::uint32_t> rank_;     // retained coefficients before word
  std::vector<double> scales_;          // [0]: s_0; [l + 1]: level l
};

/// SparseHaar(n, sorted).Point(i) without the set-up: coefficients are
/// found by binary search over `sorted` (sorted by index). O(log n log B).
double SparseHaarPoint(std::span<const WaveletCoefficient> sorted,
                       std::size_t n, std::size_t i);

/// SparseHaar(n, sorted).RangeSum(a, b) without the set-up.
/// O(log n log B).
double SparseHaarRangeSum(std::span<const WaveletCoefficient> sorted,
                          std::size_t n, std::size_t a, std::size_t b);

}  // namespace probsyn

#endif  // PROBSYN_CORE_HAAR_H_
