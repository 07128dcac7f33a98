#include "core/haar.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/logging.h"
#include "util/math.h"

namespace probsyn {

namespace {
const double kInvSqrt2 = 1.0 / std::sqrt(2.0);

// Number of set bits of v, inline on every target: std::popcount becomes
// a call to libgcc's __popcountdi2 when the target lacks a popcount
// instruction, as baseline x86-64 does.
constexpr std::size_t PopCount64(std::uint64_t v) {
  v -= (v >> 1) & 0x5555555555555555ull;
  v = (v & 0x3333333333333333ull) + ((v >> 2) & 0x3333333333333333ull);
  v = (v + (v >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return static_cast<std::size_t>((v * 0x0101010101010101ull) >> 56);
}
}  // namespace

std::vector<double> HaarTransform(std::span<const double> data) {
  const std::size_t n = data.size();
  PROBSYN_CHECK(IsPowerOfTwo(n));
  std::vector<double> coeffs(data.begin(), data.end());
  std::vector<double> scratch(n);
  for (std::size_t len = n; len > 1; len /= 2) {
    std::size_t half = len / 2;
    // Write averages and details into scratch first: detail slots
    // [half, len) overlap the pair positions still being read.
    for (std::size_t k = 0; k < half; ++k) {
      double a = coeffs[2 * k];
      double b = coeffs[2 * k + 1];
      scratch[k] = (a + b) * kInvSqrt2;         // running averages
      scratch[half + k] = (a - b) * kInvSqrt2;  // details at this level
    }
    std::copy(scratch.begin(), scratch.begin() + len, coeffs.begin());
  }
  return coeffs;
}

std::vector<double> HaarInverse(std::span<const double> coefficients) {
  const std::size_t n = coefficients.size();
  PROBSYN_CHECK(IsPowerOfTwo(n));
  std::vector<double> data(coefficients.begin(), coefficients.end());
  std::vector<double> scratch(n);
  for (std::size_t len = 2; len <= n; len *= 2) {
    std::size_t half = len / 2;
    for (std::size_t k = 0; k < half; ++k) {
      double avg = data[k];
      double det = data[half + k];
      scratch[2 * k] = (avg + det) * kInvSqrt2;
      scratch[2 * k + 1] = (avg - det) * kInvSqrt2;
    }
    std::copy(scratch.begin(), scratch.begin() + len, data.begin());
  }
  return data;
}

std::vector<double> PadToPowerOfTwo(std::span<const double> data) {
  std::size_t n = NextPowerOfTwo(data.size());
  std::vector<double> padded(data.begin(), data.end());
  padded.resize(n, 0.0);
  return padded;
}

std::size_t CoefficientLevel(std::size_t index) {
  return index == 0 ? 0 : FloorLog2(index);
}

SupportRange CoefficientSupport(std::size_t index, std::size_t n) {
  PROBSYN_CHECK(IsPowerOfTwo(n) && index < n);
  if (index == 0) return {0, n};
  std::size_t level = FloorLog2(index);
  std::size_t span = n >> level;  // n / 2^level
  std::size_t offset = index - (static_cast<std::size_t>(1) << level);
  return {offset * span, (offset + 1) * span};
}

double LeafContributionScale(std::size_t index, std::size_t n) {
  PROBSYN_CHECK(IsPowerOfTwo(n) && index < n);
  if (index == 0) return 1.0 / std::sqrt(static_cast<double>(n));
  std::size_t level = FloorLog2(index);
  return std::sqrt(static_cast<double>(1ull << level) /
                   static_cast<double>(n));
}

namespace {

// scales[0] = s_0 and scales[l + 1] = the level-l detail scale of an
// n-point transform (LeafContributionScale's bits, computed once per level
// instead of once per coefficient read). Returns log2 n.
std::size_t FillLevelScales(std::size_t n, double* scales) {
  const std::size_t levels = FloorLog2(n);
  scales[0] = LeafContributionScale(0, n);
  for (std::size_t l = 0; l < levels; ++l) {
    scales[l + 1] = LeafContributionScale(std::size_t{1} << l, n);
  }
  return levels;
}

// The query arithmetic of SparseHaar, shared by both lookups so the two
// paths give the same bits. `lookup(k)` is coefficient k's value, 0.0 when
// it is not retained.
template <typename Lookup>
double PointOf(const Lookup& lookup, const double* scales,
               std::size_t levels, std::size_t i) {
  // +1 on the left half of a support, -1 on the right: indexed by the bit
  // of i below the level's node bits, so the walk has no branch on i.
  static constexpr double kHalfSign[2] = {1.0, -1.0};
  double total = lookup(0) * scales[0];
  for (std::size_t l = 0; l < levels; ++l) {
    const std::size_t shift = levels - l;  // level-l supports: 2^shift items
    const std::size_t node = (std::size_t{1} << l) + (i >> shift);
    const double sign = kHalfSign[(i >> (shift - 1)) & 1];
    total += sign * lookup(node) * scales[l + 1];
  }
  return total;
}

template <typename Lookup>
double RangeSumOf(const Lookup& lookup, const double* scales,
                  std::size_t levels, std::size_t a, std::size_t b) {
  double total = lookup(0) * scales[0] * static_cast<double>(b - a + 1);
  const std::size_t end = b + 1;
  auto overlap = [&](std::size_t lo, std::size_t hi) -> std::int64_t {
    const std::size_t from = std::max(a, lo);
    const std::size_t to = std::min(end, hi);
    return to > from ? static_cast<std::int64_t>(to - from) : 0;
  };
  // Adds the level-l detail coefficient whose support is the offset-th
  // dyadic interval of that level.
  auto add = [&](std::size_t l, std::size_t offset) {
    const double v = lookup((std::size_t{1} << l) + offset);
    if (v == 0.0) return;
    const std::size_t shift = levels - l;
    const std::size_t lo = offset << shift;
    const std::size_t mid = lo + (std::size_t{1} << (shift - 1));
    const std::int64_t net =
        overlap(lo, mid) - overlap(mid, lo + (std::size_t{1} << shift));
    if (net != 0) total += v * scales[l + 1] * static_cast<double>(net);
  };
  for (std::size_t l = 0; l < levels; ++l) {
    const std::size_t first = a >> (levels - l);
    const std::size_t last = b >> (levels - l);
    add(l, first);
    if (last != first) add(l, last);
  }
  return total;
}

// Binary-search lookup over coefficients sorted by index.
struct SortedLookup {
  std::span<const WaveletCoefficient> sorted;

  double operator()(std::size_t index) const {
    auto it = std::lower_bound(
        sorted.begin(), sorted.end(), index,
        [](const WaveletCoefficient& c, std::size_t k) { return c.index < k; });
    return it != sorted.end() && it->index == index ? it->value : 0.0;
  }
};

constexpr std::size_t kMaxLevels = 64;

}  // namespace

SparseHaar::SparseHaar(std::size_t n,
                       std::vector<WaveletCoefficient> coefficients)
    : n_(n), coefficients_(std::move(coefficients)) {
  PROBSYN_CHECK(IsPowerOfTwo(n));
  PROBSYN_CHECK(coefficients_.size() <= UINT32_MAX);
  const std::size_t words = (n + 63) / 64;
  present_.assign(words, 0);
  rank_.assign(words, 0);
  for (std::size_t k = 0; k < coefficients_.size(); ++k) {
    const std::size_t index = coefficients_[k].index;
    PROBSYN_CHECK(index < n &&
                  (k == 0 || index > coefficients_[k - 1].index));
    present_[index / 64] |= std::uint64_t{1} << (index % 64);
  }
  std::uint32_t before = 0;
  for (std::size_t w = 0; w < words; ++w) {
    rank_[w] = before;
    before += static_cast<std::uint32_t>(PopCount64(present_[w]));
  }
  scales_.resize(FloorLog2(n) + 1);
  FillLevelScales(n, scales_.data());
}

double SparseHaar::Lookup(std::size_t index) const {
  const std::uint64_t word = present_[index / 64];
  const std::uint64_t bit = std::uint64_t{1} << (index % 64);
  if ((word & bit) == 0) return 0.0;
  return coefficients_[rank_[index / 64] + PopCount64(word & (bit - 1))]
      .value;
}

double SparseHaar::Point(std::size_t i) const {
  PROBSYN_DCHECK(i < n_);
  return PointOf([this](std::size_t k) { return Lookup(k); }, scales_.data(),
                 scales_.size() - 1, i);
}

double SparseHaar::RangeSum(std::size_t a, std::size_t b) const {
  PROBSYN_DCHECK(a <= b && b < n_);
  return RangeSumOf([this](std::size_t k) { return Lookup(k); },
                    scales_.data(), scales_.size() - 1, a, b);
}

double SparseHaarPoint(std::span<const WaveletCoefficient> sorted,
                       std::size_t n, std::size_t i) {
  PROBSYN_CHECK(IsPowerOfTwo(n) && i < n);
  double scales[kMaxLevels];
  const std::size_t levels = FillLevelScales(n, scales);
  return PointOf(SortedLookup{sorted}, scales, levels, i);
}

double SparseHaarRangeSum(std::span<const WaveletCoefficient> sorted,
                          std::size_t n, std::size_t a, std::size_t b) {
  PROBSYN_CHECK(IsPowerOfTwo(n) && a <= b && b < n);
  double scales[kMaxLevels];
  const std::size_t levels = FillLevelScales(n, scales);
  return RangeSumOf(SortedLookup{sorted}, scales, levels, a, b);
}

}  // namespace probsyn
