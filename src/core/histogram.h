#ifndef PROBSYN_CORE_HISTOGRAM_H_
#define PROBSYN_CORE_HISTOGRAM_H_

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "util/status.h"

namespace probsyn {

/// One histogram bucket b_k = (s_k, e_k) with representative b-hat
/// (paper section 2.2). Spans items s..e inclusive.
struct HistogramBucket {
  std::size_t start = 0;
  std::size_t end = 0;
  double representative = 0.0;

  std::size_t width() const { return end - start + 1; }

  friend bool operator==(const HistogramBucket&, const HistogramBucket&) =
      default;
};

/// A B-bucket histogram synopsis: buckets partition the ordered domain [n]
/// (s_1 = 0, e_B = n-1, s_{k+1} = e_k + 1).
class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(std::vector<HistogramBucket> buckets)
      : buckets_(std::move(buckets)) {}

  const std::vector<HistogramBucket>& buckets() const { return buckets_; }
  std::size_t num_buckets() const { return buckets_.size(); }

  /// Domain size covered (0 for an empty histogram).
  std::size_t domain_size() const {
    return buckets_.empty() ? 0 : buckets_.back().end + 1;
  }

  /// Checks the partition invariants against a domain of size n.
  Status Validate(std::size_t n) const;

  /// The synopsis estimate ghat_i: the representative of i's bucket.
  /// O(log B).
  double Estimate(std::size_t i) const;

  /// Index of the bucket containing item i. O(log B).
  std::size_t BucketIndexOf(std::size_t i) const;

  /// Estimate of sum_{i=a..b} g_i — the canonical approximate range-count
  /// query a histogram synopsis answers, from the prefix masses of
  /// PrefixMassRangeSum. O(log B) to find the buckets of a and b, then one
  /// pass that sums the prefix masses of buckets 0..kb (O(kb), no
  /// allocation); the serving tier keeps the same masses and answers in
  /// O(log B) with the same bits.
  double EstimateRangeSum(std::size_t a, std::size_t b) const;

  /// Materializes [ghat_0, ..., ghat_{n-1}].
  std::vector<double> ToFrequencyVector() const;

  /// Human-readable one-line-per-bucket dump.
  std::string ToString() const;

  friend bool operator==(const Histogram&, const Histogram&) = default;

 private:
  std::vector<HistogramBucket> buckets_;
};

/// One step of a histogram's prefix masses P_0 = 0,
/// P_{k+1} = P_k + width_k * rep_k, summed left to right. The serving tier
/// and Histogram::EstimateRangeSum both build their masses with it, so the
/// two round alike.
inline double AddBucketMass(double mass, const HistogramBucket& bucket) {
  return mass + static_cast<double>(bucket.width()) * bucket.representative;
}

/// sum_{i=a..b} ghat_i from prefix masses, for a in bucket `first` (index
/// ka) and b in bucket `last` (index kb >= ka):
///   (head + (P_kb - P_{ka+1})) + tail,
/// with head = |[a, end_ka]| * rep_ka and tail = |[start_kb, b]| * rep_kb.
/// Pass mass_after_first = P_{ka+1} and mass_before_last = P_{max(kb, ka+1)}:
/// when a and b share a bucket, the inner term is then exactly 0, the tail
/// width 0, and the sum is (b - a + 1) * rep_ka. The one-bucket case is
/// chosen by a mask, not a branch. Equal in exact arithmetic to summing
/// the estimates over [a, b]; the rounding is that of the prefix masses,
/// so the error grows with kb: at most about 2 (kb + 2) 2^-53 times
/// sum_{k<=kb} |width_k * rep_k|, where the bucket-by-bucket sum erred
/// only by the masses inside [a, b].
inline double PrefixMassRangeSum(std::size_t a, std::size_t b,
                                 const HistogramBucket& first,
                                 const HistogramBucket& last,
                                 double mass_after_first,
                                 double mass_before_last) {
  const std::size_t head_end = std::min(b, first.end);
  const std::size_t tail_mask = std::size_t{0} - (b > first.end);  // 0 or ~0
  const std::size_t tail_width = (b - last.start + 1) & tail_mask;
  const double head =
      static_cast<double>(head_end - a + 1) * first.representative;
  const double tail = static_cast<double>(tail_width) * last.representative;
  return (head + (mass_before_last - mass_after_first)) + tail;
}

}  // namespace probsyn

#endif  // PROBSYN_CORE_HISTOGRAM_H_
