#include "core/histogram.h"

#include <algorithm>
#include <sstream>

#include "util/logging.h"

namespace probsyn {

Status Histogram::Validate(std::size_t n) const {
  if (buckets_.empty()) {
    return n == 0 ? Status::OK()
                  : Status::InvalidArgument("empty histogram, nonempty domain");
  }
  if (buckets_.front().start != 0) {
    return Status::InvalidArgument("first bucket must start at 0");
  }
  for (std::size_t k = 0; k < buckets_.size(); ++k) {
    const HistogramBucket& b = buckets_[k];
    if (b.end < b.start) {
      return Status::InvalidArgument("bucket end precedes start");
    }
    if (k > 0 && b.start != buckets_[k - 1].end + 1) {
      return Status::InvalidArgument("buckets do not tile the domain");
    }
  }
  if (buckets_.back().end != n - 1) {
    return Status::InvalidArgument("last bucket must end at n-1");
  }
  return Status::OK();
}

std::size_t Histogram::BucketIndexOf(std::size_t i) const {
  PROBSYN_CHECK(!buckets_.empty() && i <= buckets_.back().end);
  // First bucket whose end >= i.
  auto it = std::lower_bound(
      buckets_.begin(), buckets_.end(), i,
      [](const HistogramBucket& b, std::size_t x) { return b.end < x; });
  PROBSYN_DCHECK(it != buckets_.end());
  return static_cast<std::size_t>(it - buckets_.begin());
}

double Histogram::Estimate(std::size_t i) const {
  return buckets_[BucketIndexOf(i)].representative;
}

double Histogram::EstimateRangeSum(std::size_t a, std::size_t b) const {
  PROBSYN_CHECK(a <= b);
  const std::size_t first = BucketIndexOf(a);
  const std::size_t last = BucketIndexOf(b);
  // One pass sums P_1..P_{max(last, first + 1)}, keeping P_{first + 1}.
  double mass = 0.0;
  double mass_after_first = 0.0;
  for (std::size_t k = 0; k <= first || k < last; ++k) {
    mass = AddBucketMass(mass, buckets_[k]);
    if (k == first) mass_after_first = mass;
  }
  return PrefixMassRangeSum(a, b, buckets_[first], buckets_[last],
                            mass_after_first, mass);
}

std::vector<double> Histogram::ToFrequencyVector() const {
  std::vector<double> out(domain_size(), 0.0);
  for (const HistogramBucket& b : buckets_) {
    for (std::size_t i = b.start; i <= b.end; ++i) out[i] = b.representative;
  }
  return out;
}

std::string Histogram::ToString() const {
  std::ostringstream os;
  for (const HistogramBucket& b : buckets_) {
    os << "[" << b.start << ", " << b.end << "] -> " << b.representative
       << "\n";
  }
  return os.str();
}

}  // namespace probsyn
