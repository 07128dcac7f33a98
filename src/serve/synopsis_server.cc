#include "serve/synopsis_server.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "util/logging.h"

namespace probsyn {

namespace {

// std::lower_bound(ends, i) for i <= ends.back(): the first k with
// ends[k] >= i. The window halves log2(B) times whatever i is, and its low
// end moves by a select, not a branch, so no probe mispredicts.
std::size_t LowerBound(const std::vector<std::size_t>& ends, std::size_t i) {
  std::size_t lo = 0;
  for (std::size_t len = ends.size(); len > 1;) {
    const std::size_t half = len / 2;
    lo = ends[lo + half] < i ? lo + half : lo;
    len -= half;
  }
  return lo + (ends[lo] < i);
}

}  // namespace

ServedSynopsis::ServedSynopsis(DecodedSynopsis decoded)
    : kind_(decoded.kind) {
  if (kind_ == SynopsisBlobKind::kHistogram) {
    const auto& buckets = decoded.histogram.buckets();
    domain_size_ = decoded.histogram.domain_size();
    bucket_ends_.reserve(buckets.size());
    bucket_reps_.reserve(buckets.size());
    bucket_masses_.reserve(buckets.size() + 1);
    bucket_masses_.push_back(0.0);
    for (const HistogramBucket& b : buckets) {
      bucket_ends_.push_back(b.end);
      bucket_reps_.push_back(b.representative);
      bucket_masses_.push_back(AddBucketMass(bucket_masses_.back(), b));
    }
    return;
  }
  domain_size_ = decoded.wavelet.domain_size();
  wavelet_ = SparseHaar(decoded.wavelet.transform_size(),
                        decoded.wavelet.coefficients());
  // Precompute the |value|-desc / index-asc ranking (the same order the
  // greedy builder uses) so TopCoefficients is O(k) per query.
  const std::vector<WaveletCoefficient>& coeffs = wavelet_.coefficients();
  magnitude_order_.resize(coeffs.size());
  std::iota(magnitude_order_.begin(), magnitude_order_.end(), std::size_t{0});
  std::sort(magnitude_order_.begin(), magnitude_order_.end(),
            [&coeffs](std::size_t a, std::size_t b) {
              double fa = std::fabs(coeffs[a].value);
              double fb = std::fabs(coeffs[b].value);
              if (fa != fb) return fa > fb;
              return coeffs[a].index < coeffs[b].index;
            });
}

double ServedSynopsis::PointEstimate(std::size_t i) const {
  PROBSYN_DCHECK(i < domain_size_);
  if (kind_ == SynopsisBlobKind::kHistogram) {
    return bucket_reps_[LowerBound(bucket_ends_, i)];
  }
  return wavelet_.Point(i);
}

double ServedSynopsis::RangeSum(std::size_t a, std::size_t b) const {
  PROBSYN_DCHECK(a <= b && b < domain_size_);
  if (kind_ == SynopsisBlobKind::kHistogram) {
    // Starts are implied by the partition: start_k = end_{k-1} + 1.
    auto bucket = [this](std::size_t k) -> HistogramBucket {
      return {k == 0 ? 0 : bucket_ends_[k - 1] + 1, bucket_ends_[k],
              bucket_reps_[k]};
    };
    const std::size_t first = LowerBound(bucket_ends_, a);
    const std::size_t last = LowerBound(bucket_ends_, b);
    return PrefixMassRangeSum(a, b, bucket(first), bucket(last),
                              bucket_masses_[first + 1],
                              bucket_masses_[std::max(last, first + 1)]);
  }
  return wavelet_.RangeSum(a, b);
}

std::vector<WaveletCoefficient> ServedSynopsis::TopCoefficients(
    std::size_t k) const {
  std::vector<WaveletCoefficient> top;
  std::size_t take = std::min(k, magnitude_order_.size());
  top.reserve(take);
  for (std::size_t r = 0; r < take; ++r) {
    top.push_back(wavelet_.coefficients()[magnitude_order_[r]]);
  }
  return top;
}

StatusOr<SynopsisServer> SynopsisServer::Open(const std::string& path) {
  PROBSYN_ASSIGN_OR_RETURN(SynopsisStore store, SynopsisStore::Open(path));
  return FromStore(std::move(store));
}

StatusOr<SynopsisServer> SynopsisServer::FromStore(SynopsisStore store) {
  std::unordered_map<std::string, ServedSynopsis> served;
  served.reserve(store.size());
  for (const std::string& name : store.Names()) {
    PROBSYN_ASSIGN_OR_RETURN(std::span<const std::uint8_t> blob,
                             store.RawBlob(name));
    PROBSYN_ASSIGN_OR_RETURN(DecodedSynopsis decoded, DecodeSynopsis(blob));
    served.emplace(name, ServedSynopsis(std::move(decoded)));
  }
  return SynopsisServer(std::move(store), std::move(served));
}

const ServedSynopsis* SynopsisServer::Find(const std::string& name) const {
  auto it = served_.find(name);
  return it == served_.end() ? nullptr : &it->second;
}

StatusOr<const ServedSynopsis*> SynopsisServer::FindChecked(
    const std::string& name) const {
  const ServedSynopsis* synopsis = Find(name);
  if (synopsis == nullptr) {
    return Status::NotFound("no synopsis named '" + name + "' is served");
  }
  return synopsis;
}

StatusOr<double> SynopsisServer::PointEstimate(const std::string& name,
                                               std::size_t i) const {
  PROBSYN_ASSIGN_OR_RETURN(const ServedSynopsis* synopsis, FindChecked(name));
  if (i >= synopsis->domain_size()) {
    return Status::OutOfRange("point " + std::to_string(i) +
                              " outside domain of size " +
                              std::to_string(synopsis->domain_size()));
  }
  return synopsis->PointEstimate(i);
}

StatusOr<double> SynopsisServer::RangeSum(const std::string& name,
                                          std::size_t a, std::size_t b) const {
  PROBSYN_ASSIGN_OR_RETURN(const ServedSynopsis* synopsis, FindChecked(name));
  if (a > b || b >= synopsis->domain_size()) {
    return Status::OutOfRange(
        "range [" + std::to_string(a) + ", " + std::to_string(b) +
        "] invalid for domain of size " +
        std::to_string(synopsis->domain_size()));
  }
  return synopsis->RangeSum(a, b);
}

StatusOr<double> SynopsisServer::RangeAverage(const std::string& name,
                                              std::size_t a,
                                              std::size_t b) const {
  PROBSYN_ASSIGN_OR_RETURN(double sum, RangeSum(name, a, b));
  return sum / static_cast<double>(b - a + 1);
}

StatusOr<std::vector<WaveletCoefficient>> SynopsisServer::TopCoefficients(
    const std::string& name, std::size_t k) const {
  PROBSYN_ASSIGN_OR_RETURN(const ServedSynopsis* synopsis, FindChecked(name));
  if (synopsis->kind() != SynopsisBlobKind::kWavelet) {
    return Status::InvalidArgument("synopsis '" + name +
                                   "' is not a wavelet synopsis");
  }
  return synopsis->TopCoefficients(k);
}

}  // namespace probsyn
