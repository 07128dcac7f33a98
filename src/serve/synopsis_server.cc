#include "serve/synopsis_server.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "util/logging.h"

namespace probsyn {

ServedSynopsis::ServedSynopsis(DecodedSynopsis decoded)
    : kind_(decoded.kind) {
  if (kind_ == SynopsisBlobKind::kHistogram) {
    const auto& buckets = decoded.histogram.buckets();
    domain_size_ = decoded.histogram.domain_size();
    bucket_ends_.reserve(buckets.size());
    bucket_reps_.reserve(buckets.size());
    for (const HistogramBucket& b : buckets) {
      bucket_ends_.push_back(b.end);
      bucket_reps_.push_back(b.representative);
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
    auto it = std::lower_bound(bucket_ends_.begin(), bucket_ends_.end(), i);
    return bucket_reps_[static_cast<std::size_t>(it - bucket_ends_.begin())];
  }
  return wavelet_.Point(i);
}

double ServedSynopsis::RangeSum(std::size_t a, std::size_t b) const {
  PROBSYN_DCHECK(a <= b && b < domain_size_);
  if (kind_ == SynopsisBlobKind::kHistogram) {
    // Mirrors Histogram::EstimateRangeSum operation-for-operation (bucket
    // starts are implied by the partition: start_k = end_{k-1} + 1).
    double total = 0.0;
    auto it = std::lower_bound(bucket_ends_.begin(), bucket_ends_.end(), a);
    for (std::size_t k = static_cast<std::size_t>(it - bucket_ends_.begin());
         k < bucket_ends_.size(); ++k) {
      std::size_t start = k == 0 ? 0 : bucket_ends_[k - 1] + 1;
      if (start > b) break;
      std::size_t lo = std::max(a, start);
      std::size_t hi = std::min(b, bucket_ends_[k]);
      total += static_cast<double>(hi - lo + 1) * bucket_reps_[k];
    }
    return total;
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
