#include "core/wavelet.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "util/logging.h"
#include "util/math.h"

namespace probsyn {

WaveletSynopsis::WaveletSynopsis(std::size_t domain_size,
                                 std::size_t transform_size,
                                 std::vector<WaveletCoefficient> coefficients)
    : domain_size_(domain_size),
      transform_size_(transform_size),
      coefficients_(std::move(coefficients)) {
  std::sort(coefficients_.begin(), coefficients_.end(),
            [](const WaveletCoefficient& a, const WaveletCoefficient& b) {
              return a.index < b.index;
            });
}

Status WaveletSynopsis::Validate() const {
  if (!IsPowerOfTwo(transform_size_)) {
    return Status::InvalidArgument("transform size must be a power of two");
  }
  if (domain_size_ > transform_size_) {
    return Status::InvalidArgument("domain exceeds transform size");
  }
  for (std::size_t k = 0; k < coefficients_.size(); ++k) {
    if (coefficients_[k].index >= transform_size_) {
      return Status::OutOfRange("coefficient index outside transform");
    }
    if (k > 0 && coefficients_[k].index <= coefficients_[k - 1].index) {
      return Status::InvalidArgument("duplicate coefficient index");
    }
  }
  return Status::OK();
}

double WaveletSynopsis::Estimate(std::size_t i) const {
  PROBSYN_CHECK(i < domain_size_);
  return SparseHaarPoint(coefficients_, transform_size_, i);
}

std::vector<double> WaveletSynopsis::ToFrequencyVector() const {
  std::vector<double> dense(transform_size_, 0.0);
  for (const WaveletCoefficient& c : coefficients_) dense[c.index] = c.value;
  std::vector<double> data = HaarInverse(dense);
  data.resize(domain_size_);
  return data;
}

double WaveletSynopsis::EstimateRangeSum(std::size_t a, std::size_t b) const {
  PROBSYN_CHECK(a <= b && b < domain_size_);
  return SparseHaarRangeSum(coefficients_, transform_size_, a, b);
}

std::string WaveletSynopsis::ToString() const {
  std::ostringstream os;
  os << "wavelet synopsis: n=" << domain_size_
     << " transform=" << transform_size_ << " B=" << coefficients_.size()
     << "\n";
  for (const WaveletCoefficient& c : coefficients_) {
    os << "  c[" << c.index << "] = " << c.value << "\n";
  }
  return os.str();
}

std::vector<double> ExpectedHaarCoefficients(std::span<const double> expected) {
  std::vector<double> padded = PadToPowerOfTwo(expected);
  return HaarTransform(padded);
}

WaveletSynopsis BuildSseWaveletFromFrequencies(std::span<const double> freqs,
                                               std::size_t num_coefficients) {
  std::vector<double> coeffs = ExpectedHaarCoefficients(freqs);
  const std::size_t nt = coeffs.size();

  // Rank coefficients by |value| descending, index ascending on ties.
  std::vector<std::size_t> order(nt);
  std::iota(order.begin(), order.end(), 0);
  std::size_t keep = std::min(num_coefficients, nt);
  std::partial_sort(order.begin(), order.begin() + keep, order.end(),
                    [&](std::size_t a, std::size_t b) {
                      double fa = std::fabs(coeffs[a]);
                      double fb = std::fabs(coeffs[b]);
                      if (fa != fb) return fa > fb;
                      return a < b;
                    });

  std::vector<WaveletCoefficient> retained;
  retained.reserve(keep);
  for (std::size_t k = 0; k < keep; ++k) {
    retained.push_back({order[k], coeffs[order[k]]});
  }
  return WaveletSynopsis(freqs.size(), nt, std::move(retained));
}

StatusOr<WaveletSynopsis> BuildSseOptimalWavelet(const ValuePdfInput& input,
                                                 std::size_t num_coefficients) {
  PROBSYN_RETURN_IF_ERROR(input.Validate());
  if (input.domain_size() == 0) {
    return Status::InvalidArgument("empty domain");
  }
  return BuildSseWaveletFromFrequencies(input.ExpectedFrequencies(),
                                        num_coefficients);
}

StatusOr<WaveletSynopsis> BuildSseOptimalWavelet(const TuplePdfInput& input,
                                                 std::size_t num_coefficients) {
  PROBSYN_RETURN_IF_ERROR(input.Validate());
  if (input.domain_size() == 0) {
    return Status::InvalidArgument("empty domain");
  }
  return BuildSseWaveletFromFrequencies(input.ExpectedFrequencies(),
                                        num_coefficients);
}

}  // namespace probsyn
