#ifndef PROBSYN_CORE_WAVELET_H_
#define PROBSYN_CORE_WAVELET_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/haar.h"
#include "model/tuple_pdf.h"
#include "model/value_pdf.h"
#include "util/status.h"

namespace probsyn {

/// A B-term Haar wavelet synopsis over a domain of size `domain_size`,
/// internally transformed at the padded power-of-two size `transform_size`.
/// Coefficients not retained are implicitly zero (paper section 2.2).
class WaveletSynopsis {
 public:
  WaveletSynopsis() = default;
  WaveletSynopsis(std::size_t domain_size, std::size_t transform_size,
                  std::vector<WaveletCoefficient> coefficients);

  std::size_t domain_size() const { return domain_size_; }
  std::size_t transform_size() const { return transform_size_; }
  std::size_t num_coefficients() const { return coefficients_.size(); }
  /// Retained coefficients, sorted by index.
  const std::vector<WaveletCoefficient>& coefficients() const {
    return coefficients_;
  }

  Status Validate() const;

  /// The synopsis estimate ghat_i, by SparseHaarPoint. O(log n log B).
  double Estimate(std::size_t i) const;

  /// Materializes [ghat_0, ..., ghat_{domain_size-1}] via one inverse
  /// transform. O(transform_size).
  std::vector<double> ToFrequencyVector() const;

  /// Estimate of sum_{i=a..b} g_i (approximate range-count query), by
  /// SparseHaarRangeSum from the coefficients whose support straddles a or
  /// b. O(log n log B); no frequency vector is built.
  double EstimateRangeSum(std::size_t a, std::size_t b) const;

  std::string ToString() const;

  friend bool operator==(const WaveletSynopsis&, const WaveletSynopsis&) =
      default;

 private:
  std::size_t domain_size_ = 0;
  std::size_t transform_size_ = 0;
  std::vector<WaveletCoefficient> coefficients_;  // sorted by index
};

/// Builds the expected-SSE-optimal B-term synopsis from a vector of
/// expected frequencies (paper section 4.1, Theorem 7): transform E[g] and
/// keep the B largest coefficients by |normalized value| (ties broken
/// toward lower index for determinism). This one routine serves both the
/// probabilistic method (expected frequencies of the true input) and the
/// sampled-world baseline (frequencies of a sampled world). O(n log n).
WaveletSynopsis BuildSseWaveletFromFrequencies(std::span<const double> freqs,
                                               std::size_t num_coefficients);

/// Expected-SSE-optimal synopsis for value-pdf input.
StatusOr<WaveletSynopsis> BuildSseOptimalWavelet(const ValuePdfInput& input,
                                                 std::size_t num_coefficients);
/// Expected-SSE-optimal synopsis for tuple-pdf input (by linearity, the
/// expected coefficients are the transform of the expected frequencies in
/// every model — section 4.1).
StatusOr<WaveletSynopsis> BuildSseOptimalWavelet(const TuplePdfInput& input,
                                                 std::size_t num_coefficients);

/// The expected normalized Haar coefficients mu_ci of an input: the
/// transform of its (padded) expected frequencies.
std::vector<double> ExpectedHaarCoefficients(std::span<const double> expected);

}  // namespace probsyn

#endif  // PROBSYN_CORE_WAVELET_H_
