#ifndef PROBSYN_MODEL_VALUE_PDF_H_
#define PROBSYN_MODEL_VALUE_PDF_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace probsyn {

/// One (frequency value, probability) pair of a value-pdf entry
/// (paper Definition 3: the tuple `(f_ij, p_ij)`).
struct ValueProb {
  double value = 0.0;
  double probability = 0.0;

  friend bool operator==(const ValueProb&, const ValueProb&) = default;
};

/// Discrete pdf of one item's frequency random variable g_i.
///
/// Invariants (established by Normalize(), checked by Validate()):
///   * entries are sorted by strictly increasing `value`;
///   * probabilities are in (0, 1] and sum to exactly 1 after the implicit
///     zero-frequency remainder mass has been materialized (Definition 3:
///     "If probabilities in a tuple sum to less than one, the remainder is
///     taken to implicitly specify the probability that the frequency is
///     zero");
///   * values are nonnegative (frequencies).
class ValuePdf {
 public:
  ValuePdf() = default;

  /// Builds from raw (value, probability) pairs in any order; duplicates
  /// are merged, the zero remainder is materialized. Fails if probabilities
  /// are negative or sum to more than 1 + epsilon.
  static StatusOr<ValuePdf> Create(std::vector<ValueProb> entries);

  /// A deterministic item with known frequency v (probability-1 point mass).
  /// This is how deterministic data enters the library (paper section 5:
  /// "deterministic data can be interpreted as probabilistic data in the
  /// value pdf model with probability 1 of attaining a certain frequency").
  static ValuePdf PointMass(double value);

  const std::vector<ValueProb>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// E[g_i].
  double Mean() const;
  /// E[g_i^2].
  double SecondMoment() const;

  /// E[(g_i - a)^2].
  double ExpectedSquaredDeviation(double a) const;
  /// E[(g_i - a)^2 / max(c^2, g_i^2)]; squared-relative integrand (3.2).
  double ExpectedSquaredRelDeviation(double a, double c) const;

  /// Deep equality on the normalized representation.
  friend bool operator==(const ValuePdf&, const ValuePdf&) = default;

 private:
  std::vector<ValueProb> entries_;
};

/// Value-pdf model input (paper Definition 3): one independent frequency
/// pdf per item of the ordered domain [n] = {0..n-1}.
class ValuePdfInput {
 public:
  ValuePdfInput() = default;
  explicit ValuePdfInput(std::vector<ValuePdf> items)
      : items_(std::move(items)) {}

  /// Domain size n.
  std::size_t domain_size() const { return items_.size(); }
  const std::vector<ValuePdf>& items() const { return items_; }
  const ValuePdf& item(std::size_t i) const { return items_[i]; }

  /// Total number of (value, probability) pairs (the paper's m).
  std::size_t total_pairs() const;

  /// Checks all per-item invariants; returns first violation.
  Status Validate() const;

  /// The global sorted value set V (union of all support points, always
  /// including 0) used to index the P/P* tables of sections 3.3-3.6.
  std::vector<double> ValueGrid() const;

  /// Per-item expected frequencies E[g_i] (the "expectation" baseline's
  /// deterministic input, and the wavelet mu vector of section 4.1).
  std::vector<double> ExpectedFrequencies() const;
  /// Per-item Var[g_i].
  std::vector<double> FrequencyVariances() const;
  /// Per-item E[g_i^2].
  std::vector<double> FrequencySecondMoments() const;

 private:
  std::vector<ValuePdf> items_;
};

/// Wraps a frequency vector as deterministic value-pdf input, one
/// ValuePdf::PointMass per item: the paper's device for running one code
/// path over probabilistic and deterministic data alike (section 5). The
/// Expectation and Sampled World baselines build their histograms over it.
ValuePdfInput PointMassInput(std::span<const double> frequencies);

}  // namespace probsyn

#endif  // PROBSYN_MODEL_VALUE_PDF_H_
