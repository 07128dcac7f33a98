#ifndef PROBSYN_MODEL_TUPLE_PDF_H_
#define PROBSYN_MODEL_TUPLE_PDF_H_

#include <cstddef>
#include <vector>

#include "util/status.h"

namespace probsyn {

/// One alternative of a tuple-pdf row: "this row is item `item` with
/// probability `probability`" (paper Definition 2).
struct TupleAlternative {
  std::size_t item = 0;
  double probability = 0.0;

  friend bool operator==(const TupleAlternative&, const TupleAlternative&) =
      default;
};

/// One row of a tuple-pdf relation: a pdf over mutually exclusive item
/// alternatives whose probabilities sum to at most 1; the deficit is the
/// probability that the row contributes nothing to any possible world.
class ProbTuple {
 public:
  ProbTuple() = default;

  /// Builds from raw alternatives (any order); duplicates of the same item
  /// are merged. Fails on probabilities outside [0,1] or total > 1.
  static StatusOr<ProbTuple> Create(std::vector<TupleAlternative> alternatives);

  const std::vector<TupleAlternative>& alternatives() const {
    return alternatives_;
  }
  std::size_t size() const { return alternatives_.size(); }

  /// Pr[this tuple instantiates to item i].
  double ProbItem(std::size_t i) const;
  /// Pr[this tuple instantiates to an item <= e]. O(log size).
  double ProbItemAtMost(std::size_t e) const;
  /// Pr[s <= instantiated item <= e]: the q_t of the tuple-pdf world-mean
  /// SSE bucket cost (SseTupleWorldMeanOracle, core/sse_oracle.h).
  double ProbItemInRange(std::size_t s, std::size_t e) const;
  /// Pr[tuple contributes nothing] = 1 - sum of alternative probabilities.
  double ProbAbsent() const { return absent_; }

  /// Largest item index referenced (0 if empty).
  std::size_t MaxItem() const;

 private:
  // Sorted by item; cumulative_[k] = sum of probabilities of the first k
  // alternatives, enabling O(log) range probabilities.
  std::vector<TupleAlternative> alternatives_;
  std::vector<double> cumulative_;
  double absent_ = 1.0;
};

/// Tuple-pdf model input (paper Definition 2): a sequence of independent
/// rows over the ordered domain [n].
class TuplePdfInput {
 public:
  TuplePdfInput() = default;
  TuplePdfInput(std::size_t domain_size, std::vector<ProbTuple> tuples)
      : domain_size_(domain_size), tuples_(std::move(tuples)) {}

  std::size_t domain_size() const { return domain_size_; }
  const std::vector<ProbTuple>& tuples() const { return tuples_; }
  std::size_t num_tuples() const { return tuples_.size(); }

  /// Total number of (item, probability) pairs (the paper's m).
  std::size_t total_pairs() const;

  /// Checks domain bounds and per-tuple invariants.
  Status Validate() const;

  /// E[g_i] = sum_t Pr[t_j = i].
  std::vector<double> ExpectedFrequencies() const;
  /// Var[g_i] = sum_t Pr[t_j = i](1 - Pr[t_j = i]) (section 3.1: the
  /// variance of each g_i is the sum of variances arising from each tuple).
  std::vector<double> FrequencyVariances() const;
  /// E[g_i^2] = Var[g_i] + E[g_i]^2.
  std::vector<double> FrequencySecondMoments() const;

  /// For each item, the probabilities of the tuples that may produce it
  /// (the per-item Poisson-binomial parameters); used to build the induced
  /// value pdf.
  std::vector<std::vector<double>> PerItemTupleProbs() const;

 private:
  std::size_t domain_size_ = 0;
  std::vector<ProbTuple> tuples_;
};

}  // namespace probsyn

#endif  // PROBSYN_MODEL_TUPLE_PDF_H_
