#ifndef PROBSYN_MODEL_WORLDS_H_
#define PROBSYN_MODEL_WORLDS_H_

#include <cstddef>
#include <vector>

#include "model/tuple_pdf.h"
#include "model/value_pdf.h"
#include "util/random.h"

namespace probsyn {

/// Draws grounded possible worlds (section 2.1) from value-pdf input: one
/// categorical draw per item. Used by the "Sampled World" baseline of
/// section 5.
class ValuePdfWorldSampler {
 public:
  explicit ValuePdfWorldSampler(const ValuePdfInput& input);

  /// One world's frequency vector (one entry per item), drawn from `rng`.
  std::vector<double> Sample(Rng& rng) const;
  /// Number of items a drawn world covers.
  std::size_t domain_size() const { return samplers_.size(); }

 private:
  std::vector<AliasSampler> samplers_;
  std::vector<std::vector<double>> values_;  // per item, per entry
};

/// Draws grounded possible worlds from tuple-pdf input: one categorical
/// draw per tuple (alternatives plus "absent").
class TuplePdfWorldSampler {
 public:
  explicit TuplePdfWorldSampler(const TuplePdfInput& input);

  /// One world's frequency vector (one entry per item), drawn from `rng`.
  std::vector<double> Sample(Rng& rng) const;
  /// Number of items a drawn world covers.
  std::size_t domain_size() const { return domain_size_; }

 private:
  std::size_t domain_size_ = 0;
  std::vector<AliasSampler> samplers_;
  // Per tuple, per choice: target item, or kAbsent.
  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);
  std::vector<std::vector<std::size_t>> choice_items_;
};

}  // namespace probsyn

#endif  // PROBSYN_MODEL_WORLDS_H_
