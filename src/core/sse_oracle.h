#ifndef PROBSYN_CORE_SSE_ORACLE_H_
#define PROBSYN_CORE_SSE_ORACLE_H_

#include <cstddef>
#include <vector>

#include "core/bucket_oracle.h"
#include "core/metrics.h"
#include "model/tuple_pdf.h"
#include "model/value_pdf.h"
#include "util/prefix_sums.h"

namespace probsyn {

/// SSE bucket oracle from per-item frequency moments (paper section 3.1,
/// value-pdf branch). O(n) preprocessing, O(1) per bucket.
///
/// * kFixedRepresentative: cost([s,e]) = sum E[g^2] - (sum E[g])^2 / n_b,
///   the expected SSE of the best constant representative
///   bhat = mean of expected frequencies. Exact in EVERY model — with a
///   fixed bhat there are no cross-item terms, so only per-item moments
///   enter.
/// * kWorldMean (paper equation (5)): cost = sum E[g^2] - E[(sum g)^2]/n_b
///   with E[(sum g)^2] = (sum E[g])^2 + Var[sum g]. This class computes
///   Var[sum g] as the sum of per-item variances, which is exact for
///   value-pdf input (independent items) and an *approximation* for
///   tuple-pdf input (ignores within-tuple anticorrelation). Use
///   SseTupleWorldMeanOracle for the exact tuple-pdf version.
class SseMomentOracle final : public BucketCostOracle {
 public:
  /// `weights` are optional per-item workload weights phi_i (empty =
  /// uniform); the weighted cost is sum phi_i E[(g_i - bhat)^2], minimized
  /// at bhat = sum phi E[g] / sum phi. Weights are only supported for the
  /// kFixedRepresentative variant (the factory enforces this).
  SseMomentOracle(std::vector<double> means, std::vector<double> second_moments,
                  std::vector<double> variances, SseVariant variant,
                  std::vector<double> weights = {});

  static SseMomentOracle FromValuePdf(const ValuePdfInput& input,
                                      SseVariant variant,
                                      std::vector<double> weights = {});
  /// Independent-items treatment of tuple-pdf input (exact for
  /// kFixedRepresentative; the induced approximation for kWorldMean).
  static SseMomentOracle FromTuplePdf(const TuplePdfInput& input,
                                      SseVariant variant,
                                      std::vector<double> weights = {});

  std::size_t domain_size() const override { return n_; }
  BucketCost Cost(std::size_t s, std::size_t e) const override;

  /// Raw prefix tables for the devirtualized DP kernel
  /// (core/dp_kernels.cc), which replicates Cost() over flat spans of these
  /// arrays. Kernel code must mirror Cost()'s exact expression sequence to
  /// stay bit-identical.
  SseVariant variant() const { return variant_; }
  const PrefixSums& mean_prefix() const { return mean_; }
  const PrefixSums& second_prefix() const { return second_; }
  const PrefixSums& variance_prefix() const { return variance_; }
  const PrefixSums& weight_prefix() const { return weight_; }
  const PrefixSums& raw_mean_prefix() const { return raw_mean_; }

 private:
  std::size_t n_;
  SseVariant variant_;
  bool weighted_;
  PrefixSums mean_;      // phi * E[g]
  PrefixSums second_;    // phi * E[g^2]
  PrefixSums variance_;  // Var[g] (uniform-weight world-mean path only)
  PrefixSums weight_;    // phi
  PrefixSums raw_mean_;  // E[g] (fallback representative on zero weight)
};

/// Exact world-mean SSE oracle for the tuple-pdf model (paper section 3.1,
/// tuple-pdf branch). The bucket cost needs
///     Var[sum_{i in [s,e]} g_i] = sum_t q_t (1 - q_t),
///     q_t = Pr[s <= t_j <= e],
/// whose sum_t q_t^2 part couples the bucket's endpoints through every
/// tuple: with F_t the tuple's CDF over items, q_t^2 carries the cross
/// term F_t(e) F_t(s - 1), a function of both endpoints at once, so no
/// per-endpoint prefix array (the form of the paper's printed formula)
/// holds it. We keep sum_t q_t^2
/// *incrementally* along the DP's leftward sweeps — amortized O(1 + tuples
/// touched) per extension, preserving the overall O(B(n^2 + n m/n)) DP —
/// and recompute it from the per-tuple CDFs for random access (O(m)).
class SseTupleWorldMeanOracle final : public BucketCostOracle {
 public:
  explicit SseTupleWorldMeanOracle(const TuplePdfInput& input);

  std::size_t domain_size() const override { return n_; }
  BucketCost Cost(std::size_t s, std::size_t e) const override;
  std::unique_ptr<Sweep> StartSweep(std::size_t e) const override;

  /// Non-virtual leftward sweep with fixed right end `e`: the k-th call to
  /// Extend() returns Cost(e - k + 1, e), maintained incrementally. This is
  /// the concrete engine behind the virtual StartSweep() adapter; the
  /// devirtualized DP kernel (core/dp_kernels.cc) drives it directly, so
  /// both paths run the identical arithmetic.
  class FlatSweep {
   public:
    FlatSweep(const SseTupleWorldMeanOracle& oracle, std::size_t e);
    BucketCost Extend();

   private:
    const SseTupleWorldMeanOracle& oracle_;
    std::size_t end_;
    std::size_t next_start_;
    double sum_q2_ = 0.0;
    std::vector<double> tuple_q_;
  };

 private:
  class SweepImpl;

  std::size_t n_;
  PrefixSums mean_;    // prefix of E[g_i]
  PrefixSums second_;  // prefix of E[g_i^2]
  // Per-item postings: (tuple index, Pr[tuple = item]).
  struct Posting {
    std::uint32_t tuple = 0;
    double probability = 0.0;
  };
  std::vector<std::vector<Posting>> postings_;
  std::size_t num_tuples_ = 0;
  // Per-tuple data for random-access Cost(): the tuples themselves.
  std::vector<ProbTuple> tuples_;
};

}  // namespace probsyn

#endif  // PROBSYN_CORE_SSE_ORACLE_H_
