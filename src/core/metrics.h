#ifndef PROBSYN_CORE_METRICS_H_
#define PROBSYN_CORE_METRICS_H_

#include <string>
#include <vector>

#include "util/status.h"

namespace probsyn {

/// The synopsis error objectives of the paper (section 2.2 for the
/// deterministic definitions, section 2.3 for their possible-worlds lift):
///
///   cumulative:  E_W[ sum_i err(g_i, ghat_i) ]
///   maximum:     max_i E_W[ err(g_i, ghat_i) ]
enum class ErrorMetric {
  kSse,   ///< Sum-Squared-Error (V-optimal), section 3.1.
  kSsre,  ///< Sum-Squared-Relative-Error, section 3.2.
  kSae,   ///< Sum-Absolute-Error, section 3.3.
  kSare,  ///< Sum-Absolute-Relative-Error, section 3.4.
  kMae,   ///< Maximum-Absolute-Error, section 3.6.
  kMare,  ///< Maximum-Absolute-Relative-Error, section 3.6.
};

/// The paper's SSE objective admits two readings, and the paper itself uses
/// both (bench/bench_ablation_sse_objective.cc measures how far their
/// optimal histograms disagree):
///
/// * `kFixedRepresentative` — the representative b-hat is part of the
///   synopsis and constant across worlds, so the bucket cost is
///   E_W[sum (g_i - bhat)^2], minimized at bhat = (1/n_b) E[sum g_i]. This
///   matches the problem statement in section 2.3 and is per-item
///   decomposable (no cross-item terms) in every model.
/// * `kWorldMean` — the paper's equation (5): bucket cost
///   sum E[g_i^2] - (1/n_b) E[(sum g_i)^2] = n_b * E_W[sample variance],
///   i.e. the expected within-bucket dissimilarity when each world is
///   scored against its own bucket mean. This is the quantity the paper's
///   worked example (29/36) computes, and in the tuple-pdf model it feels
///   the within-tuple anticorrelation between items.
///
/// Both are supported; kWorldMean is the paper-faithful default for SSE.
enum class SseVariant {
  kWorldMean,
  kFixedRepresentative,
};

/// True for SSE/SSRE/SAE/SARE (objective sums per-item errors; the DP
/// combiner h() is +). False for MAE/MARE (h() is max).
bool IsCumulativeMetric(ErrorMetric metric);

/// True for the metrics whose per-item error is scaled by
/// 1/max(c, |g_i|) or its square.
bool IsRelativeMetric(ErrorMetric metric);

/// Stable display name ("SSE", "SSRE", ...).
const char* ErrorMetricName(ErrorMetric metric);

/// Parses the display name back; inverse of ErrorMetricName.
StatusOr<ErrorMetric> ParseErrorMetric(const std::string& name);

/// Point error err(g, ghat) on a grounded (deterministic) frequency —
/// the per-world integrand. For SSE/SAE c is ignored.
double PointError(ErrorMetric metric, double g, double ghat, double c);

/// Options shared by all synopsis builders.
struct SynopsisOptions {
  ErrorMetric metric = ErrorMetric::kSse;
  /// The sanity-bound constant c of the relative-error metrics
  /// (sections 2.2, 3.2): denominators are max(c, |g|) (or its square).
  double sanity_c = 1.0;
  /// Which SSE objective to use when metric == kSse.
  SseVariant sse_variant = SseVariant::kWorldMean;
  /// Optional per-item query-workload weights phi_i — the extension the
  /// paper's concluding remarks call for ("in addition to a distribution
  /// over the input data, there is also a distribution over the queries").
  /// Empty means uniform. When set (size must equal the domain size), the
  /// objectives become
  ///     cumulative:  E_W[ sum_i phi_i err(g_i, ghat_i) ]
  ///     maximum:     max_i phi_i E_W[ err(g_i, ghat_i) ]
  /// Weights must be nonnegative with at least one positive. Supported by
  /// every metric except the kWorldMean SSE variant (whose per-world
  /// bucket-mean objective has no per-item decomposition to weight).
  std::vector<double> workload;

  bool HasWorkload() const { return !workload.empty(); }

  Status Validate() const;
};

}  // namespace probsyn

#endif  // PROBSYN_CORE_METRICS_H_
