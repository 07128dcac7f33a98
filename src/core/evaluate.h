#ifndef PROBSYN_CORE_EVALUATE_H_
#define PROBSYN_CORE_EVALUATE_H_

#include <cstddef>
#include <span>

#include "core/bucket_oracle.h"
#include "core/histogram.h"
#include "core/metrics.h"
#include "core/point_error.h"
#include "core/wavelet.h"
#include "model/tuple_pdf.h"
#include "model/value_pdf.h"
#include "util/status.h"

namespace probsyn {

/// Exact expected error of an arbitrary histogram synopsis (its fixed
/// representatives included) under any metric:
///   cumulative:  E_W[sum_i err(g_i, ghat_i)] = sum_i E_W[err(g_i, ghat_i)]
///   maximum:     max_i E_W[err(g_i, ghat_i)]
/// computed analytically from per-item marginals. This is how section 5's
/// experiments re-cost the Expectation / Sampled-World baselines under the
/// true distribution. O(n) for the squared metrics, O(n log s) for the
/// absolute ones (s the largest support size). `tables` must cover
/// `metric` (PointErrorTables::Covers).
/// `weights` are optional per-item workload weights (empty = uniform),
/// matching SynopsisOptions::workload.
double EvaluateHistogram(const PointErrorTables& tables, const Histogram& h,
                         ErrorMetric metric,
                         std::span<const double> weights = {});
/// Validating form over a value pdf: checks the options, the input and the
/// partition (and the workload's length), then builds the point-error
/// tables of options.metric alone and weighs items by options.workload.
StatusOr<double> EvaluateHistogram(const ValuePdfInput& input,
                                   const Histogram& h,
                                   const SynopsisOptions& options);
/// Tuple-pdf overload. Exact for every metric: with fixed representatives
/// all six objectives are per-item decomposable, so the induced value pdf
/// suffices even for SSE.
StatusOr<double> EvaluateHistogram(const TuplePdfInput& input,
                                   const Histogram& h,
                                   const SynopsisOptions& options);

/// The paper's SSE objective in its equation-(5) (world-mean) form:
///   sum_buckets [ sum_i E[g_i^2] - E[(sum_i g_i)^2] / n_b ],
/// which depends only on the bucket *boundaries* (each possible world is
/// scored against its own bucket means). Exact in both models, including
/// the within-tuple anticorrelation for tuple-pdf input.
StatusOr<double> EvaluateHistogramWorldMeanSse(const ValuePdfInput& input,
                                               const Histogram& h);
/// Tuple-pdf overload: E[(sum_i g_i)^2] keeps the within-tuple
/// anticorrelation between a bucket's items.
StatusOr<double> EvaluateHistogramWorldMeanSse(const TuplePdfInput& input,
                                               const Histogram& h);

/// Exact expected error of a wavelet synopsis. The synopsis' padded
/// transform domain is evaluated in full — items beyond the input domain
/// are deterministic zeros, matching the selection objective. For kSse this
/// realizes E_W[SSE] = sum_{i in I} sigma_ci^2 + sum_{i not in I} E[c_i^2]
/// of section 4.1 (evaluated in the data domain).
StatusOr<double> EvaluateWavelet(const ValuePdfInput& input,
                                 const WaveletSynopsis& synopsis,
                                 const SynopsisOptions& options);
/// Tuple-pdf overload, evaluated on the induced value pdf: a wavelet's
/// reconstruction is fixed per item, so every metric decomposes per item.
StatusOr<double> EvaluateWavelet(const TuplePdfInput& input,
                                 const WaveletSynopsis& synopsis,
                                 const SynopsisOptions& options);

/// The Figure-4 quality measure: percentage of expected-coefficient energy
/// NOT captured by the synopsis, 100 * sum_{i not in I} mu_i^2 / sum mu_i^2.
/// `mu` is the full expected-coefficient vector (ExpectedHaarCoefficients).
double WaveletUnretainedEnergyPercent(std::span<const double> mu,
                                      const WaveletSynopsis& synopsis);

/// The paper's error-% normalization for histograms (section 5.1): a
/// histogram's cost is placed between the 1-bucket cost (worst) and the
/// n-bucket cost (best achievable — NONZERO on uncertain data, since even
/// per-item buckets must commit to one representative).
struct ErrorScale {
  double max_cost = 0.0;  ///< 1-bucket optimal cost.
  double min_cost = 0.0;  ///< n-bucket optimal cost.

  /// 100 * (cost - min) / (max - min), clamped to [0, 100] against fp
  /// drift; 0 when the scale is degenerate.
  double Percent(double cost) const;
};

/// Computes the scale from any bucket oracle (1-bucket vs per-item buckets).
ErrorScale ComputeErrorScale(const BucketCostOracle& oracle,
                             bool cumulative_metric);

}  // namespace probsyn

#endif  // PROBSYN_CORE_EVALUATE_H_
