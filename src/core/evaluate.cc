#include "core/evaluate.h"

#include <algorithm>

#include "core/haar.h"
#include "core/sse_oracle.h"
#include "model/induced.h"
#include "util/logging.h"
#include "util/math.h"

namespace probsyn {

double EvaluateHistogram(const PointErrorTables& tables, const Histogram& h,
                         ErrorMetric metric, std::span<const double> weights) {
  PROBSYN_CHECK(h.domain_size() == tables.domain_size());
  PROBSYN_CHECK(tables.Covers(metric));
  PROBSYN_CHECK(weights.empty() || weights.size() == tables.domain_size());
  bool cumulative = IsCumulativeMetric(metric);
  KahanSum sum;
  double worst = 0.0;
  for (const HistogramBucket& b : h.buckets()) {
    for (std::size_t i = b.start; i <= b.end; ++i) {
      double err = tables.ExpectedPointError(metric, i, b.representative);
      if (!weights.empty()) err *= weights[i];
      if (cumulative) {
        sum.Add(err);
      } else {
        worst = std::max(worst, err);
      }
    }
  }
  return cumulative ? sum.value() : worst;
}

StatusOr<double> EvaluateHistogram(const ValuePdfInput& input,
                                   const Histogram& h,
                                   const SynopsisOptions& options) {
  PROBSYN_RETURN_IF_ERROR(options.Validate());
  PROBSYN_RETURN_IF_ERROR(input.Validate());
  PROBSYN_RETURN_IF_ERROR(h.Validate(input.domain_size()));
  if (options.HasWorkload() &&
      options.workload.size() != input.domain_size()) {
    return Status::InvalidArgument("workload size must equal the domain size");
  }
  PointErrorTables tables(input, options.sanity_c, options.metric,
                          input.domain_size());
  return EvaluateHistogram(tables, h, options.metric, options.workload);
}

StatusOr<double> EvaluateHistogram(const TuplePdfInput& input,
                                   const Histogram& h,
                                   const SynopsisOptions& options) {
  auto induced = InduceValuePdf(input);
  if (!induced.ok()) return induced.status();
  return EvaluateHistogram(induced.value(), h, options);
}

namespace {

// Shared boundary-only evaluation against a world-mean SSE oracle.
double SumBucketCosts(const BucketCostOracle& oracle, const Histogram& h) {
  KahanSum sum;
  for (const HistogramBucket& b : h.buckets()) {
    sum.Add(oracle.Cost(b.start, b.end).cost);
  }
  return sum.value();
}

}  // namespace

StatusOr<double> EvaluateHistogramWorldMeanSse(const ValuePdfInput& input,
                                               const Histogram& h) {
  PROBSYN_RETURN_IF_ERROR(input.Validate());
  PROBSYN_RETURN_IF_ERROR(h.Validate(input.domain_size()));
  SseMomentOracle oracle =
      SseMomentOracle::FromValuePdf(input, SseVariant::kWorldMean);
  return SumBucketCosts(oracle, h);
}

StatusOr<double> EvaluateHistogramWorldMeanSse(const TuplePdfInput& input,
                                               const Histogram& h) {
  PROBSYN_RETURN_IF_ERROR(input.Validate());
  PROBSYN_RETURN_IF_ERROR(h.Validate(input.domain_size()));
  SseTupleWorldMeanOracle oracle(input);
  return SumBucketCosts(oracle, h);
}

namespace {

StatusOr<double> EvaluateWaveletOnValuePdf(const ValuePdfInput& input,
                                           const WaveletSynopsis& synopsis,
                                           const SynopsisOptions& options) {
  PROBSYN_RETURN_IF_ERROR(options.Validate());
  PROBSYN_RETURN_IF_ERROR(input.Validate());
  PROBSYN_RETURN_IF_ERROR(synopsis.Validate());
  if (synopsis.domain_size() != input.domain_size()) {
    return Status::InvalidArgument("synopsis/input domain mismatch");
  }
  if (options.HasWorkload() &&
      options.workload.size() != input.domain_size()) {
    return Status::InvalidArgument("workload size must equal the domain size");
  }

  // Items past the input are deterministic zeros, so the evaluation domain
  // matches the transform domain the synopsis was selected over.
  PointErrorTables tables(input, options.sanity_c, options.metric,
                          synopsis.transform_size());

  std::vector<double> dense(synopsis.transform_size(), 0.0);
  for (const WaveletCoefficient& c : synopsis.coefficients()) {
    dense[c.index] = c.value;
  }
  std::vector<double> ghat = HaarInverse(dense);

  bool cumulative = IsCumulativeMetric(options.metric);
  KahanSum sum;
  double worst = 0.0;
  for (std::size_t i = 0; i < tables.domain_size(); ++i) {
    double err = tables.ExpectedPointError(options.metric, i, ghat[i]);
    if (options.HasWorkload()) {
      // Padded items beyond the caller's domain carry zero workload.
      err *= i < options.workload.size() ? options.workload[i] : 0.0;
    }
    if (cumulative) {
      sum.Add(err);
    } else {
      worst = std::max(worst, err);
    }
  }
  return cumulative ? sum.value() : worst;
}

}  // namespace

StatusOr<double> EvaluateWavelet(const ValuePdfInput& input,
                                 const WaveletSynopsis& synopsis,
                                 const SynopsisOptions& options) {
  return EvaluateWaveletOnValuePdf(input, synopsis, options);
}

StatusOr<double> EvaluateWavelet(const TuplePdfInput& input,
                                 const WaveletSynopsis& synopsis,
                                 const SynopsisOptions& options) {
  auto induced = InduceValuePdf(input);
  if (!induced.ok()) return induced.status();
  return EvaluateWaveletOnValuePdf(induced.value(), synopsis, options);
}

double WaveletUnretainedEnergyPercent(std::span<const double> mu,
                                      const WaveletSynopsis& synopsis) {
  KahanSum total;
  for (double m : mu) total.Add(m * m);
  KahanSum retained;
  for (const WaveletCoefficient& c : synopsis.coefficients()) {
    PROBSYN_CHECK(c.index < mu.size());
    retained.Add(mu[c.index] * mu[c.index]);
  }
  if (total.value() <= 0.0) return 0.0;
  double missed = total.value() - retained.value();
  return std::clamp(100.0 * missed / total.value(), 0.0, 100.0);
}

double ErrorScale::Percent(double cost) const {
  double range = max_cost - min_cost;
  if (!(range > 0.0)) return 0.0;
  return std::clamp(100.0 * (cost - min_cost) / range, 0.0, 100.0);
}

ErrorScale ComputeErrorScale(const BucketCostOracle& oracle,
                             bool cumulative_metric) {
  const std::size_t n = oracle.domain_size();
  PROBSYN_CHECK(n > 0);
  ErrorScale scale;
  scale.max_cost = oracle.Cost(0, n - 1).cost;
  if (cumulative_metric) {
    KahanSum sum;
    for (std::size_t i = 0; i < n; ++i) sum.Add(oracle.Cost(i, i).cost);
    scale.min_cost = sum.value();
  } else {
    double worst = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      worst = std::max(worst, oracle.Cost(i, i).cost);
    }
    scale.min_cost = worst;
  }
  return scale;
}

}  // namespace probsyn
