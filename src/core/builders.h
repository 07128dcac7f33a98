#ifndef PROBSYN_CORE_BUILDERS_H_
#define PROBSYN_CORE_BUILDERS_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/histogram.h"
#include "core/histogram_dp.h"
#include "core/metrics.h"
#include "core/oracle_factory.h"
#include "model/tuple_pdf.h"
#include "model/value_pdf.h"
#include "util/status.h"

namespace probsyn {

class ThreadPool;

/// Wraps a frequency vector as deterministic value-pdf input (point masses)
/// — the paper's device for running one code path over probabilistic and
/// deterministic data alike (section 5, "for consistency, we use the same
/// code ... since deterministic data can be interpreted as probabilistic
/// data in the value pdf model with probability 1").
ValuePdfInput PointMassInput(std::span<const double> frequencies);

/// Owns a solved histogram DP (oracle + tables + trace), from which
/// optimal histograms and costs can be extracted for every budget
/// b <= max_buckets. This is the workhorse of the Figure 2 experiments,
/// which plot whole cost-vs-B curves from a single DP run.
///
/// Move-only; extraction is const and cheap.
class HistogramBuilder {
 public:
  /// A non-null `pool` parallelizes both the oracle preprocessing and the
  /// exact DP (bit-identical results; see SolveHistogramDp).
  static StatusOr<HistogramBuilder> Create(const ValuePdfInput& input,
                                           const SynopsisOptions& options,
                                           std::size_t max_buckets,
                                           ThreadPool* pool = nullptr);
  static StatusOr<HistogramBuilder> Create(const TuplePdfInput& input,
                                           const SynopsisOptions& options,
                                           std::size_t max_buckets,
                                           ThreadPool* pool = nullptr);
  /// Deterministic data (expectation / sampled-world baselines).
  static StatusOr<HistogramBuilder> CreateDeterministic(
      std::span<const double> frequencies, const SynopsisOptions& options,
      std::size_t max_buckets, ThreadPool* pool = nullptr);

  HistogramBuilder(HistogramBuilder&&) = default;
  HistogramBuilder& operator=(HistogramBuilder&&) = default;

  /// Optimal expected error with at most `num_buckets` buckets.
  double OptimalCost(std::size_t num_buckets) const {
    return dp_.OptimalCost(num_buckets);
  }

  /// Optimal histogram for the given budget (boundaries + representatives).
  Histogram Extract(std::size_t num_buckets) const {
    return dp_.ExtractHistogram(num_buckets);
  }

  std::size_t max_buckets() const { return dp_.max_buckets(); }
  std::size_t domain_size() const { return dp_.domain_size(); }
  const BucketCostOracle& oracle() const { return *bundle_.oracle; }

 private:
  HistogramBuilder(OracleBundle bundle, std::size_t max_buckets,
                   ThreadPool* pool);

  OracleBundle bundle_;
  HistogramDpResult dp_;
};

}  // namespace probsyn

#endif  // PROBSYN_CORE_BUILDERS_H_
