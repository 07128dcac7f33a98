#ifndef PROBSYN_CORE_ORACLE_FACTORY_H_
#define PROBSYN_CORE_ORACLE_FACTORY_H_

#include <map>
#include <memory>
#include <utility>

#include "core/bucket_oracle.h"
#include "core/histogram_dp.h"
#include "core/metrics.h"
#include "core/point_error.h"
#include "model/tuple_pdf.h"
#include "model/value_pdf.h"
#include "util/status.h"

namespace probsyn {

class ThreadPool;

/// A bucket oracle plus everything it needs to stay alive, and the DP
/// combiner matching the metric.
struct OracleBundle {
  std::unique_ptr<BucketCostOracle> oracle;
  /// Shared point-error tables, populated when the metric needs them
  /// (MAE/MARE; they answer that metric's point errors); null otherwise.
  std::shared_ptr<const PointErrorTables> tables;
  DpCombiner combiner = DpCombiner::kSum;
};

/// Reuses PointErrorTables across oracle constructions that read the same
/// point errors of the same input: the same metric and sanity constant.
/// The tables depend on nothing else — not the DP combiner or workload
/// weights — so a batch whose MAE (or MARE) groups differ only in their
/// workloads pays the O(n + sum of support sizes) table fill once instead
/// of per group.
///
/// One cache instance serves ONE logical input; keying is by metric and
/// sanity_c only. Not thread-safe: confine an instance to one batch
/// execution.
class PointErrorTablesCache {
 public:
  /// The tables answering `metric` over `input`, built (with `pool`) on
  /// the first call for the metric and sanity constant.
  std::shared_ptr<const PointErrorTables> GetOrBuild(const ValuePdfInput& input,
                                                     ErrorMetric metric,
                                                     double sanity_c,
                                                     ThreadPool* pool);

 private:
  std::map<std::pair<ErrorMetric, double>,
           std::shared_ptr<const PointErrorTables>>
      by_key_;
};

/// Builds the bucket-cost oracle for value-pdf input under the given
/// metric (paper sections 3.1-3.4, 3.6 — value-pdf branches). A non-null
/// `pool` parallelizes the prefix-table preprocessing of the
/// absolute/maximum-error oracles; the produced oracle is identical. A
/// non-null `tables_cache` shares PointErrorTables across calls with the
/// same input (see PointErrorTablesCache).
StatusOr<OracleBundle> MakeBucketOracle(const ValuePdfInput& input,
                                        const SynopsisOptions& options,
                                        ThreadPool* pool = nullptr,
                                        PointErrorTablesCache* tables_cache =
                                            nullptr);

/// Builds the bucket-cost oracle for tuple-pdf input. All metrics other
/// than world-mean SSE route through the induced value pdf (exact, since
/// those costs are per-item decomposable — sections 3.2-3.6); world-mean
/// SSE uses the exact joint-distribution oracle.
StatusOr<OracleBundle> MakeBucketOracle(const TuplePdfInput& input,
                                        const SynopsisOptions& options,
                                        ThreadPool* pool = nullptr,
                                        PointErrorTablesCache* tables_cache =
                                            nullptr);

namespace oracle_factory_internal {
/// The construction step of the value-pdf MakeBucketOracle without its
/// validation of `options` and `input`, for callers that validated the
/// whole problem once and build oracles over parts of it (the sharded
/// route's shard slices, whose workload slice may be all zero). Still
/// rolls the oracle-preprocess fault site and rejects an empty domain or
/// a workload of another length.
StatusOr<OracleBundle> BuildBucketOracle(const ValuePdfInput& input,
                                         const SynopsisOptions& options,
                                         ThreadPool* pool,
                                         PointErrorTablesCache* tables_cache);
}  // namespace oracle_factory_internal

}  // namespace probsyn

#endif  // PROBSYN_CORE_ORACLE_FACTORY_H_
