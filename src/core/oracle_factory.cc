#include "core/oracle_factory.h"

#include "core/abs_oracle.h"
#include "core/max_oracle.h"
#include "core/sse_oracle.h"
#include "core/ssre_oracle.h"
#include "model/induced.h"
#include "util/fault_injection.h"

namespace probsyn {

std::shared_ptr<const PointErrorTables> PointErrorTablesCache::GetOrBuild(
    const ValuePdfInput& input, ErrorMetric metric, double sanity_c,
    ThreadPool* pool) {
  const std::pair<ErrorMetric, double> key{metric, sanity_c};
  auto it = by_key_.find(key);
  if (it != by_key_.end()) return it->second;
  auto tables = std::make_shared<const PointErrorTables>(
      input, sanity_c, metric, input.domain_size(), pool);
  by_key_.emplace(key, tables);
  return tables;
}

StatusOr<OracleBundle> MakeBucketOracle(const ValuePdfInput& input,
                                        const SynopsisOptions& options,
                                        ThreadPool* pool,
                                        PointErrorTablesCache* tables_cache) {
  PROBSYN_RETURN_IF_ERROR(options.Validate());
  PROBSYN_RETURN_IF_ERROR(input.Validate());
  return oracle_factory_internal::BuildBucketOracle(input, options, pool,
                                                    tables_cache);
}

namespace oracle_factory_internal {

StatusOr<OracleBundle> BuildBucketOracle(const ValuePdfInput& input,
                                         const SynopsisOptions& options,
                                         ThreadPool* pool,
                                         PointErrorTablesCache* tables_cache) {
  PROBSYN_RETURN_IF_ERROR(MaybeInjectFault(FaultSite::kOraclePreprocess));
  if (input.domain_size() == 0) {
    return Status::InvalidArgument("empty domain");
  }

  if (options.HasWorkload() &&
      options.workload.size() != input.domain_size()) {
    return Status::InvalidArgument(
        "workload size must equal the domain size");
  }

  OracleBundle bundle;
  bundle.combiner =
      IsCumulativeMetric(options.metric) ? DpCombiner::kSum : DpCombiner::kMax;
  switch (options.metric) {
    case ErrorMetric::kSse:
      bundle.oracle = std::make_unique<SseMomentOracle>(
          SseMomentOracle::FromValuePdf(input, options.sse_variant,
                                        options.workload));
      break;
    case ErrorMetric::kSsre:
      bundle.oracle = std::make_unique<SsreOracle>(input, options.sanity_c,
                                                   options.workload);
      break;
    case ErrorMetric::kSae: {
      auto oracle = std::make_unique<AbsCumulativeOracle>(
          input, /*relative=*/false, options.sanity_c, options.workload, pool);
      PROBSYN_RETURN_IF_ERROR(oracle->preprocess_status());
      bundle.oracle = std::move(oracle);
      break;
    }
    case ErrorMetric::kSare: {
      auto oracle = std::make_unique<AbsCumulativeOracle>(
          input, /*relative=*/true, options.sanity_c, options.workload, pool);
      PROBSYN_RETURN_IF_ERROR(oracle->preprocess_status());
      bundle.oracle = std::move(oracle);
      break;
    }
    case ErrorMetric::kMae:
    case ErrorMetric::kMare: {
      std::shared_ptr<const PointErrorTables> tables =
          tables_cache != nullptr
              ? tables_cache->GetOrBuild(input, options.metric,
                                         options.sanity_c, pool)
              : std::make_shared<const PointErrorTables>(
                    input, options.sanity_c, options.metric,
                    input.domain_size(), pool);
      PROBSYN_RETURN_IF_ERROR(tables->preprocess_status());
      bundle.tables = tables;
      bundle.oracle = std::make_unique<MaxErrorOracle>(
          tables, /*relative=*/options.metric == ErrorMetric::kMare,
          options.workload);
      break;
    }
  }
  return bundle;
}

}  // namespace oracle_factory_internal

StatusOr<OracleBundle> MakeBucketOracle(const TuplePdfInput& input,
                                        const SynopsisOptions& options,
                                        ThreadPool* pool,
                                        PointErrorTablesCache* tables_cache) {
  PROBSYN_RETURN_IF_ERROR(options.Validate());
  PROBSYN_RETURN_IF_ERROR(input.Validate());
  if (input.domain_size() == 0) {
    return Status::InvalidArgument("empty domain");
  }

  if (options.HasWorkload() &&
      options.workload.size() != input.domain_size()) {
    return Status::InvalidArgument(
        "workload size must equal the domain size");
  }

  if (options.metric == ErrorMetric::kSse) {
    OracleBundle bundle;
    bundle.combiner = DpCombiner::kSum;
    if (options.sse_variant == SseVariant::kWorldMean) {
      bundle.oracle = std::make_unique<SseTupleWorldMeanOracle>(input);
    } else {
      bundle.oracle = std::make_unique<SseMomentOracle>(
          SseMomentOracle::FromTuplePdf(input, options.sse_variant,
                                        options.workload));
    }
    return bundle;
  }

  auto induced = InduceValuePdf(input);
  if (!induced.ok()) return induced.status();
  return MakeBucketOracle(induced.value(), options, pool, tables_cache);
}

}  // namespace probsyn
