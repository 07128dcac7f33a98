#include "core/builders.h"

#include "util/logging.h"
#include "util/thread_pool.h"

namespace probsyn {

ValuePdfInput PointMassInput(std::span<const double> frequencies) {
  std::vector<ValuePdf> items;
  items.reserve(frequencies.size());
  for (double f : frequencies) items.push_back(ValuePdf::PointMass(f));
  return ValuePdfInput(std::move(items));
}

HistogramBuilder::HistogramBuilder(OracleBundle bundle,
                                   std::size_t max_buckets, ThreadPool* pool)
    : bundle_(std::move(bundle)),
      dp_(SolveHistogramDp(*bundle_.oracle, max_buckets, bundle_.combiner,
                           {.pool = pool})) {}

StatusOr<HistogramBuilder> HistogramBuilder::Create(
    const ValuePdfInput& input, const SynopsisOptions& options,
    std::size_t max_buckets, ThreadPool* pool) {
  if (max_buckets < 1) return Status::InvalidArgument("need >= 1 bucket");
  auto bundle = MakeBucketOracle(input, options, pool);
  if (!bundle.ok()) return bundle.status();
  return HistogramBuilder(std::move(bundle).value(), max_buckets, pool);
}

StatusOr<HistogramBuilder> HistogramBuilder::Create(
    const TuplePdfInput& input, const SynopsisOptions& options,
    std::size_t max_buckets, ThreadPool* pool) {
  if (max_buckets < 1) return Status::InvalidArgument("need >= 1 bucket");
  auto bundle = MakeBucketOracle(input, options, pool);
  if (!bundle.ok()) return bundle.status();
  return HistogramBuilder(std::move(bundle).value(), max_buckets, pool);
}

StatusOr<HistogramBuilder> HistogramBuilder::CreateDeterministic(
    std::span<const double> frequencies, const SynopsisOptions& options,
    std::size_t max_buckets, ThreadPool* pool) {
  return Create(PointMassInput(frequencies), options, max_buckets, pool);
}

}  // namespace probsyn
