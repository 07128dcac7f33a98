// Ablation A6: workload-aware synopses (the paper's concluding-remarks
// extension — non-uniform query distributions over the domain).
//
// A hot range receives most of the query mass; we compare the
// workload-optimal histogram against the uniform-optimal one, both costed
// under the weighted objective. Expected shape: the gap widens as the
// workload concentrates, because the uniform DP wastes boundaries on cold
// regions.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/builders.h"
#include "core/evaluate.h"
#include "engine/synopsis_engine.h"
#include "gen/generators.h"
#include "util/logging.h"

namespace probsyn {
namespace {

TuplePdfInput MakeData() {
  std::size_t n = bench::Scaled(1024, 8192);
  BasicModelInput basic = GenerateMovieLinkage({.domain_size = n, .seed = 88});
  auto tuple_pdf = basic.ToTuplePdf();
  PROBSYN_CHECK(tuple_pdf.ok());
  return std::move(tuple_pdf).value();
}

// hot_share of the query mass falls on the central 1/8th of the domain.
std::vector<double> MakeWorkload(std::size_t n, double hot_share) {
  std::vector<double> weights(n, 0.0);
  std::size_t hot_begin = n / 2 - n / 16, hot_end = n / 2 + n / 16;
  double hot_items = static_cast<double>(hot_end - hot_begin);
  double cold_items = static_cast<double>(n) - hot_items;
  for (std::size_t i = 0; i < n; ++i) {
    bool hot = i >= hot_begin && i < hot_end;
    weights[i] = hot ? hot_share / hot_items : (1.0 - hot_share) / cold_items;
  }
  return weights;
}

void RunTable() {
  TuplePdfInput input = MakeData();
  const std::size_t n = input.domain_size();
  const std::size_t kBuckets = 16;

  bench::SeriesTable table(
      "Ablation A6: workload-aware vs uniform histograms (SSE, n=" +
          std::to_string(n) + ", B=" + std::to_string(kBuckets) +
          ") [weighted expected SSE, x1000]",
      "hot%", {"WorkloadAware", "UniformOpt", "penalty%"});

  const SynopsisEngine engine;
  SynopsisRequest request;
  request.budget = kBuckets;
  for (double hot_share : {0.125, 0.5, 0.9, 0.99}) {
    SynopsisOptions weighted;
    weighted.metric = ErrorMetric::kSse;
    weighted.sse_variant = SseVariant::kFixedRepresentative;
    weighted.workload = MakeWorkload(n, hot_share);

    SynopsisOptions uniform = weighted;
    uniform.workload.clear();

    request.options = weighted;
    auto aware = engine.Build(input, request);
    request.options = uniform;
    auto blind = engine.Build(input, request);
    PROBSYN_CHECK(aware.ok() && blind.ok());
    auto cost_aware = EvaluateHistogram(input, aware->histogram, weighted);
    auto cost_blind = EvaluateHistogram(input, blind->histogram, weighted);
    PROBSYN_CHECK(cost_aware.ok() && cost_blind.ok());
    double penalty = *cost_aware > 0.0
                         ? 100.0 * (*cost_blind - *cost_aware) / *cost_aware
                         : 0.0;
    table.AddRow(static_cast<std::size_t>(hot_share * 100),
                 {*cost_aware * 1e3, *cost_blind * 1e3, penalty});
  }
  table.Print();
}

void BM_WorkloadAwareDP(benchmark::State& state) {
  static const TuplePdfInput input = MakeData();
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  options.sse_variant = SseVariant::kFixedRepresentative;
  options.workload = MakeWorkload(input.domain_size(), 0.9);
  for (auto _ : state) {
    auto builder = HistogramBuilder::Create(input, options, 16);
    benchmark::DoNotOptimize(builder);
  }
}
BENCHMARK(BM_WorkloadAwareDP)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace probsyn

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  probsyn::RunTable();
  return 0;
}
