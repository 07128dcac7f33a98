// Ablation A8: one-pass streaming histogram construction (the GKS/AHIST
// lineage the paper's section 3.5 builds on, lifted to probabilistic
// streams). Reported per epsilon: cost ratio vs the offline exact DP,
// peak retained breakpoints (the memory footprint, vs n for the offline
// algorithms), and throughput.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/builders.h"
#include "gen/generators.h"
#include "model/induced.h"
#include "stream/streaming_histogram.h"
#include "util/logging.h"

namespace probsyn {
namespace {

const ValuePdfInput& Data() {
  static const ValuePdfInput input = [] {
    std::size_t n = bench::Scaled(4096, 32768);
    BasicModelInput basic = GenerateMovieLinkage({.domain_size = n, .seed = 91});
    auto induced = InduceValuePdf(basic);
    PROBSYN_CHECK(induced.ok());
    return std::move(induced).value();
  }();
  return input;
}

constexpr std::size_t kBuckets = 16;

void RunTable() {
  const ValuePdfInput& input = Data();
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  options.sse_variant = SseVariant::kFixedRepresentative;
  auto offline = HistogramBuilder::Create(input, options, kBuckets);
  PROBSYN_CHECK(offline.ok());
  double opt = offline->OptimalCost(kBuckets);

  std::printf("\n=== Ablation A8: one-pass streaming histogram (SSE, n=%zu, "
              "B=%zu) ===\n",
              input.domain_size(), kBuckets);
  std::printf("offline exact optimum: %.6f (holds all %zu items)\n", opt,
              input.domain_size());
  std::printf("%8s %12s %10s %18s\n", "epsilon", "cost ratio", "bound",
              "peak breakpoints");
  for (double eps : {0.05, 0.1, 0.25, 0.5, 1.0}) {
    StreamingHistogramBuilder builder(kBuckets, eps);
    builder.PushBatch(input.items());
    auto result = builder.Finish();
    PROBSYN_CHECK(result.ok());
    std::printf("%8.2f %12.6f %10.2f %18zu\n", eps, result->cost / opt,
                1.0 + eps, result->peak_breakpoints);
  }
}

void BM_StreamingPush(benchmark::State& state) {
  const ValuePdfInput& input = Data();
  double eps = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) {
    StreamingHistogramBuilder builder(kBuckets, eps);
    for (const ValuePdf& pdf : input.items()) builder.PushBatch({&pdf, 1});
    benchmark::DoNotOptimize(builder.breakpoints());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.domain_size()));
  state.counters["eps"] = eps;
}
BENCHMARK(BM_StreamingPush)->Arg(25)->Arg(100)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace probsyn

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  probsyn::RunTable();
  return 0;
}
