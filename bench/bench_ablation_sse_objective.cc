// Ablation A4 (the two SSE readings of SseVariant, core/metrics.h): the
// paper's equation-(5) "world-mean" SSE objective versus the fixed-
// representative SSE of its own problem statement (section 2.3).
//
// Each variant's optimal histogram is cross-evaluated under both
// objectives. Expected shape: each wins under its own objective (by
// optimality); the cross penalties quantify how much the two objectives
// actually disagree about bucket boundaries — they differ by
// Var[sum g]/n_b per bucket, so disagreement grows with within-bucket
// frequency variance.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/builders.h"
#include "core/evaluate.h"
#include "gen/generators.h"
#include "util/logging.h"

namespace probsyn {
namespace {

TuplePdfInput MakeData() {
  std::size_t n = bench::Scaled(512, 4096);
  BasicModelInput basic = GenerateMovieLinkage({.domain_size = n, .seed = 77});
  auto tuple_pdf = basic.ToTuplePdf();
  PROBSYN_CHECK(tuple_pdf.ok());
  return std::move(tuple_pdf).value();
}

void RunTable() {
  TuplePdfInput input = MakeData();
  const std::size_t n = input.domain_size();

  SynopsisOptions world_mean;
  world_mean.metric = ErrorMetric::kSse;
  world_mean.sse_variant = SseVariant::kWorldMean;
  SynopsisOptions fixed_rep;
  fixed_rep.metric = ErrorMetric::kSse;
  fixed_rep.sse_variant = SseVariant::kFixedRepresentative;

  auto wm_builder = HistogramBuilder::Create(input, world_mean, n / 4);
  auto fr_builder = HistogramBuilder::Create(input, fixed_rep, n / 4);
  PROBSYN_CHECK(wm_builder.ok() && fr_builder.ok());

  bench::SeriesTable table(
      "Ablation A4: SSE objective variants, cross-evaluated (n=" +
          std::to_string(n) + ")",
      "buckets",
      {"WM@WM", "FR@WM", "FR@FR", "WM@FR"});
  for (std::size_t b = 2; b <= n / 4; b *= 2) {
    Histogram h_wm = wm_builder->Extract(b);
    Histogram h_fr = fr_builder->Extract(b);
    auto wm_at_wm = EvaluateHistogramWorldMeanSse(input, h_wm);
    auto fr_at_wm = EvaluateHistogramWorldMeanSse(input, h_fr);
    auto fr_at_fr = EvaluateHistogram(input, h_fr, fixed_rep);
    auto wm_at_fr = EvaluateHistogram(input, h_wm, fixed_rep);
    PROBSYN_CHECK(wm_at_wm.ok() && fr_at_wm.ok() && fr_at_fr.ok() &&
                  wm_at_fr.ok());
    table.AddRow(b, {*wm_at_wm, *fr_at_wm, *fr_at_fr, *wm_at_fr});
  }
  table.Print();
  std::printf(
      "(WM = equation-(5) world-mean objective, FR = fixed-representative; "
      "\"X@Y\" = variant X's histogram costed under objective Y. "
      "Optimality requires WM@WM <= FR@WM and FR@FR <= WM@FR.)\n");
}

void BM_WorldMeanDP(benchmark::State& state) {
  static const TuplePdfInput input = MakeData();
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  options.sse_variant = SseVariant::kWorldMean;
  for (auto _ : state) {
    auto builder = HistogramBuilder::Create(input, options, 32);
    benchmark::DoNotOptimize(builder);
  }
}
BENCHMARK(BM_WorldMeanDP)->Unit(benchmark::kMillisecond);

void BM_FixedRepDP(benchmark::State& state) {
  static const TuplePdfInput input = MakeData();
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  options.sse_variant = SseVariant::kFixedRepresentative;
  for (auto _ : state) {
    auto builder = HistogramBuilder::Create(input, options, 32);
    benchmark::DoNotOptimize(builder);
  }
}
BENCHMARK(BM_FixedRepDP)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace probsyn

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  probsyn::RunTable();
  return 0;
}
