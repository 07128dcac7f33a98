// Figure 2 (paper section 5.1): histogram quality on movie-linkage data.
//
// Six panels — error% vs bucket budget for three methods:
//   (a) SSRE c=0.5   (b) SSRE c=1.0   (c) SSE (equation-(5) objective)
//   (d) SARE c=0.5   (e) SARE c=1.0   (f) SAE
// Methods: Probabilistic (this paper's DP), Expectation baseline, and
// three independently Sampled Worlds (the paper plots three samples to
// show their low variance).
//
// Expected shape (paper): Probabilistic <= Expectation <= Sampled, with
// the Expectation gap large for relative-error metrics at small c and
// nearly closed for SSE/SAE; Probabilistic error% decreases smoothly
// toward 0 as B grows.
//
// Default n = 512 (PROBSYN_BENCH_FULL=1 -> n = 4096); the paper used
// n = 10^4 with B up to 1000 on 2008 hardware (~20 min per panel).

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/baselines.h"
#include "core/builders.h"
#include "core/evaluate.h"
#include "core/point_error.h"
#include "gen/generators.h"
#include "model/induced.h"
#include "util/logging.h"

namespace probsyn {
namespace {

struct Panel {
  const char* name;
  ErrorMetric metric;
  double c;
};

const Panel kPanels[] = {
    {"Fig 2(a) sum-squared-relative error, c=0.5", ErrorMetric::kSsre, 0.5},
    {"Fig 2(b) sum-squared-relative error, c=1.0", ErrorMetric::kSsre, 1.0},
    {"Fig 2(c) sum-squared error", ErrorMetric::kSse, 1.0},
    {"Fig 2(d) sum-of-relative-errors, c=0.5", ErrorMetric::kSare, 0.5},
    {"Fig 2(e) sum-of-relative-errors, c=1.0", ErrorMetric::kSare, 1.0},
    {"Fig 2(f) sum-of-absolute-errors", ErrorMetric::kSae, 1.0},
};

TuplePdfInput MakeData() {
  std::size_t n = bench::Scaled(512, 4096);
  BasicModelInput basic = GenerateMovieLinkage({.domain_size = n, .seed = 2009});
  auto tuple_pdf = basic.ToTuplePdf();
  PROBSYN_CHECK(tuple_pdf.ok());
  return std::move(tuple_pdf).value();
}

std::vector<std::size_t> Budgets(std::size_t n) {
  std::vector<std::size_t> budgets;
  for (std::size_t b = 1; b <= n / 4; b *= 2) budgets.push_back(b);
  return budgets;
}

// Evaluates a concrete histogram under the panel's true objective.
double TrueCost(const TuplePdfInput& input, const PointErrorTables& tables,
                const Panel& panel, const Histogram& h) {
  if (panel.metric == ErrorMetric::kSse) {
    // Panel (c) uses the paper's equation-(5) objective, which scores
    // bucket boundaries against per-world means (exact tuple-pdf form).
    auto cost = EvaluateHistogramWorldMeanSse(input, h);
    PROBSYN_CHECK(cost.ok());
    return *cost;
  }
  return EvaluateHistogram(tables, h, panel.metric);
}

void RunPanel(const TuplePdfInput& input, const ValuePdfInput& induced,
              const Panel& panel) {
  SynopsisOptions options;
  options.metric = panel.metric;
  options.sanity_c = panel.c;
  options.sse_variant = SseVariant::kWorldMean;

  const std::size_t n = input.domain_size();
  const std::size_t max_buckets = n / 4;

  auto prob = HistogramBuilder::Create(input, options, max_buckets);
  PROBSYN_CHECK(prob.ok());
  ErrorScale scale = ComputeErrorScale(prob->oracle(), true);

  auto expectation = HistogramBuilder::CreateDeterministic(
      ExpectationFrequencies(input), options, max_buckets);
  PROBSYN_CHECK(expectation.ok());

  Rng rng(panel.metric == ErrorMetric::kSse ? 11 : 13);
  std::vector<HistogramBuilder> sampled;
  for (int s = 0; s < 3; ++s) {
    auto b = HistogramBuilder::CreateDeterministic(
        SampleWorldFrequencies(input, rng), options, max_buckets);
    PROBSYN_CHECK(b.ok());
    sampled.push_back(std::move(b).value());
  }

  PointErrorTables tables(induced, panel.c, panel.metric,
                          induced.domain_size());
  bench::SeriesTable table(
      std::string(panel.name) + "  [error % vs buckets, n=" +
          std::to_string(n) + "]",
      "buckets",
      {"Probabilistic", "Expectation", "Sampled#1", "Sampled#2", "Sampled#3"});

  for (std::size_t b : Budgets(n)) {
    std::vector<double> row;
    row.push_back(scale.Percent(prob->OptimalCost(b)));
    row.push_back(
        scale.Percent(TrueCost(input, tables, panel, expectation->Extract(b))));
    for (const HistogramBuilder& s : sampled) {
      row.push_back(
          scale.Percent(TrueCost(input, tables, panel, s.Extract(b))));
    }
    table.AddRow(b, row);
  }
  table.Print();
}

// Construction-time microbenchmark: the probabilistic DP for one panel.
void BM_Fig2_ProbabilisticDP(benchmark::State& state) {
  static const TuplePdfInput input = MakeData();
  SynopsisOptions options;
  options.metric = ErrorMetric::kSsre;
  options.sanity_c = 0.5;
  std::size_t buckets = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto builder = HistogramBuilder::Create(input, options, buckets);
    benchmark::DoNotOptimize(builder);
  }
  state.counters["n"] = static_cast<double>(input.domain_size());
}
BENCHMARK(BM_Fig2_ProbabilisticDP)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace probsyn

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  probsyn::TuplePdfInput input = probsyn::MakeData();
  auto induced = probsyn::InduceValuePdf(input);
  PROBSYN_CHECK(induced.ok());
  for (const probsyn::Panel& panel : probsyn::kPanels) {
    probsyn::RunPanel(input, induced.value(), panel);
  }
  return 0;
}
