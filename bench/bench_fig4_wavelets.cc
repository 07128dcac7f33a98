// Figure 4 (paper section 5.2): wavelet synopsis quality under expected
// SSE, real-like and synthetic data at n = 2^15.
//
//   (a) movie-linkage (MystiQ stand-in) data
//   (b) MayBMS/TPC-H-style synthetic tuple-pdf data
//
// Quality measure (paper): percentage of expected-coefficient energy
// sum mu_i^2 NOT captured by the B retained coefficients. The
// Probabilistic method (keep B largest |mu|) is provably optimal; the
// Sample baseline keeps the B largest coefficients of one sampled world.
// Expected shape: Probabilistic well below Sample at every B, both
// decreasing in B. Construction is a single O(n)-ish transform — "much
// less than a second" in the paper — which the registered benchmarks time.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/baselines.h"
#include "core/evaluate.h"
#include "core/wavelet.h"
#include "gen/generators.h"
#include "util/logging.h"

namespace probsyn {
namespace {

constexpr std::size_t kDomain = 1u << 15;  // the paper's n = 2^15

TuplePdfInput MovieData() {
  // Smooth-segment regime: expected frequencies locally flat, per-item
  // variance high — see MovieLinkageOptions::smooth_segments for why this
  // is the Figure-4 regime.
  BasicModelInput basic = GenerateMovieLinkage({.domain_size = kDomain,
                                                .num_segments = 192,
                                                .smooth_segments = true,
                                                .seed = 415});
  auto tuple_pdf = basic.ToTuplePdf();
  PROBSYN_CHECK(tuple_pdf.ok());
  return std::move(tuple_pdf).value();
}

TuplePdfInput SyntheticData() {
  return GenerateMaybmsTpch({.domain_size = kDomain,
                             .num_tuples = 4 * kDomain,
                             .max_alternatives = 4,
                             .alternative_spread = 16,
                             .zipf_alpha = 0.9,
                             .seed = 416});
}

void RunPanel(const char* title, const TuplePdfInput& input) {
  std::vector<double> mu = ExpectedHaarCoefficients(input.ExpectedFrequencies());
  bench::SeriesTable table(
      std::string(title) + "  [unretained expected energy % vs coefficients]",
      "coeffs", {"Probabilistic", "Sampled#1", "Sampled#2", "Sampled#3"});

  Rng rng(99);
  std::vector<std::vector<double>> sampled_worlds;
  for (int s = 0; s < 3; ++s) {
    sampled_worlds.push_back(SampleWorldFrequencies(input, rng));
  }

  for (std::size_t budget : {64u, 128u, 256u, 512u, 1024u, 2048u, 4096u}) {
    std::vector<double> row;
    auto prob = BuildSseOptimalWavelet(input, budget);
    PROBSYN_CHECK(prob.ok());
    row.push_back(WaveletUnretainedEnergyPercent(mu, prob.value()));
    for (const auto& world : sampled_worlds) {
      WaveletSynopsis sampled = BuildSseWaveletFromFrequencies(world, budget);
      row.push_back(WaveletUnretainedEnergyPercent(mu, sampled));
    }
    table.AddRow(budget, row);
  }
  table.Print();
}

void BM_Fig4_BuildProbabilisticWavelet(benchmark::State& state) {
  static const TuplePdfInput input = MovieData();
  std::size_t budget = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto synopsis = BuildSseOptimalWavelet(input, budget);
    benchmark::DoNotOptimize(synopsis);
  }
  state.counters["n"] = static_cast<double>(kDomain);
}
BENCHMARK(BM_Fig4_BuildProbabilisticWavelet)
    ->Arg(256)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace probsyn

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  probsyn::RunPanel("Fig 4(a) SSE wavelets, movie data (n=2^15)",
                    probsyn::MovieData());
  probsyn::RunPanel("Fig 4(b) SSE wavelets, synthetic data (n=2^15)",
                    probsyn::SyntheticData());
  return 0;
}
