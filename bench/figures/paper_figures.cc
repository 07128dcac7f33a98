// The paper's experiments as one checked run (Cormode & Garofalakis,
// "Histograms and Wavelets on Probabilistic Data", ICDE 2009, section 5):
// every series of Figures 2-4 and of ablations A1-A4 and A6-A8, with each
// claim that follows from a theorem checked on raw costs.
//
//   paper_figures          laptop scale (registered with ctest)
//   paper_figures paper    the paper's scale: Fig 2 at n = 10^4 with B up
//                          to 1000, Fig 3 at n up to 3*10^4 and B up to
//                          1000, Fig 4 at n = 2^15
//
// Prints one table per panel and one line per claim, writes
// BENCH_figures.json into the working directory, and exits 1 naming every
// claim that does not hold. A claim is a set of comparisons lhs <= rhs;
// each holds when lhs <= rhs + 1e-9 * max(|lhs|, |rhs|), a tolerance for
// rounding only. The synopses one comparison sets against each other are
// costed by the same library evaluator, so identical synopses compare
// equal bit for bit. No check reads a clock: times, oracle evaluations
// and the orderings no theorem implies are reported, not checked.
//
// The paper's MystiQ and MayBMS data are not in the repository; the
// movie-linkage and TPC-H-style generators stand in for them, at fixed
// seeds.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/baselines.h"
#include "core/dp_kernels.h"
#include "core/evaluate.h"
#include "core/histogram2d.h"
#include "core/histogram_dp.h"
#include "core/oracle_factory.h"
#include "core/point_error.h"
#include "core/sse_oracle.h"
#include "core/wavelet.h"
#include "core/wavelet_dp.h"
#include "core/wavelet_unrestricted.h"
#include "engine/synopsis_engine.h"
#include "gen/generators.h"
#include "model/induced.h"
#include "stream/streaming_histogram.h"
#include "util/math.h"
#include "util/random.h"
#include "util/timer.h"

namespace probsyn {
namespace {

constexpr double kRoundingTolerance = 1e-9;

struct Scale {
  const char* name;
  std::size_t fig2_n;
  std::size_t fig2_max_budget;
  std::vector<std::size_t> fig3a_n;  // at B = kFig3aBudget
  std::size_t fig3b_n;
  std::vector<std::size_t> fig3b_budgets;
  std::size_t a1_n;
  std::size_t a2_n;
  std::size_t a4_n;
  std::size_t a6_n;
  std::size_t a8_n;
};

const Scale kLaptop{"laptop", 512, 128,  {256, 512, 1024, 2048},
                    1024,     {25, 50, 100, 200},
                    2048,     512, 512, 1024, 4096};
const Scale kPaper{"paper", 10000, 1000, {3750, 7500, 15000, 30000},
                   10000,   {125, 250, 500, 1000},
                   10000,   4096, 4096, 8192, 32768};
constexpr std::size_t kFig3aBudget = 50;

// One claim: every comparison lhs <= rhs must hold up to rounding. Keeps
// the tightest relative margin (rhs - lhs) / max(|lhs|, |rhs|) and where it
// fell; a NaN fails.
struct Claim {
  std::string name;
  std::string statement;
  std::size_t comparisons = 0;
  double tightest = 0.0;
  std::string where = {};

  void Expect(double lhs, double rhs, const std::string& at) {
    const double scale = std::max(std::fabs(lhs), std::fabs(rhs));
    double margin = scale > 0.0 ? (rhs - lhs) / scale : 0.0;
    if (std::isnan(margin)) margin = -std::numeric_limits<double>::infinity();
    if (comparisons++ == 0 || margin < tightest) {
      tightest = margin;
      where = at;
    }
  }

  bool holds() const {
    return comparisons > 0 && tightest >= -kRoundingTolerance;
  }
};

// One panel: a row per key (budget, epsilon, ...), key first, then one
// value per column.
struct Table {
  std::string title;
  std::string key;
  std::vector<std::string> columns;
  std::vector<std::vector<double>> rows;
};

struct Run {
  const Scale& scale;
  SynopsisEngine engine;
  std::vector<Claim> claims;
  std::vector<Table> tables;
  std::vector<std::pair<std::string, double>> timings;

  void Add(Table table) {
    std::printf("\n=== %s ===\n%12s", table.title.c_str(), table.key.c_str());
    for (const std::string& c : table.columns) std::printf(" %16s", c.c_str());
    std::printf("\n");
    for (const std::vector<double>& row : table.rows) {
      std::printf("%12g", row[0]);
      for (std::size_t j = 1; j < row.size(); ++j) {
        std::printf(" %16.8g", row[j]);
      }
      std::printf("\n");
    }
    tables.push_back(std::move(table));
  }
  void Time(std::string what, double value) {
    timings.emplace_back(std::move(what), value);
  }
};

// Unwraps a result the run cannot go on without.
template <typename T>
T Must(StatusOr<T> result) {
  if (!result.ok()) {
    std::fprintf(stderr, "paper_figures: %s\n",
                 result.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(result).value();
}

std::string Label(const std::string& panel, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %s=%g", key, value);
  return panel + buf;
}

// from, 2*from, 4*from, ... below `cap`, then `cap`.
std::vector<std::size_t> Doubling(std::size_t from, std::size_t cap) {
  std::vector<std::size_t> out;
  for (std::size_t b = from; b < cap; b *= 2) out.push_back(b);
  out.push_back(cap);
  return out;
}

std::vector<SynopsisRequest> ExactRequests(
    const SynopsisOptions& options, std::span<const std::size_t> budgets) {
  std::vector<SynopsisRequest> requests(budgets.size());
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    requests[i].budget = budgets[i];
    requests[i].options = options;
  }
  return requests;
}

SynopsisOptions Options(ErrorMetric metric, double c = 1.0,
                        SseVariant variant = SseVariant::kWorldMean) {
  SynopsisOptions options;
  options.metric = metric;
  options.sanity_c = c;
  options.sse_variant = variant;
  return options;
}

TuplePdfInput MovieTuples(std::size_t n, std::uint64_t seed) {
  return Must(
      GenerateMovieLinkage({.domain_size = n, .seed = seed}).ToTuplePdf());
}

ValuePdfInput MovieValues(const MovieLinkageOptions& options) {
  return Must(InduceValuePdf(GenerateMovieLinkage(options)));
}

// --- Figure 2 (section 5.1): histogram cost against B --------------------

struct Fig2Panel {
  const char* name;
  ErrorMetric metric;
  double c;
};

constexpr Fig2Panel kFig2Panels[] = {
    {"Fig 2(a) SSRE c=0.5", ErrorMetric::kSsre, 0.5},
    {"Fig 2(b) SSRE c=1", ErrorMetric::kSsre, 1.0},
    {"Fig 2(c) SSE, equation (5)", ErrorMetric::kSse, 1.0},
    {"Fig 2(d) SARE c=0.5", ErrorMetric::kSare, 0.5},
    {"Fig 2(e) SARE c=1", ErrorMetric::kSare, 1.0},
    {"Fig 2(f) SAE", ErrorMetric::kSae, 1.0},
};

// Movie-linkage data; the probabilistic DP against the Expectation
// baseline and three Sampled worlds. The baselines are exact requests over
// the point-mass form of their frequencies, as BuildExpectationHistogram
// builds one budget. Each histogram is costed under the panel's objective;
// the error % places it between the 1-bucket and n-bucket optima.
void Fig2(Run& run) {
  const TuplePdfInput input = MovieTuples(run.scale.fig2_n, 2009);
  const ValuePdfInput induced = Must(InduceValuePdf(input));
  const std::size_t n = input.domain_size();
  const std::vector<std::size_t> budgets =
      Doubling(1, run.scale.fig2_max_budget);
  const std::vector<std::string> columns = {
      "probabilistic", "expectation", "sampled1", "sampled2", "sampled3"};
  Claim dominance{"fig2.probabilistic_le_baselines",
                  "Fig 2, all six panels: at every B the probabilistic DP's "
                  "histogram costs at most the Expectation and each Sampled "
                  "histogram under the DP's own objective (equation (5) in "
                  "panel c)"};
  Claim monotone{"fig2.probabilistic_nonincreasing_in_b",
                 "Fig 2, all six panels: the exact DP's cost does not "
                 "increase with B"};

  for (const Fig2Panel& panel : kFig2Panels) {
    const SynopsisOptions options = Options(panel.metric, panel.c);
    const std::vector<SynopsisRequest> requests =
        ExactRequests(options, budgets);
    Stopwatch watch;
    std::vector<std::vector<SynopsisResult>> built;
    built.push_back(Must(run.engine.BuildBatch(input, requests)));
    run.Time(std::string(panel.name) + ": probabilistic DP, s",
             watch.ElapsedSeconds());
    Rng rng(panel.metric == ErrorMetric::kSse ? 11 : 13);
    std::vector<std::vector<double>> baselines = {
        ExpectationFrequencies(input)};
    for (int s = 0; s < 3; ++s) {
      baselines.push_back(SampleWorldFrequencies(input, rng));
    }
    for (const std::vector<double>& frequencies : baselines) {
      built.push_back(
          Must(run.engine.BuildBatch(PointMassInput(frequencies), requests)));
    }

    const PointErrorTables tables(induced, panel.c, panel.metric, n);
    auto cost = [&](const Histogram& h) {
      return panel.metric == ErrorMetric::kSse
                 ? Must(EvaluateHistogramWorldMeanSse(input, h))
                 : EvaluateHistogram(tables, h, panel.metric);
    };
    const ErrorScale scale = ComputeErrorScale(
        *Must(MakeBucketOracle(input, options)).oracle, true);

    const std::string size = ", n=" + std::to_string(n);
    Table costs{panel.name + size + " [cost]", "B", columns, {}};
    Table percent{panel.name + size + " [error %]", "B", columns, {}};
    for (std::size_t k = 0; k < budgets.size(); ++k) {
      const std::string at = Label(panel.name, "B", budgets[k]);
      std::vector<double> row = {static_cast<double>(budgets[k])};
      std::vector<double> pct = row;
      for (const std::vector<SynopsisResult>& method : built) {
        row.push_back(cost(method[k].histogram));
        pct.push_back(scale.Percent(row.back()));
      }
      for (std::size_t m = 2; m < row.size(); ++m) {
        dominance.Expect(row[1], row[m], at + " vs " + columns[m - 1]);
      }
      if (k > 0) monotone.Expect(row[1], costs.rows.back()[1], at);
      costs.rows.push_back(std::move(row));
      percent.rows.push_back(std::move(pct));
    }
    run.Add(std::move(costs));
    run.Add(std::move(percent));
  }
  run.claims.push_back(std::move(dominance));
  run.claims.push_back(std::move(monotone));
}

// --- Figure 3 (section 5.1): exact-DP construction time -----------------

// Least-squares slope of log(y) against log(x).
double LogLogSlope(std::span<const double> x, std::span<const double> y) {
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    mx += std::log(x[i]) / static_cast<double>(x.size());
    my += std::log(y[i]) / static_cast<double>(y.size());
  }
  double sxy = 0.0, sxx = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxy += (std::log(x[i]) - mx) * (std::log(y[i]) - my);
    sxx += (std::log(x[i]) - mx) * (std::log(x[i]) - mx);
  }
  return sxx > 0.0 ? sxy / sxx : 0.0;
}

// SSRE c=0.5 through the engine, (a) against n at B = 50 and (b) against
// B. The paper reads the exponents, about 2 in n and about 1 in B; their
// least-squares fits on log-log axes are reported with the seconds.
void Fig3(Run& run) {
  SynopsisRequest request;
  request.options = Options(ErrorMetric::kSsre, 0.5);
  auto seconds = [&](const TuplePdfInput& input, std::size_t budget) {
    request.budget = budget;
    Stopwatch watch;
    Must(run.engine.Build(input, request));
    return watch.ElapsedSeconds();
  };
  auto series = [&](const std::string& title, const char* key,
                    std::span<const std::size_t> xs, auto&& measure) {
    std::printf("\n=== %s [seconds] ===\n", title.c_str());
    std::vector<double> x, y;
    for (std::size_t v : xs) {
      x.push_back(static_cast<double>(v));
      y.push_back(measure(v));
      std::printf("%12zu %16.6f\n", v, y.back());
      run.Time(Label(title, key, x.back()) + ", s", y.back());
    }
    const double slope = LogLogSlope(x, y);
    std::printf("log-log slope in %s: %.3f\n", key, slope);
    run.Time(title + ": log-log slope in " + key, slope);
  };
  series("Fig 3(a) exact DP, SSRE c=0.5, B=" + std::to_string(kFig3aBudget),
         "n", run.scale.fig3a_n, [&](std::size_t n) {
           return seconds(MovieTuples(n, 2009), kFig3aBudget);
         });
  const TuplePdfInput input = MovieTuples(run.scale.fig3b_n, 2009);
  series("Fig 3(b) exact DP, SSRE c=0.5, n=" +
             std::to_string(run.scale.fig3b_n),
         "B", run.scale.fig3b_budgets,
         [&](std::size_t budget) { return seconds(input, budget); });
}

// --- Figure 4 (section 5.2): SSE wavelets at n = 2^15 --------------------

// sum mu_i^2 over the coefficients `synopsis` does not retain.
double UnretainedEnergy(std::span<const double> mu,
                        const WaveletSynopsis& synopsis) {
  std::vector<bool> kept(mu.size(), false);
  for (const WaveletCoefficient& c : synopsis.coefficients()) {
    kept[c.index] = true;
  }
  KahanSum sum;
  for (std::size_t i = 0; i < mu.size(); ++i) {
    if (!kept[i]) sum.Add(mu[i] * mu[i]);
  }
  return sum.value();
}

// The probabilistic synopsis keeps the B largest expected coefficients
// (greedy, SSE-optimal by Theorem 7); each Sampled synopsis keeps the B
// largest coefficients of one sampled world. Quality: the expected
// coefficient energy left out.
void Fig4Panel(Run& run, const std::string& name, const TuplePdfInput& input,
               Claim& dominance, Claim& monotone) {
  const std::vector<double> mu =
      ExpectedHaarCoefficients(input.ExpectedFrequencies());
  Rng rng(99);
  std::vector<std::vector<double>> worlds;
  for (int s = 0; s < 3; ++s) worlds.push_back(SampleWorldFrequencies(input, rng));

  const std::vector<std::string> columns = {"probabilistic", "sampled1",
                                            "sampled2", "sampled3"};
  Table energy{name + " [unretained energy]", "B", columns, {}};
  Table percent{name + " [unretained energy %]", "B", columns, {}};
  for (std::size_t budget : {64u, 128u, 256u, 512u, 1024u, 2048u, 4096u}) {
    const std::string at = Label(name, "B", static_cast<double>(budget));
    Stopwatch watch;
    std::vector<WaveletSynopsis> synopses = {
        Must(BuildSseOptimalWavelet(input, budget))};
    run.Time(at + ": greedy, s", watch.ElapsedSeconds());
    for (const std::vector<double>& world : worlds) {
      synopses.push_back(BuildSseWaveletFromFrequencies(world, budget));
    }
    std::vector<double> row = {static_cast<double>(budget)};
    std::vector<double> pct = row;
    for (const WaveletSynopsis& synopsis : synopses) {
      row.push_back(UnretainedEnergy(mu, synopsis));
      pct.push_back(WaveletUnretainedEnergyPercent(mu, synopsis));
    }
    for (std::size_t m = 2; m < row.size(); ++m) {
      dominance.Expect(row[1], row[m], at + " vs " + columns[m - 1]);
    }
    if (!energy.rows.empty()) monotone.Expect(row[1], energy.rows.back()[1], at);
    energy.rows.push_back(std::move(row));
    percent.rows.push_back(std::move(pct));
  }
  run.Add(std::move(energy));
  run.Add(std::move(percent));
}

void Fig4(Run& run) {
  constexpr std::size_t kDomain = 1u << 15;
  Claim dominance{"fig4.greedy_le_sampled",
                  "Fig 4, both panels: greedy's unretained energy is at "
                  "most each Sampled world's (Theorem 7)"};
  Claim monotone{"fig4.greedy_nonincreasing_in_b",
                 "Fig 4, both panels: greedy's unretained energy does not "
                 "increase with B"};
  // Smooth segments: locally flat expected frequencies with high per-item
  // variance (MovieLinkageOptions::smooth_segments), the Figure-4 regime.
  Fig4Panel(run, "Fig 4(a) SSE wavelets, movie data, n=32768",
            Must(GenerateMovieLinkage({.domain_size = kDomain,
                                       .num_segments = 192,
                                       .smooth_segments = true,
                                       .seed = 415})
                     .ToTuplePdf()),
            dominance, monotone);
  Fig4Panel(run, "Fig 4(b) SSE wavelets, TPC-H-style data, n=32768",
            GenerateMaybmsTpch({.domain_size = kDomain,
                                .num_tuples = 4 * kDomain,
                                .max_alternatives = 4,
                                .alternative_spread = 16,
                                .zipf_alpha = 0.9,
                                .seed = 416}),
            dominance, monotone);
  run.claims.push_back(std::move(dominance));
  run.claims.push_back(std::move(monotone));
}

// --- Ablations ----------------------------------------------------------

// A1 (section 3.5, Theorem 5): the (1+eps) DP against the exact DP, SSRE
// c=0.5, B = 32, one engine batch. Oracle evaluations, the theorem's
// complexity currency, are reported.
void A1(Run& run) {
  constexpr std::size_t kBuckets = 32;
  constexpr double kEpsilons[] = {0.01, 0.05, 0.1, 0.25, 0.5, 1.0};
  const TuplePdfInput input = MovieTuples(run.scale.a1_n, 35);
  const SynopsisOptions options = Options(ErrorMetric::kSsre, 0.5);
  std::vector<SynopsisRequest> requests(1 + std::size(kEpsilons));
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].budget = kBuckets;
    requests[i].options = options;
    if (i == 0) continue;
    requests[i].method = HistogramMethod::kApprox;
    requests[i].epsilon = kEpsilons[i - 1];
  }
  const std::vector<SynopsisResult> results =
      Must(run.engine.BuildBatch(input, requests));
  auto cost = [&](const SynopsisResult& r) {
    return Must(EvaluateHistogram(input, r.histogram, options));
  };
  const double exact = cost(results[0]);
  run.Time("A1 exact DP, s", results[0].timing.solve_seconds);

  Claim claim{"a1.approx_within_1_plus_eps",
              "A1, every eps: exact <= (1+eps) DP <= (1+eps) * exact "
              "(Theorem 5)"};
  Table table{"A1 (1+eps) DP against the exact DP, SSRE c=0.5, n=" +
                  std::to_string(input.domain_size()) + ", B=32",
              "eps",
              {"approx", "exact", "ratio", "bound", "oracle_evals"},
              {}};
  for (std::size_t i = 1; i < results.size(); ++i) {
    const double eps = kEpsilons[i - 1];
    const std::string at = Label("A1", "eps", eps);
    const double approx = cost(results[i]);
    claim.Expect(exact, approx, at + " exact vs approx");
    claim.Expect(approx, (1.0 + eps) * exact, at + " approx vs bound");
    table.rows.push_back(
        {eps, approx, exact, approx / exact, 1.0 + eps,
         static_cast<double>(results[i].oracle_evaluations)});
    run.Time(at + ", s", results[i].timing.solve_seconds);
  }
  run.Add(std::move(table));
  run.claims.push_back(std::move(claim));
}

// A2 (section 3.1, tuple pdfs): the exact world-mean SSE oracle, which
// keeps the within-tuple anticorrelation, against the independent-items
// approximation over the same moments. Both DPs' histograms are costed
// under equation (5), for which the exact oracle's DP is optimal.
void A2(Run& run) {
  Claim claim{"a2.exact_oracle_le_independence",
              "A2: under equation (5) the exact tuple-SSE oracle's histogram "
              "costs at most the independence approximation's"};
  for (std::size_t spread : {2u, 16u}) {
    const std::size_t n = run.scale.a2_n;
    const TuplePdfInput input = GenerateMaybmsTpch({.domain_size = n,
                                                    .num_tuples = 8 * n,
                                                    .max_alternatives = 6,
                                                    .alternative_spread = spread,
                                                    .absent_probability = 0.2,
                                                    .zipf_alpha = 0.8,
                                                    .seed = 52});
    const std::string name = "A2 tuple SSE, alternative spread " +
                             std::to_string(spread) +
                             ", n=" + std::to_string(n);
    const SseTupleWorldMeanOracle exact_oracle(input);
    const SseMomentOracle approx_oracle =
        SseMomentOracle::FromTuplePdf(input, SseVariant::kWorldMean);
    Stopwatch watch;
    const HistogramDpResult exact_dp =
        SolveHistogramDp(exact_oracle, n / 8, DpCombiner::kSum);
    run.Time(name + ": exact-oracle DP, s", watch.ElapsedSeconds());
    const HistogramDpResult approx_dp =
        SolveHistogramDp(approx_oracle, n / 8, DpCombiner::kSum);

    Table table{name + " [equation (5) cost]", "B",
                {"exact_oracle", "independence", "gap_pct"}, {}};
    for (std::size_t b : Doubling(2, n / 8)) {
      const double exact = Must(
          EvaluateHistogramWorldMeanSse(input, exact_dp.ExtractHistogram(b)));
      const double approx = Must(
          EvaluateHistogramWorldMeanSse(input, approx_dp.ExtractHistogram(b)));
      claim.Expect(exact, approx, Label(name, "B", static_cast<double>(b)));
      table.rows.push_back({static_cast<double>(b), exact, approx,
                            exact > 0.0 ? 100.0 * (approx - exact) / exact
                                        : 0.0});
    }
    run.Add(std::move(table));
  }
  run.claims.push_back(std::move(claim));
}

// A3 (section 4.2, Theorem 8): wavelets under non-SSE metrics. The
// restricted coefficient-tree DP is optimal among synopses that keep
// expected coefficient values, and greedy (the B largest |mu|) is one of
// them. The unrestricted DP, over a 25-point value grid, is reported.
void A3(Run& run) {
  const ValuePdfInput input =
      MovieValues({.domain_size = 256, .num_segments = 16, .seed = 64});
  Claim dominance{"a3.restricted_le_greedy",
                  "A3: under SAE, SARE, MAE and MARE the restricted DP costs "
                  "at most greedy (Theorem 8)"};
  Claim monotone{"a3.restricted_nonincreasing_in_b",
                 "A3: the restricted DP's cost does not increase with B"};
  const std::pair<const char*, SynopsisOptions> objectives[] = {
      {"SAE", Options(ErrorMetric::kSae)},
      {"SARE c=0.5", Options(ErrorMetric::kSare, 0.5)},
      {"MAE", Options(ErrorMetric::kMae)},
      {"MARE c=0.5", Options(ErrorMetric::kMare, 0.5)}};
  for (const auto& [metric, options] : objectives) {
    const std::string name = std::string("A3 wavelets, ") + metric +
                             ", n=" + std::to_string(input.domain_size());
    auto cost = [&](const WaveletSynopsis& synopsis) {
      return Must(EvaluateWavelet(input, synopsis, options));
    };
    Table table{name, "B", {"greedy", "restricted", "unrestricted"}, {}};
    double restricted_seconds = 0.0;
    for (std::size_t budget : {2u, 4u, 8u, 16u, 32u}) {
      const std::string at = Label(name, "B", static_cast<double>(budget));
      const double greedy = cost(Must(BuildSseOptimalWavelet(input, budget)));
      Stopwatch watch;
      const WaveletDpResult restricted =
          Must(BuildRestrictedWaveletDp(input, budget, options));
      restricted_seconds += watch.ElapsedSeconds();
      const double dp = cost(restricted.synopsis);
      const double unrestricted =
          cost(Must(BuildUnrestrictedWaveletDp(input, budget, options,
                                               {.grid_points = 25}))
                   .synopsis);
      dominance.Expect(dp, greedy, at);
      if (!table.rows.empty()) monotone.Expect(dp, table.rows.back()[2], at);
      table.rows.push_back(
          {static_cast<double>(budget), greedy, dp, unrestricted});
    }
    run.Time(name + ": restricted DP, all B, s", restricted_seconds);
    run.Add(std::move(table));
  }
  run.claims.push_back(std::move(dominance));
  run.claims.push_back(std::move(monotone));
}

// A4 (SseVariant, core/metrics.h): the world-mean (WM, equation (5)) and
// fixed-representative (FR) readings of SSE. Each variant's optimal
// histogram is costed under both; "X@Y" is X's histogram under Y.
void A4(Run& run) {
  const TuplePdfInput input = MovieTuples(run.scale.a4_n, 77);
  const std::size_t n = input.domain_size();
  const std::vector<std::size_t> budgets = Doubling(2, n / 4);
  const SynopsisOptions world_mean = Options(ErrorMetric::kSse);
  const SynopsisOptions fixed =
      Options(ErrorMetric::kSse, 1.0, SseVariant::kFixedRepresentative);
  std::vector<SynopsisRequest> requests = ExactRequests(world_mean, budgets);
  for (const SynopsisRequest& r : ExactRequests(fixed, budgets)) {
    requests.push_back(r);
  }
  Stopwatch watch;
  const std::vector<SynopsisResult> results =
      Must(run.engine.BuildBatch(input, requests));
  run.Time("A4 WM and FR DPs, s", watch.ElapsedSeconds());

  Claim claim{"a4.each_sse_reading_optimal_under_itself",
              "A4: WM@WM <= FR@WM and FR@FR <= WM@FR"};
  const std::string name = "A4 SSE readings, n=" + std::to_string(n);
  Table table{name, "B", {"WM@WM", "FR@WM", "FR@FR", "WM@FR"}, {}};
  for (std::size_t k = 0; k < budgets.size(); ++k) {
    const Histogram& wm = results[k].histogram;
    const Histogram& fr = results[budgets.size() + k].histogram;
    const double wm_at_wm = Must(EvaluateHistogramWorldMeanSse(input, wm));
    const double fr_at_wm = Must(EvaluateHistogramWorldMeanSse(input, fr));
    const double fr_at_fr = Must(EvaluateHistogram(input, fr, fixed));
    const double wm_at_fr = Must(EvaluateHistogram(input, wm, fixed));
    const std::string at = Label(name, "B", static_cast<double>(budgets[k]));
    claim.Expect(wm_at_wm, fr_at_wm, at + " under WM");
    claim.Expect(fr_at_fr, wm_at_fr, at + " under FR");
    table.rows.push_back({static_cast<double>(budgets[k]), wm_at_wm, fr_at_wm,
                          fr_at_fr, wm_at_fr});
  }
  run.Add(std::move(table));
  run.claims.push_back(std::move(claim));
}

// A6 (concluding remarks: non-uniform query workloads): `hot_share` of the
// query mass on the central eighth of the domain. The workload-aware
// histogram and the uniform-optimal one, both costed under the weighted
// objective, SSE, B = 16.
std::vector<double> HotWorkload(std::size_t n, double hot_share) {
  std::vector<double> weights(n);
  const std::size_t hot_begin = n / 2 - n / 16, hot_end = n / 2 + n / 16;
  const double hot_items = static_cast<double>(hot_end - hot_begin);
  const double cold_items = static_cast<double>(n) - hot_items;
  for (std::size_t i = 0; i < n; ++i) {
    const bool hot = i >= hot_begin && i < hot_end;
    weights[i] = hot ? hot_share / hot_items : (1.0 - hot_share) / cold_items;
  }
  return weights;
}

void A6(Run& run) {
  const TuplePdfInput input = MovieTuples(run.scale.a6_n, 88);
  const std::size_t n = input.domain_size();
  Claim claim{"a6.workload_aware_le_uniform",
              "A6: under the weighted objective the workload-aware "
              "histogram costs at most the uniform-optimal one"};
  const std::string name =
      "A6 workload-aware histograms, SSE, n=" + std::to_string(n) + ", B=16";
  Table table{name + " [weighted cost]", "hot_share",
              {"workload_aware", "uniform_opt", "penalty_pct"}, {}};
  SynopsisRequest request;
  request.budget = 16;
  for (double hot_share : {0.125, 0.5, 0.9, 0.99}) {
    SynopsisOptions weighted =
        Options(ErrorMetric::kSse, 1.0, SseVariant::kFixedRepresentative);
    weighted.workload = HotWorkload(n, hot_share);
    request.options = weighted;
    const std::string at = Label(name, "hot_share", hot_share);
    Stopwatch watch;
    const Histogram aware = Must(run.engine.Build(input, request)).histogram;
    run.Time(at + ": workload-aware DP, s", watch.ElapsedSeconds());
    request.options.workload.clear();
    const Histogram blind = Must(run.engine.Build(input, request)).histogram;
    const double cost_aware = Must(EvaluateHistogram(input, aware, weighted));
    const double cost_blind = Must(EvaluateHistogram(input, blind, weighted));
    claim.Expect(cost_aware, cost_blind, at);
    table.rows.push_back(
        {hot_share, cost_aware, cost_blind,
         cost_aware > 0.0 ? 100.0 * (cost_blind - cost_aware) / cost_aware
                          : 0.0});
  }
  run.Add(std::move(table));
  run.claims.push_back(std::move(claim));
}

// A7 (the multi-dimensional extension of the concluding remarks): a 16x16
// uncertain grid with planted 4x4 block structure, expected SSE. The
// optimal guillotine partition against greedy best-split-first, whose
// partitions are guillotine too; a data-blind sqrt(B) x sqrt(B) tiling is
// reported beside them.
ProbGrid2D BlockGrid(std::size_t n) {
  Rng rng(606);
  std::vector<double> levels(16);
  for (double& level : levels) level = rng.NextUniform(0.0, 12.0);
  std::vector<ValuePdf> cells;
  cells.reserve(n * n);
  const std::size_t block = n / 4;
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t x = 0; x < n; ++x) {
      const double level = levels[(y / block) * 4 + (x / block)];
      cells.push_back(Must(ValuePdf::Create(
          {{std::max(0.0, level - 1.0), 0.3}, {level, 0.4}, {level + 1.0, 0.3}})));
    }
  }
  return Must(ProbGrid2D::Create(n, n, std::move(cells)));
}

void A7(Run& run) {
  const ProbGrid2D grid = BlockGrid(16);
  const SynopsisOptions sse =
      Options(ErrorMetric::kSse, 1.0, SseVariant::kFixedRepresentative);
  const RectCostOracle2D oracle = Must(RectCostOracle2D::Create(grid, sse));
  Claim claim{"a7.guillotine_le_greedy",
              "A7: the guillotine DP costs at most greedy"};
  const std::string name = "A7 2-D histograms, 16x16 grid";
  Table table{name + " [expected SSE]", "B",
              {"uniform_grid", "greedy", "guillotine"}, {}};
  for (std::size_t b : {4u, 9u, 16u, 25u}) {
    const std::string at = Label(name, "B", static_cast<double>(b));
    Stopwatch watch;
    const Histogram2DResult greedy = Must(BuildGreedyHistogram2D(grid, sse, b));
    run.Time(at + ": greedy, s", watch.ElapsedSeconds());
    watch.Restart();
    const Histogram2DResult guillotine = Must(
        BuildOptimalGuillotineHistogram2D(grid, sse, b, /*max_cells=*/4096));
    run.Time(at + ": guillotine DP, s", watch.ElapsedSeconds());
    const double greedy_cost =
        Must(EvaluateHistogram2D(grid, greedy.histogram, sse));
    const double guillotine_cost =
        Must(EvaluateHistogram2D(grid, guillotine.histogram, sse));
    claim.Expect(guillotine_cost, greedy_cost, at);

    const std::size_t side = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::sqrt(static_cast<double>(b))));
    const std::size_t w = grid.width();
    double uniform = 0.0;
    for (std::size_t by = 0; by < side; ++by) {
      for (std::size_t bx = 0; bx < side; ++bx) {
        uniform += oracle
                       .Cost({bx * w / side, by * w / side,
                              (bx + 1) * w / side - 1, (by + 1) * w / side - 1})
                       .cost;
      }
    }
    table.rows.push_back(
        {static_cast<double>(b), uniform, greedy_cost, guillotine_cost});
  }
  run.Add(std::move(table));
  run.claims.push_back(std::move(claim));
}

// A8 (section 3.5): the one-pass stream against the offline exact DP, SSE
// with fixed representatives, B = 16. Peak retained breakpoints, the
// stream's memory, are reported.
void A8(Run& run) {
  constexpr std::size_t kBuckets = 16;
  const ValuePdfInput input =
      MovieValues({.domain_size = run.scale.a8_n, .seed = 91});
  const SynopsisOptions options =
      Options(ErrorMetric::kSse, 1.0, SseVariant::kFixedRepresentative);
  SynopsisRequest request;
  request.budget = kBuckets;
  request.options = options;
  const double exact = Must(EvaluateHistogram(
      input, Must(run.engine.Build(input, request)).histogram, options));

  Claim claim{"a8.stream_within_1_plus_eps",
              "A8, every eps: exact <= stream <= (1+eps) * exact "
              "(Theorem 5)"};
  Table table{"A8 one-pass stream against the exact DP, SSE, n=" +
                  std::to_string(input.domain_size()) + ", B=16",
              "eps",
              {"stream", "exact", "ratio", "bound", "peak_breakpoints"},
              {}};
  for (double eps : {0.05, 0.1, 0.25, 0.5, 1.0}) {
    const std::string at = Label("A8", "eps", eps);
    Stopwatch watch;
    StreamingHistogramBuilder builder(kBuckets, eps);
    builder.PushBatch(input.items());
    const StreamingHistogramBuilder::Result result = Must(builder.Finish());
    run.Time(at + ": stream, s", watch.ElapsedSeconds());
    const double stream =
        Must(EvaluateHistogram(input, result.histogram, options));
    claim.Expect(exact, stream, at + " exact vs stream");
    claim.Expect(stream, (1.0 + eps) * exact, at + " stream vs bound");
    table.rows.push_back({eps, stream, exact, stream / exact, 1.0 + eps,
                          static_cast<double>(result.peak_breakpoints)});
  }
  run.Add(std::move(table));
  run.claims.push_back(std::move(claim));
}

// --- BENCH_figures.json --------------------------------------------------

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

std::string Str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

template <typename T, typename Format>
std::string List(const std::vector<T>& values, Format format) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + format(values[i]);
  }
  return out + "]";
}

// Everything a clock produced sits under "timings"; with "machine" left
// out, the rest is the same bytes on every SIMD path and lane count.
std::string Json(const Run& run) {
  std::string out = "{\n  \"scale\": " + Str(run.scale.name) + ",\n";
  out += "  \"machine\": {\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"lanes\": " + std::to_string(run.engine.parallelism()) +
         ", \"simd\": " + Str(SimdPathName(ActiveSimdPath())) +
         ", \"compiler\": " + Str(PROBSYN_COMPILER) +
         ", \"build_type\": " + Str(PROBSYN_BUILD_TYPE) + "},\n";
  out += "  \"checks\": [";
  for (std::size_t i = 0; i < run.claims.size(); ++i) {
    const Claim& c = run.claims[i];
    out += std::string(i ? "," : "") + "\n    {\"name\": " + Str(c.name) +
           ", \"holds\": " + (c.holds() ? "true" : "false") +
           ", \"comparisons\": " + std::to_string(c.comparisons) +
           ", \"tightest_margin\": " + Num(c.tightest) +
           ", \"at\": " + Str(c.where) +
           ",\n     \"claim\": " + Str(c.statement) + "}";
  }
  out += "\n  ],\n  \"tables\": [";
  for (std::size_t i = 0; i < run.tables.size(); ++i) {
    const Table& t = run.tables[i];
    out += std::string(i ? "," : "") + "\n    {\"title\": " + Str(t.title) +
           ", \"key\": " + Str(t.key) +
           ",\n     \"columns\": " + List(t.columns, Str) +
           ",\n     \"rows\": [";
    for (std::size_t r = 0; r < t.rows.size(); ++r) {
      out += std::string(r ? "," : "") + "\n       " + List(t.rows[r], Num);
    }
    out += "]}";
  }
  out += "\n  ],\n  \"timings\": {";
  for (std::size_t i = 0; i < run.timings.size(); ++i) {
    out += std::string(i ? "," : "") + "\n    " +
           Str(run.timings[i].first) + ": " + Num(run.timings[i].second);
  }
  return out + "\n  }\n}\n";
}

int Main(const Scale& scale) {
  Stopwatch total;
  Run run{scale, SynopsisEngine(), {}, {}, {}};
  Fig2(run);
  Fig3(run);
  Fig4(run);
  A1(run);
  A2(run);
  A3(run);
  A4(run);
  A6(run);
  A7(run);
  A8(run);
  run.Time("total, s", total.ElapsedSeconds());

  std::printf("\n=== Checks (%s scale, %zu lanes, simd=%s, %.1f s) ===\n",
              scale.name, run.engine.parallelism(),
              SimdPathName(ActiveSimdPath()), run.timings.back().second);
  std::string failed;
  for (const Claim& c : run.claims) {
    std::printf("%-42s %-6s %4zu comparisons, tightest margin %.3g at %s\n",
                c.name.c_str(), c.holds() ? "holds" : "FAILS",
                c.comparisons, c.tightest, c.where.c_str());
    if (!c.holds()) failed += " " + c.name;
  }
  const std::string json = Json(run);
  std::FILE* file = std::fopen("BENCH_figures.json", "w");
  bool written = file != nullptr &&
                 std::fwrite(json.data(), 1, json.size(), file) == json.size();
  if (file != nullptr && std::fclose(file) != 0) written = false;
  if (!written) {
    std::fprintf(stderr, "paper_figures: cannot write BENCH_figures.json\n");
    return 2;
  }
  if (!failed.empty()) {
    std::fprintf(stderr, "paper_figures: claims that do not hold:%s\n",
                 failed.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace probsyn

int main(int argc, char** argv) {
  const std::string scale = argc > 1 ? argv[1] : "laptop";
  if (argc > 2 || (scale != "laptop" && scale != "paper")) {
    std::fprintf(stderr, "usage: paper_figures [laptop|paper]\n");
    return 2;
  }
  return probsyn::Main(scale == "paper" ? probsyn::kPaper : probsyn::kLaptop);
}
