// The serve workload: the planner's read side. Closed-loop clients probe a
// 64-entry store through the name-keyed SynopsisServer API; one pass is a
// block of probes of one client. The traced run also re-opens the store
// several times to measure the reload side of the same layer.

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <optional>
#include <set>
#include <thread>

#include "bench.h"
#include "util/random.h"

namespace perfbench {
namespace {

using probsyn::NamedSynopsis;
using probsyn::Rng;
using probsyn::SynopsisServer;

constexpr std::size_t kDomain = std::size_t{1} << 16;
constexpr std::size_t kHistograms = 48;  // B from 32 to 4096
constexpr std::size_t kWavelets = 16;    // 64 to 1024 coefficients
constexpr std::size_t kBlock = 4096;       // probes in one pass of a client
constexpr std::size_t kSampleEvery = 1024;  // traced probes per sampled one
constexpr std::size_t kOpens = 60;          // store re-opens for serve.open_ms
constexpr double kNameSkew = 1.1;  // Zipf skew toward a few hot names

std::size_t LogSpaced(double lo, double hi, std::size_t k, std::size_t count) {
  return static_cast<std::size_t>(
      std::lround(lo * std::pow(hi / lo, static_cast<double>(k) /
                                             static_cast<double>(count - 1))));
}

// Synopses of the shapes a planner serves: histograms with random bucket
// boundaries and wavelets whose retained coefficients lean to coarse levels.
std::vector<NamedSynopsis> MakeSynopses(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<NamedSynopsis> out;
  for (std::size_t k = 0; k < kHistograms; ++k) {
    const std::size_t budget = LogSpaced(32, 4096, k, kHistograms);
    std::set<std::size_t> cuts;
    while (cuts.size() + 1 < budget) cuts.insert(1 + rng.NextBounded(kDomain - 1));
    std::vector<probsyn::HistogramBucket> buckets;
    std::size_t start = 0;
    cuts.insert(kDomain);
    for (std::size_t end : cuts) {
      buckets.push_back({start, end - 1, rng.NextUniform(0.0, 40.0)});
      start = end;
    }
    NamedSynopsis entry;
    entry.name = "hist_" + std::to_string(k) + "_B" + std::to_string(budget);
    entry.result.histogram = probsyn::Histogram(std::move(buckets));
    out.push_back(std::move(entry));
  }
  const double log_n = std::log(static_cast<double>(kDomain));
  for (std::size_t k = 0; k < kWavelets; ++k) {
    const std::size_t budget = LogSpaced(64, 1024, k, kWavelets);
    std::set<std::size_t> indices;
    while (indices.size() < budget) {
      indices.insert(static_cast<std::size_t>(std::exp(rng.NextDouble() * log_n)));
    }
    std::vector<probsyn::WaveletCoefficient> coefficients;
    for (std::size_t index : indices) {
      coefficients.push_back(
          {index, rng.NextGaussian() * 4096.0 / std::sqrt(index + 1.0)});
    }
    NamedSynopsis entry;
    entry.name = "wave_" + std::to_string(k) + "_C" + std::to_string(budget);
    entry.result.kind = probsyn::SynopsisKind::kWavelet;
    entry.result.wavelet =
        probsyn::WaveletSynopsis(kDomain, kDomain, std::move(coefficients));
    out.push_back(std::move(entry));
  }
  return out;
}

// Popularity rank -> synopsis. Fixed across seeds, so every run has the
// same mix of hot histograms and wavelets (one rank in four is a wavelet,
// as in the store); a seed-dependent order would move the qps of a run by
// which kind happened to be hottest.
std::vector<std::size_t> HotOrder() {
  std::vector<std::size_t> histograms(kHistograms), order;
  for (std::size_t k = 0; k < kHistograms; ++k) histograms[k] = k;
  Rng rng(0x407D0CE5ULL);
  for (std::size_t k = kHistograms; k > 1; --k) {
    std::swap(histograms[k - 1], histograms[rng.NextBounded(k)]);
  }
  for (std::size_t rank = 0, h = 0, w = 0; rank < kHistograms + kWavelets; ++rank) {
    order.push_back(rank % 4 == 1 ? kHistograms + w++ : histograms[h++]);
  }
  return order;
}

struct State {
  probsyn::SynopsisEngine engine;
  std::vector<NamedSynopsis> synopses;  // histograms first, then wavelets
  std::optional<SynopsisServer> server;
  std::vector<std::size_t> hot_order;   // popularity rank -> synopsis
};

// A closed-loop client: blocks of kBlock probes until the deadline, each
// block one pass. The traced run alternates traced and untraced blocks.
void RunClient(const State& state, std::uint64_t seed, Clock::time_point deadline,
               bool trace, QueryLog& log, std::vector<double> (&pass_ms)[2]) {
  ProbeSource source(state.synopses, state.hot_order, kNameSkew, seed);
  for (std::size_t block = 0; Clock::now() < deadline; ++block) {
    const bool traced = trace && block % 2 == 1;
    const auto start = Clock::now();
    RunProbes(*state.server, source, kBlock, traced, kSampleEvery, log);
    pass_ms[traced].push_back(SecondsSince(start) * 1e3);
  }
}

}  // namespace

void RunServe(const RunConfig& config, Report& report) {
  // Pin glibc's mmap threshold at its default so every re-open maps fresh
  // pages for the wavelets' frequency vectors, as a newly started server
  // does. Left dynamic, the threshold follows the seed's allocation history
  // and the re-open time moved between 4.6 and 11 ms from run to run.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const std::string store_path = config.work_dir + "/serve.synstore";
  const QuerySample sample = MakeQuerySample(kDomain, config.seed);

  // Set-up: build the synopses, store them (traced as serve.store in the
  // traced run), open the server and check it on the query sample.
  std::vector<double> setup_s;
  std::unique_ptr<State> state;
  for (int i = 0; i < kSetups; ++i) {
    state.reset();
    const auto start = Clock::now();
    SetTracing(config.trace);
    state = std::make_unique<State>();
    state->synopses = MakeSynopses(config.seed);
    {
      Span span("serve.store", i);
      const probsyn::Status stored = state->engine.Store(store_path, state->synopses);
      report.Count(stored.ok());
      if (!stored.ok()) report.Fail("store: " + stored.ToString());
      span.Attr("bytes", static_cast<double>(FileBytes(store_path)));
    }
    SetTracing(false);
    auto server = state->engine.Serve(store_path);
    report.Count(server.ok());
    if (!server.ok()) {
      report.Fail("serve: " + server.status().ToString());
      return;
    }
    state->server.emplace(std::move(*server));
    CheckServed(*state->server, state->synopses, sample, report);
    state->hot_order = HotOrder();
    setup_s.push_back(SecondsSince(start));
  }
  CalibrateMachine("serve");
  std::printf("input serve n=%zu synopses=%zu store_bytes=%llu\n", kDomain,
              state->synopses.size(),
              static_cast<unsigned long long>(FileBytes(store_path)));

  // Closed-loop clients.
  std::vector<QueryLog> logs(kQueryClients);
  std::vector<double> pass_ms[kQueryClients][2];
  SetTracing(config.trace);
  const auto deadline = After(Clock::now(), config.seconds);
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < kQueryClients; ++c) {
      clients.emplace_back(RunClient, std::cref(*state),
                           config.seed * 7919 + static_cast<std::uint64_t>(c),
                           deadline, config.trace, std::ref(logs[c]),
                           std::ref(pass_ms[c]));
    }
  }
  SetTracing(false);
  CountQueries(logs, report);
  std::vector<double> untraced_ms, traced_ms;
  std::size_t probes = 0;
  double checksum = 0.0;
  for (int c = 0; c < kQueryClients; ++c) {
    untraced_ms.insert(untraced_ms.end(), pass_ms[c][0].begin(), pass_ms[c][0].end());
    traced_ms.insert(traced_ms.end(), pass_ms[c][1].begin(), pass_ms[c][1].end());
    probes += logs[c].probes[0] + logs[c].probes[1];
    checksum += logs[c].checksum;
  }
  std::printf("samples serve probes=%zu passes=%zu untraced=%zu checksum=%.6g\n",
              probes, untraced_ms.size() + traced_ms.size(), untraced_ms.size(),
              checksum);

  if (!config.trace) {
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    report.Add("pass_p50_ms", Median(untraced_ms), "ms");
    AddQueryMetrics(logs, report);
    return;
  }

  // Re-opens of the same store: the reload side of the serving layer.
  SetTracing(true);
  for (std::size_t i = 0; i < kOpens; ++i) {
    const auto server = [&] {
      Span span("serve.open", i);
      return state->engine.Serve(store_path);
    }();
    report.Count(server.ok());
    if (!server.ok()) {
      report.Fail("re-open: " + server.status().ToString());
    } else if (i + 1 == kOpens) {
      CheckServed(*server, state->synopses, sample, report);
    }
  }
  SetTracing(false);
  AddSpanMedian(report, "serve.store", "serve.store_ms", "ms");
  report.Add("serve.store_bytes", Median(SpanAttrs("serve.store", "bytes")),
             "bytes");
  AddSpanMedian(report, "serve.open", "serve.open_ms", "ms");
  AddProbeSpanMetrics(true, report);
  report.Add("trace.overhead_pct",
             (Median(traced_ms) / Median(untraced_ms) - 1.0) * 100.0, "%");
}

}  // namespace perfbench
