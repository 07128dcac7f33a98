// The query load every workload runs against the store it serves: closed-
// loop probes through the name-keyed SynopsisServer API, each timed, with
// one probe in 1024 checked against the construction side.

#include <algorithm>
#include <cmath>
#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

using probsyn::NamedSynopsis;
using probsyn::SynopsisServer;

constexpr std::size_t kCheckEvery = 1024;  // probes between answer checks
// Latency histogram: 1 ns bins; slower probes are kept exactly.
constexpr std::size_t kLatencyBins = std::size_t{1} << 16;

std::size_t DomainSize(const NamedSynopsis& entry) {
  return entry.result.kind == probsyn::SynopsisKind::kHistogram
             ? entry.result.histogram.domain_size()
             : entry.result.wavelet.domain_size();
}

// Runs one probe; returns the sum of its answers. `sampled` records a span
// per call.
double RunProbe(const SynopsisServer& server, const Probe& probe, bool sampled,
                std::uint64_t id, QueryLog& log) {
  const std::string& name = probe.synopsis->name;
  double sum = 0.0;
  switch (probe.kind) {
    case ProbeKind::kPoint:
      for (std::size_t i : probe.points) {
        Span span("serve.point", id, sampled);
        const auto value = server.PointEstimate(name, i);
        log.failed += !value.ok();
        sum += value.ok() ? *value : 0.0;
      }
      log.calls += kPointsPerProbe;
      break;
    case ProbeKind::kRange: {
      Span span("serve.range", id, sampled);
      const auto value = server.RangeSum(name, probe.a, probe.b);
      log.failed += !value.ok();
      sum = value.ok() ? *value : 0.0;
      ++log.calls;
      break;
    }
    case ProbeKind::kTopK: {
      Span span("serve.topk", id, sampled);
      const auto top = server.TopCoefficients(name, kTopK);
      log.failed += !top.ok();
      if (top.ok() && !top->empty()) sum = top->front().value;
      ++log.calls;
      break;
    }
  }
  return sum;
}

// The probe's own positions and range, as a query sample.
QuerySample ProbeSample(const Probe& probe) {
  QuerySample sample;
  if (probe.kind == ProbeKind::kPoint) {
    sample.points.assign(std::begin(probe.points), std::end(probe.points));
  } else if (probe.kind == ProbeKind::kRange) {
    sample.ranges = {{probe.a, probe.b}};
  }
  return sample;
}

}  // namespace

ProbeSource::ProbeSource(std::span<const NamedSynopsis> synopses,
                         std::vector<std::size_t> popularity, double skew,
                         std::uint64_t seed)
    : synopses_(synopses),
      popularity_(std::move(popularity)),
      rng_(seed),
      names_(popularity_.size(), skew) {
  for (std::size_t index : popularity_) {
    if (synopses_[index].result.kind == probsyn::SynopsisKind::kWavelet) {
      wavelets_.push_back(index);
    }
  }
  if (!wavelets_.empty()) wavelet_names_.emplace(wavelets_.size(), skew);
}

Probe ProbeSource::Next() {
  Probe probe;
  const double u = rng_.NextDouble();
  if (u >= 0.95 && wavelet_names_) {
    probe.kind = ProbeKind::kTopK;
    probe.synopsis = &synopses_[wavelets_[wavelet_names_->Sample(rng_) - 1]];
    return probe;
  }
  probe.synopsis = &synopses_[popularity_[names_.Sample(rng_) - 1]];
  const std::size_t n = DomainSize(*probe.synopsis);
  if (u < 0.70) {
    for (std::size_t& i : probe.points) i = rng_.NextBounded(n);
    return probe;
  }
  probe.kind = ProbeKind::kRange;
  const auto width = std::min<std::size_t>(
      n, static_cast<std::size_t>(
             std::exp(rng_.NextDouble() * std::log(static_cast<double>(n)))));
  probe.a = rng_.NextBounded(n - width + 1);
  probe.b = probe.a + width - 1;
  return probe;
}

QueryLog::QueryLog()
    : bins{std::vector<std::uint64_t>(kLatencyBins),
           std::vector<std::uint64_t>(kLatencyBins)} {}

void RunProbes(const SynopsisServer& server, ProbeSource& source,
               std::size_t count, bool traced, std::size_t sample_every,
               QueryLog& log) {
  const auto begin = Clock::now();
  for (std::size_t k = 0; k < count; ++k) {
    const Probe probe = source.Next();
    const std::uint64_t id = log.probes[0] + log.probes[1];
    const bool sampled = traced && id % sample_every == 0;
    const auto start = Clock::now();
    log.checksum += RunProbe(server, probe, sampled, id, log);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - start)
                        .count();
    if (static_cast<std::size_t>(ns) < kLatencyBins) {
      ++log.bins[traced][ns];
    } else {
      log.slow_ns[traced].push_back(static_cast<double>(ns));
    }
    ++log.probes[traced];
    if (id % kCheckEvery == 0) {
      Report check;
      CheckServed(server, std::span<const NamedSynopsis>(probe.synopsis, 1),
                  ProbeSample(probe), check);
      log.mismatches += !check.correct();
    }
  }
  log.seconds[traced] += SecondsSince(begin);
}

void RunClients(const SynopsisServer& server, std::span<ProbeSource> sources,
                std::size_t count, bool traced, std::size_t sample_every,
                std::span<QueryLog> logs) {
  std::vector<std::jthread> clients;
  for (std::size_t c = 0; c < logs.size(); ++c) {
    clients.emplace_back([&, c] {
      RunProbes(server, sources[c], count, traced, sample_every, logs[c]);
    });
  }
}

double LatencyUs(std::span<const QueryLog> logs, bool traced, double q) {
  std::vector<std::uint64_t> bins(kLatencyBins, 0);
  std::vector<double> slow;
  std::uint64_t total = 0;
  for (const QueryLog& log : logs) {
    for (std::size_t i = 0; i < kLatencyBins; ++i) bins[i] += log.bins[traced][i];
    slow.insert(slow.end(), log.slow_ns[traced].begin(), log.slow_ns[traced].end());
  }
  for (std::uint64_t count : bins) total += count;
  total += slow.size();
  if (total == 0) return std::nan("");
  // The quantile's rank, placed linearly within its 1 ns bin.
  const double rank = q * static_cast<double>(total - 1);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kLatencyBins; ++i) {
    if (static_cast<double>(seen + bins[i]) > rank) {
      const double within =
          (rank - static_cast<double>(seen)) / static_cast<double>(bins[i]);
      return (static_cast<double>(i) + within) * 1e-3;
    }
    seen += bins[i];
  }
  std::sort(slow.begin(), slow.end());
  return slow[static_cast<std::size_t>(rank) - seen] * 1e-3;
}

void CountQueries(std::span<const QueryLog> logs, Report& report) {
  for (const QueryLog& log : logs) {
    report.Count(true, log.calls - log.failed);
    report.Count(false, log.failed);
    if (log.mismatches != 0) {
      report.Fail(std::to_string(log.mismatches) +
                  " checked probes differ from the construction side");
    }
  }
}

void AddQueryMetrics(std::span<const QueryLog> logs, Report& report) {
  double qps = 0.0;
  for (const QueryLog& log : logs) {
    qps += static_cast<double>(log.probes[0]) / log.seconds[0];
  }
  report.Add("query_qps", qps, "probes/s");
  report.Add("query_p50_us", LatencyUs(logs, false, 0.50), "us");
  report.Add("query_p99_us", LatencyUs(logs, false, 0.99), "us");
}

void AddProbeSpanMetrics(bool has_wavelets, Report& report) {
  AddSpanMedian(report, "serve.point", "serve.point_ns", "ns", 1e6);
  AddSpanMedian(report, "serve.range", "serve.range_ns", "ns", 1e6);
  if (has_wavelets) AddSpanMedian(report, "serve.topk", "serve.topk_ns", "ns", 1e6);
}

}  // namespace perfbench
