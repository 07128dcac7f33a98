#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <mutex>

#include "bench.h"
#include "util/random.h"

namespace perfbench {

using probsyn::NamedSynopsis;
using probsyn::SynopsisKind;
using probsyn::SynopsisServer;
using probsyn::WaveletCoefficient;

// ---------------------------------------------------------------------------
// Report.

void Report::Count(bool ok, std::size_t calls) {
  attempted_ += calls;
  if (!ok) failed_ += calls;
}

void Report::Fail(const std::string& why) {
  // Failures are listed on stderr so the result stays the last stdout line.
  if (++failures_ <= 20) std::fprintf(stderr, "check failed: %s\n", why.c_str());
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail(name + " is not finite");
    value = -1.0;
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::Print(bool trace) {
  // The catalogue's metrics, in its order, go into the JSON result.
  const std::span<const MetricSpec> catalogue =
      trace ? std::span<const MetricSpec>(kPerLayerMetrics)
            : std::span<const MetricSpec>(kEndToEndMetrics);
  std::vector<std::pair<const char*, double>> result;
  for (const MetricSpec& spec : catalogue) {
    const auto measured =
        std::find_if(metrics_.begin(), metrics_.end(),
                     [&](const auto& metric) { return metric.first == spec.name; });
    if (measured == metrics_.end()) {
      if (!trace) Fail(std::string(spec.name) + " was not measured");
      std::printf("metric %-40s %14d %s (not run by this workload)\n",
                  spec.name, 0, spec.unit);
      result.emplace_back(spec.name, 0.0);
      continue;
    }
    if (measured->second.second != spec.unit) {
      Fail(std::string(spec.name) + " measured in " + measured->second.second +
           ", listed in " + spec.unit);
    }
    result.emplace_back(spec.name, measured->second.first);
  }
  for (const auto& [name, metric] : metrics_) {
    std::printf("metric %-40s %14.6g %s\n", name.c_str(), metric.first,
                metric.second.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  char buffer[64];
  for (std::size_t i = 0; i < result.size(); ++i) {
    std::snprintf(buffer, sizeof(buffer), "%.17g", result[i].second);
    json += (i ? ", \"" : "\"") + std::string(result[i].first) +
            "\": {\"value\": " + buffer + ", \"unit\": \"" +
            catalogue[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Tracing.

namespace {

struct SpanRecord {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;
  std::uint64_t id;
  std::vector<std::pair<std::string, double>> attrs;
};

struct SpanLog {
  std::vector<SpanRecord> spans;
  std::vector<std::int32_t> open;  // indices of the open spans, innermost last
};

std::atomic<bool> g_tracing{false};
std::mutex g_logs_mutex;
std::vector<std::unique_ptr<SpanLog>> g_logs;  // guarded by g_logs_mutex

SpanLog& ThreadLog() {
  thread_local SpanLog* log = nullptr;
  if (log == nullptr) {
    std::lock_guard<std::mutex> lock(g_logs_mutex);
    g_logs.push_back(std::make_unique<SpanLog>());
    log = g_logs.back().get();
  }
  return *log;
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Calls fn(span, self_ns) for every span of every log. Called after the
// recording threads have joined.
template <typename Fn>
void ForEachSpan(Fn fn) {
  std::lock_guard<std::mutex> lock(g_logs_mutex);
  for (const auto& log : g_logs) {
    std::vector<std::int64_t> child_ns(log->spans.size(), 0);
    for (const SpanRecord& span : log->spans) {
      if (span.parent >= 0) child_ns[span.parent] += span.end_ns - span.start_ns;
    }
    for (std::size_t i = 0; i < log->spans.size(); ++i) {
      const SpanRecord& span = log->spans[i];
      fn(span, span.end_ns - span.start_ns - child_ns[i]);
    }
  }
}

}  // namespace

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

Span::Span(const char* name, std::uint64_t id, bool record) {
  if (!record || !g_tracing.load(std::memory_order_relaxed)) return;
  SpanLog& log = ThreadLog();
  index_ = static_cast<std::int32_t>(log.spans.size());
  const std::int32_t parent = log.open.empty() ? -1 : log.open.back();
  log.spans.push_back({name, NowNs(), 0, parent, id, {}});
  log.open.push_back(index_);
}

Span::~Span() {
  if (index_ < 0) return;
  SpanLog& log = ThreadLog();
  log.spans[index_].end_ns = NowNs();
  log.open.pop_back();
}

void Span::Attr(const std::string& key, double value) {
  if (index_ >= 0) ThreadLog().spans[index_].attrs.emplace_back(key, value);
}

std::vector<double> SpanSelfMs(const char* name) {
  std::vector<double> out;
  ForEachSpan([&](const SpanRecord& span, std::int64_t self_ns) {
    if (std::strcmp(span.name, name) == 0) out.push_back(self_ns * 1e-6);
  });
  return out;
}

std::vector<double> SpanAttrs(const char* name, const std::string& key) {
  std::vector<double> out;
  ForEachSpan([&](const SpanRecord& span, std::int64_t) {
    if (std::strcmp(span.name, name) != 0) return;
    for (const auto& [k, v] : span.attrs) {
      if (k == key) out.push_back(v);
    }
  });
  return out;
}

bool WriteTrace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  bool first = true;
  std::lock_guard<std::mutex> lock(g_logs_mutex);
  for (std::size_t thread = 0; thread < g_logs.size(); ++thread) {
    for (const SpanRecord& span : g_logs[thread]->spans) {
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"thread\": %zu, \"id\": %llu, "
                   "\"parent\": %d, \"start_ns\": %lld, \"end_ns\": %lld",
                   first ? "" : ",\n", span.name, thread,
                   static_cast<unsigned long long>(span.id), span.parent,
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns));
      for (const auto& [key, value] : span.attrs) {
        std::fprintf(f, ", \"%s\": %.17g", key.c_str(), value);
      }
      std::fprintf(f, "}");
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Statistics and process measurements.

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  const auto index = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1));
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t FileBytes(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size)
                                        : 0;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// ---------------------------------------------------------------------------
// Output checks.

namespace {

std::string Hex(double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%a", v);
  return buffer;
}

}  // namespace

QuerySample MakeQuerySample(std::size_t domain_size, std::uint64_t seed) {
  probsyn::Rng rng(seed ^ 0x51ED270B7A3C95E1ULL);
  QuerySample sample;
  sample.points = {0, domain_size - 1};
  for (int i = 0; i < 64; ++i) sample.points.push_back(rng.NextBounded(domain_size));
  sample.ranges = {{0, domain_size - 1}};
  const double log_n = std::log(static_cast<double>(domain_size));
  for (int i = 0; i < 32; ++i) {
    const auto width = std::min<std::size_t>(
        domain_size,
        static_cast<std::size_t>(std::exp(rng.NextDouble() * log_n)) + 1);
    const std::size_t a = rng.NextBounded(domain_size - width + 1);
    sample.ranges.emplace_back(a, a + width - 1);
  }
  return sample;
}

std::vector<WaveletCoefficient> RankCoefficients(
    const probsyn::WaveletSynopsis& wavelet, std::size_t k) {
  std::vector<WaveletCoefficient> ranked = wavelet.coefficients();
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const WaveletCoefficient& a, const WaveletCoefficient& b) {
                     return std::fabs(a.value) > std::fabs(b.value);
                   });
  ranked.resize(std::min(k, ranked.size()));
  return ranked;
}

void CheckServed(const SynopsisServer& server, std::span<const NamedSynopsis> built,
                 const QuerySample& sample, Report& report) {
  for (const NamedSynopsis& entry : built) {
    const bool is_histogram = entry.result.kind == SynopsisKind::kHistogram;
    const auto& histogram = entry.result.histogram;
    const auto& wavelet = entry.result.wavelet;
    for (std::size_t i : sample.points) {
      const auto served = server.PointEstimate(entry.name, i);
      report.Count(served.ok());
      const double want =
          is_histogram ? histogram.Estimate(i) : wavelet.Estimate(i);
      if (!served.ok() || !SameBits(*served, want)) {
        report.Fail(entry.name + " point " + std::to_string(i) + ": served " +
                    (served.ok() ? Hex(*served) : served.status().ToString()) +
                    ", built " + Hex(want));
      }
    }
    for (const auto& [a, b] : sample.ranges) {
      const auto served = server.RangeSum(entry.name, a, b);
      report.Count(served.ok());
      const double want = is_histogram ? histogram.EstimateRangeSum(a, b)
                                       : wavelet.EstimateRangeSum(a, b);
      if (!served.ok() || !SameBits(*served, want)) {
        report.Fail(entry.name + " range [" + std::to_string(a) + ", " +
                    std::to_string(b) + "]: served " +
                    (served.ok() ? Hex(*served) : served.status().ToString()) +
                    ", built " + Hex(want));
      }
    }
    if (!is_histogram) {
      const auto served = server.TopCoefficients(entry.name, 16);
      report.Count(served.ok());
      if (!served.ok() || *served != RankCoefficients(wavelet, 16)) {
        report.Fail(entry.name + " top-16 coefficients differ");
      }
    }
  }
}

void CheckRecordedCosts(std::span<const NamedSynopsis> built,
                        std::span<const double> recorded, Report& report) {
  for (std::size_t i = 0; i < built.size(); ++i) {
    if (!SameBits(built[i].result.cost, recorded[i])) {
      report.Fail(built[i].name + " cost " + Hex(built[i].result.cost) +
                  ", recorded " + Hex(recorded[i]));
    }
  }
}

void CheckCostsWithin(std::span<const NamedSynopsis> built,
                      std::span<const double> recorded, Report& report) {
  for (std::size_t i = 0; i < built.size(); ++i) {
    if (!(built[i].result.cost <= recorded[i] * (1.0 + kCostTolerance))) {
      report.Fail(built[i].name + " cost " + Hex(built[i].result.cost) +
                  " is more than " + std::to_string(kCostTolerance) +
                  " above the recorded " + Hex(recorded[i]));
    }
  }
}

void CheckSameResults(std::span<const NamedSynopsis> built,
                      std::span<const NamedSynopsis> reference, Report& report) {
  for (std::size_t i = 0; i < built.size(); ++i) {
    const auto& got = built[i].result;
    const auto& want = reference[i].result;
    if (built[i].name != reference[i].name || got.histogram != want.histogram ||
        got.wavelet != want.wavelet || !SameBits(got.cost, want.cost)) {
      report.Fail(built[i].name + " differs from the set-up build");
    }
  }
}

void CheckStreamResult(const probsyn::StreamingHistogramBuilder::Result& got,
                       const probsyn::StreamingHistogramBuilder::Result& want,
                       std::size_t stream, Report& report) {
  if (got.histogram != want.histogram || !SameBits(got.cost, want.cost)) {
    report.Fail("stream " + std::to_string(stream) + " cost " + Hex(got.cost) +
                " differs from the single-builder replay " + Hex(want.cost));
  }
}

// ---------------------------------------------------------------------------
// Helpers the workloads share.

void AddSpanMedian(Report& report, const char* span, const std::string& name,
                   const std::string& unit, double scale) {
  const std::vector<double> ms = SpanSelfMs(span);
  if (ms.empty()) {
    report.Fail("per-layer metric " + name + ": no " + span + " span recorded");
    return;
  }
  report.Add(name, Median(ms) * scale, unit);
}

std::vector<NamedSynopsis> NameResults(
    std::vector<probsyn::SynopsisResult> results,
    std::span<const char* const> names) {
  std::vector<NamedSynopsis> named;
  for (std::size_t i = 0; i < results.size(); ++i) {
    named.push_back({names[i], std::move(results[i])});
  }
  return named;
}

void AttachTimings(Span& span, std::span<const NamedSynopsis> built,
                   std::span<const char* const> routes) {
  if (!span.recording()) return;
  std::map<std::string, std::array<double, 3>> by_route;  // pre, solve, evals
  double plan = 0.0;
  for (std::size_t i = 0; i < built.size(); ++i) {
    const auto& result = built[i].result;
    auto& phases = by_route[routes[i]];
    phases[0] = std::max(phases[0], result.timing.preprocess_seconds * 1e3);
    phases[1] = std::max(phases[1], result.timing.solve_seconds * 1e3);
    phases[2] += static_cast<double>(result.oracle_evaluations);
    plan = std::max(plan, result.timing.plan_seconds * 1e3);
  }
  span.Attr("plan_ms", plan);
  std::array<double, 3> total = {};
  for (const auto& [route, phases] : by_route) {
    span.Attr("preprocess_ms." + route, phases[0]);
    span.Attr("solve_ms." + route, phases[1]);
    span.Attr("oracle_evaluations." + route, phases[2]);
    for (int k = 0; k < 3; ++k) total[k] += phases[k];
  }
  span.Attr("preprocess_ms", total[0]);
  span.Attr("solve_ms", total[1]);
  span.Attr("oracle_evaluations", total[2]);
}

void AddRouteMetrics(Report& report, std::span<const char* const> routes) {
  const std::string phases[] = {"preprocess_ms", "solve_ms", "oracle_evaluations"};
  const char* units[] = {"ms", "ms", "count"};
  for (int k = 0; k < 3; ++k) {
    report.Add("core." + phases[k],
               Median(SpanAttrs("engine.build_batch", phases[k])), units[k]);
  }
  std::vector<std::string> seen;
  for (const char* route : routes) {
    if (std::find(seen.begin(), seen.end(), route) != seen.end()) continue;
    seen.push_back(route);
    for (int k = 0; k < 3; ++k) {
      report.Add("core." + phases[k] + "." + route,
                 Median(SpanAttrs("engine.build_batch", phases[k] + "." + route)),
                 units[k]);
    }
  }
}

std::size_t TupleValueGridSize(const probsyn::TuplePdfInput& input) {
  std::vector<std::size_t> mentions(input.domain_size(), 0);
  std::size_t most = 0;
  for (const auto& tuple : input.tuples()) {
    for (const auto& alternative : tuple.alternatives()) {
      most = std::max(most, ++mentions[alternative.item]);
    }
  }
  return most + 1;
}

}  // namespace perfbench
