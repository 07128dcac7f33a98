// Shared pieces of the end-to-end benchmark: run configuration, the result
// report, span tracing, statistics and the output checks every workload
// runs. The benchmark drives the library only through its public API.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "engine/synopsis_engine.h"
#include "stream/streaming_histogram.h"
#include "util/random.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double SecondsSince(Clock::time_point from) {
  return Seconds(from, Clock::now());
}
inline Clock::time_point After(Clock::time_point from, double seconds) {
  return from + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
}

/// What one invocation runs.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Inputs, stores and the trace file go here (inside the checkout).
  std::string work_dir;
};

/// Each run sets up this many times and reports the median as setup_s.
inline constexpr int kSetups = 5;

/// Recorded costs cover this many input sets; --seed picks one of them
/// (seed mod kInputSets) for the inputs, and seeds everything else (probe
/// streams, arrival order) in full.
inline constexpr std::uint64_t kInputSets = 16;
inline std::uint64_t InputSet(std::uint64_t seed) { return seed % kInputSets; }

/// A metric BENCHMARK.json lists, with its unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// What every untraced run reports, whatever the workload.
inline constexpr MetricSpec kEndToEndMetrics[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},
    {"pass_p50_ms", "ms"},     {"query_qps", "probes/s"},
    {"query_p50_us", "us"},    {"query_p99_us", "us"},
};

/// What every traced run reports. A workload that does not run a layer
/// reports 0 for that layer's metrics.
inline constexpr MetricSpec kPerLayerMetrics[] = {
    {"io.parse_ms", "ms"},
    {"io.parse_mb_per_s", "MB/s"},
    {"model.to_tuple_ms", "ms"},
    {"engine.build_ms", "ms"},
    {"engine.plan_ms", "ms"},
    {"engine.cpu_per_wall", "ratio"},
    {"engine.lane_speedup", "ratio"},
    {"engine.workspaces_created", "count"},
    {"core.preprocess_ms", "ms"},
    {"core.solve_ms", "ms"},
    {"core.oracle_evaluations", "count"},
    {"serve.store_ms", "ms"},
    {"serve.store_bytes", "bytes"},
    {"serve.open_ms", "ms"},
    {"serve.point_ns", "ns"},
    {"serve.range_ns", "ns"},
    {"serve.topk_ns", "ns"},
    {"stream.submit_ns.open", "ns"},
    {"stream.submit_ns.replay", "ns"},
    {"stream.drain_ms.open", "ms"},
    {"stream.drain_ms.replay", "ms"},
    {"stream.backlog_max.open", "items"},
    {"stream.items_per_batch.open", "items"},
    {"stream.items_per_batch.replay", "items"},
    {"stream.finish_ms", "ms"},
    {"stream.lag_p50_ms", "ms"},
    {"stream.lag_p99_ms", "ms"},
    {"stream.generator_late_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

/// Counts operations, records output-check failures and collects metrics.
class Report {
 public:
  /// One library call attempted; `ok` false counts it as failed.
  void Count(bool ok, std::size_t calls = 1);
  /// An output check failed.
  void Fail(const std::string& why);
  /// A metric with its unit. Metrics outside the run's catalogue are
  /// printed as human-readable lines only.
  void Add(const std::string& name, double value, const std::string& unit);
  bool correct() const { return failures_ == 0; }
  /// Human-readable metric lines, then the one-line JSON result holding
  /// exactly the catalogue of the run (kPerLayerMetrics when `trace`, else
  /// kEndToEndMetrics). A per-layer metric the workload did not measure is
  /// 0; a missing end-to-end metric or a wrong unit fails the run.
  void Print(bool trace);

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t failures_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

// ---------------------------------------------------------------------------
// Tracing. Spans are recorded by the benchmark around its calls into the
// library, kept in per-thread logs in memory, and written out once at exit.

/// Turns span recording on or off process-wide (off by default). The
/// traced run toggles it between passes to measure the tracing overhead.
void SetTracing(bool on);

/// A span from construction to destruction. Records nothing when tracing
/// is off or `record` is false; nests under the thread's innermost open
/// span. `id` groups the spans of one pass, probe or event.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t id = 0, bool record = true);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool recording() const { return index_ >= 0; }
  /// Attaches a named value (e.g. a SynopsisTiming phase) to the span.
  void Attr(const std::string& key, double value);

 private:
  std::int32_t index_ = -1;
};

/// Self time in ms (duration minus the time child spans cover) of every
/// recorded span named `name`.
std::vector<double> SpanSelfMs(const char* name);
/// Every value of attribute `key` on spans named `name`.
std::vector<double> SpanAttrs(const char* name, const std::string& key);
/// Writes all recorded spans as JSON.
bool WriteTrace(const std::string& path);

// ---------------------------------------------------------------------------
// Statistics and process measurements.

/// Median; NaN on an empty sample.
double Median(std::vector<double> values);
/// Order statistic at quantile q in [0, 1] (nearest rank below).
double Quantile(std::vector<double> values, double q);
/// CPU seconds of all threads of this process.
double ProcessCpuSeconds();
/// Peak resident set of this process, in MB.
double PeakRssMb();
std::uint64_t FileBytes(const std::string& path);
/// a and b have the same bit pattern.
bool SameBits(double a, double b);

// ---------------------------------------------------------------------------
// Output checks, shared by the workloads and the self-test.

/// Positions and ranges every served synopsis is checked on.
struct QuerySample {
  std::vector<std::size_t> points;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
};
QuerySample MakeQuerySample(std::size_t domain_size, std::uint64_t seed);

/// Every answer of `server` on the sample is bitwise equal to the
/// construction-side estimate of the synopsis it serves under that name
/// (Histogram::Estimate/EstimateRangeSum, WaveletSynopsis::Estimate/
/// EstimateRangeSum, and the magnitude ranking for TopCoefficients).
void CheckServed(const probsyn::SynopsisServer& server,
                 std::span<const probsyn::NamedSynopsis> built,
                 const QuerySample& sample, Report& report);
/// Each result's cost has the recorded bit pattern.
void CheckRecordedCosts(std::span<const probsyn::NamedSynopsis> built,
                        std::span<const double> recorded, Report& report);
/// Each result's cost is at most (1 + kCostTolerance) times the recorded
/// one: the approximate routes may change, but not lose accuracy.
inline constexpr double kCostTolerance = 0.02;
void CheckCostsWithin(std::span<const probsyn::NamedSynopsis> built,
                      std::span<const double> recorded, Report& report);
/// A rebuild produced the same synopses and costs as the reference build.
void CheckSameResults(std::span<const probsyn::NamedSynopsis> built,
                      std::span<const probsyn::NamedSynopsis> reference,
                      Report& report);
/// A stream's Finish result equals the single-builder reference replay.
void CheckStreamResult(const probsyn::StreamingHistogramBuilder::Result& got,
                       const probsyn::StreamingHistogramBuilder::Result& want,
                       std::size_t stream, Report& report);

/// The k largest-magnitude coefficients, |value| descending and index
/// ascending on ties — the construction-side ranking TopCoefficients serves.
std::vector<probsyn::WaveletCoefficient> RankCoefficients(
    const probsyn::WaveletSynopsis& wavelet, std::size_t k);

// ---------------------------------------------------------------------------
// Query load: closed-loop probes against a served store, the read side
// every workload measures.

/// Every read path runs three closed-loop client threads: four saturate a
/// 4-CPU box, and a single client follows the speed of whichever CPU it
/// lands on (its median latency moved by 17 % between runs of one seed).
inline constexpr int kQueryClients = 3;

enum class ProbeKind { kPoint, kRange, kTopK };
inline constexpr std::size_t kPointsPerProbe = 16;
inline constexpr std::size_t kTopK = 16;

/// One probe: kPointsPerProbe PointEstimate calls, one RangeSum, or one
/// TopCoefficients(kTopK).
struct Probe {
  ProbeKind kind = ProbeKind::kPoint;
  const probsyn::NamedSynopsis* synopsis = nullptr;
  std::size_t points[kPointsPerProbe] = {};
  std::size_t a = 0, b = 0;
};

/// Draws probes over the synopses of a store: 70 % point probes, 25 %
/// RangeSum with log-uniform widths and 5 % TopCoefficients on a wavelet (a
/// RangeSum when the store holds none). Names are Zipf(`skew`)-distributed
/// over `popularity`, indices into `synopses` from the hottest down (skew 0
/// picks them uniformly).
class ProbeSource {
 public:
  ProbeSource(std::span<const probsyn::NamedSynopsis> synopses,
              std::vector<std::size_t> popularity, double skew,
              std::uint64_t seed);
  Probe Next();

 private:
  std::span<const probsyn::NamedSynopsis> synopses_;
  std::vector<std::size_t> popularity_;
  std::vector<std::size_t> wavelets_;  // popularity order
  probsyn::Rng rng_;
  probsyn::ZipfDistribution names_;
  std::optional<probsyn::ZipfDistribution> wavelet_names_;
};

/// One client's probes: latencies in 1 ns bins (slower ones kept exactly)
/// and counts, split into untraced [0] and traced [1] probes.
struct QueryLog {
  QueryLog();
  std::vector<std::uint64_t> bins[2];
  std::vector<double> slow_ns[2];
  std::size_t probes[2] = {};
  double seconds[2] = {};  // wall time spent probing
  std::size_t calls = 0, failed = 0, mismatches = 0;
  double checksum = 0.0;
};

/// Runs `count` probes from `source` against `server`, each sent when the
/// previous one returns. A `traced` run records a span per call for one
/// probe in `sample_every`. One probe in 1024 has its answers checked
/// against the construction side.
void RunProbes(const probsyn::SynopsisServer& server, ProbeSource& source,
               std::size_t count, bool traced, std::size_t sample_every,
               QueryLog& log);
/// One burst of the read path: client c runs `count` probes from
/// sources[c] into logs[c], all clients at once.
void RunClients(const probsyn::SynopsisServer& server,
                std::span<ProbeSource> sources, std::size_t count, bool traced,
                std::size_t sample_every, std::span<QueryLog> logs);
/// Latency of the logs' untraced (or traced) probes at quantile q, in
/// microseconds, interpolated within its bin.
double LatencyUs(std::span<const QueryLog> logs, bool traced, double q);
/// Counts the logs' calls in `report` and fails it on answer mismatches.
void CountQueries(std::span<const QueryLog> logs, Report& report);
/// query_qps (each client's probes per second of probing, summed over
/// clients), query_p50_us and query_p99_us of the untraced probes.
void AddQueryMetrics(std::span<const QueryLog> logs, Report& report);
/// serve.point_ns, serve.range_ns and serve.topk_ns from the sampled call
/// spans (serve.topk_ns only when `has_wavelets`).
void AddProbeSpanMetrics(bool has_wavelets, Report& report);

// ---------------------------------------------------------------------------
// Workloads. Each sets up kSetups times, measures for config.seconds and
// adds its metrics (end-to-end, or per-layer when config.trace) to report.

/// Threads a workload keeps busy; a run on fewer usable CPUs is flagged.
std::size_t WorkloadThreads(const std::string& workload);
/// Calibrates how many CPUs are usable and starts counting the CPU time
/// the host steals. Workloads call it between set-up and measurement.
void CalibrateMachine(const std::string& workload);
/// Prints the machine line: nproc, the usable CPUs, the share of CPU time
/// the host stole since calibration, the SIMD path, compiler and build
/// type, and whether the run is comparable (as many usable CPUs as the
/// workload has threads, and little stolen time).
void PrintMachine();

void RunRefresh(const RunConfig& config, Report& report);
void RunBulk(const RunConfig& config, Report& report);
void RunServe(const RunConfig& config, Report& report);
void RunIngest(const RunConfig& config, Report& report);

/// The costs recorded_costs.h holds for one input set, in request (or
/// stream) order; `perfbench --record` prints them for every set.
std::vector<double> RefreshCosts(std::uint64_t set, const std::string& work_dir);
std::vector<double> BulkCosts(std::uint64_t set, const std::string& work_dir);
std::vector<double> IngestCosts(std::uint64_t set);
/// Shows that each output check fails on a deliberately changed reference.
bool SelfTest(const std::string& work_dir);

// Helpers the workloads share.

/// Median of the per-span self times; a missing span fails the run.
void AddSpanMedian(Report& report, const char* span, const std::string& name,
                   const std::string& unit, double scale = 1.0);
/// Names a synopsis by its position in the request list.
std::vector<probsyn::NamedSynopsis> NameResults(
    std::vector<probsyn::SynopsisResult> results,
    std::span<const char* const> names);
/// Adds the SynopsisTiming phases of `results` to `span`, grouped by route;
/// a phase shared by a group is counted once (the group's largest value).
void AttachTimings(Span& span, std::span<const probsyn::NamedSynopsis> built,
                   std::span<const char* const> routes);
/// Reports core.preprocess_ms, core.solve_ms and core.oracle_evaluations
/// (per pass, summed over routes) and, as detail lines, the same per route,
/// from the engine.build_batch span attributes.
void AddRouteMetrics(Report& report, std::span<const char* const> routes);
/// |V| of a tuple-pdf relation: 1 + the most tuples any item can come from.
std::size_t TupleValueGridSize(const probsyn::TuplePdfInput& input);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
