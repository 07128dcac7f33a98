// The refresh and bulk workloads: a .pdata file is parsed through the
// public loaders, built with one BuildBatch, stored and served on every
// pass — the path `probsyn histogram --in` and `probsyn store` take — and
// each freshly served store then answers a burst of probes.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>

#include "bench.h"
#include "gen/generators.h"
#include "io/pdata.h"
#include "recorded_costs.h"

namespace perfbench {
namespace {

using probsyn::ErrorMetric;
using probsyn::HistogramMethod;
using probsyn::NamedSynopsis;
using probsyn::SynopsisEngine;
using probsyn::SynopsisKind;
using probsyn::SynopsisRequest;
using probsyn::TuplePdfInput;
using probsyn::WaveletMethod;

// Probes of each client after each pass, spread evenly over the synopses
// just served so a run's latencies average over all of them, and traced
// probes per sampled one.
constexpr std::size_t kBurstProbes = 6144;
constexpr std::size_t kSampleEvery = 64;

SynopsisRequest Histogram(ErrorMetric metric, std::size_t budget,
                          HistogramMethod method) {
  SynopsisRequest request;
  request.budget = budget;
  request.method = method;
  request.options.metric = metric;
  if (metric == ErrorMetric::kSsre) request.options.sanity_c = 0.5;
  return request;
}

SynopsisRequest Wavelet(ErrorMetric metric, std::size_t budget,
                        WaveletMethod method) {
  SynopsisRequest request;
  request.kind = SynopsisKind::kWavelet;
  request.budget = budget;
  request.wavelet_method = method;
  request.options.metric = metric;
  return request;
}

// One workload over one input file.
struct Pipeline {
  const char* workload;
  bool basic_model = false;  // a basic-model file (else tuple-pdf)
  std::vector<SynopsisRequest> requests = {};
  std::vector<const char*> names = {};   // the synopses' names in the store
  std::vector<const char*> routes = {};  // per-layer route of each request
  // Per request: the cost must equal the recorded one bit for bit; the
  // others (the approximate routes) must stay within kCostTolerance of it.
  std::vector<bool> exact = {};
  std::size_t lane_passes = 0;  // single-lane passes in the traced run
  const double* recorded = nullptr;  // recorded costs of the run's input set
};

// Statistics refresh of one TPC-H-style relation through the exact routes:
// the only workload that runs the exact and wavelet DPs.
Pipeline RefreshPipeline(std::uint64_t set) {
  using enum ErrorMetric;
  Pipeline p{.workload = "refresh",
             .lane_passes = 3,
             .recorded = kRefreshCosts[set]};
  for (std::size_t budget : {8, 16, 32, 64}) {
    // One shared oracle and one DP solved to B=64 serve all four.
    p.requests.push_back(Histogram(kSse, budget, HistogramMethod::kOptimal));
    p.routes.push_back("exact-sse");
  }
  p.requests.push_back(Histogram(kSae, 32, HistogramMethod::kOptimal));
  p.routes.push_back("exact-sae");
  p.requests.push_back(Histogram(kSsre, 32, HistogramMethod::kOptimal));
  p.routes.push_back("exact-ssre");
  p.requests.push_back(Wavelet(kSae, 32, WaveletMethod::kRestrictedDp));
  p.routes.push_back("wavelet-restricted");
  p.requests.push_back(Wavelet(kSse, 64, WaveletMethod::kGreedySse));
  p.routes.push_back("wavelet-greedy");
  p.names = {"sse_B8", "sse_B16", "sse_B32", "sse_B64",
             "sae_B32", "ssre_B32", "wave_sae_B32", "wave_sse_B64"};
  p.exact.assign(p.requests.size(), true);
  return p;
}

// One large relation through the default approximate route: the sharded
// (1+eps) DP and the parser dominate, which refresh barely touches.
Pipeline BulkPipeline(std::uint64_t set) {
  using enum ErrorMetric;
  Pipeline p{.workload = "bulk",
             .basic_model = true,
             .lane_passes = 2,
             .recorded = kBulkCosts[set]};
  SynopsisRequest sse = Histogram(kSse, 32, HistogramMethod::kApprox);
  // The world-mean SSE of tuple input does not shard; the per-item
  // (fixed-representative) objective does, like every other cumulative one.
  sse.options.sse_variant = probsyn::SseVariant::kFixedRepresentative;
  p.requests = {sse, Histogram(kSsre, 32, HistogramMethod::kApprox),
                Wavelet(kSse, 256, WaveletMethod::kGreedySse)};
  p.names = {"approx_sse_B32", "approx_ssre_B32", "wave_sse_B256"};
  p.routes = {"sharded-approx-sse", "sharded-approx-ssre", "wavelet-greedy"};
  p.exact = {false, false, true};
  return p;
}

// Writes the workload's input file; returns the generated relation's size.
struct InputInfo {
  std::size_t n = 0, tuples = 0, value_grid = 0;
  std::uint64_t bytes = 0;
};

InputInfo WriteInput(const Pipeline& p, std::uint64_t set,
                     const std::string& path, Report& report) {
  InputInfo info;
  probsyn::Status status;
  if (p.basic_model) {
    const probsyn::BasicModelInput basic = probsyn::GenerateMovieLinkage(
        {.domain_size = std::size_t{1} << 16, .seed = 2000 + set});
    status = probsyn::SaveBasicModel(path, basic);
    info.tuples = basic.num_tuples();
    const auto tuple = basic.ToTuplePdf();
    if (tuple.ok()) info.value_grid = TupleValueGridSize(*tuple);
    info.n = basic.domain_size();
  } else {
    const TuplePdfInput tuple = probsyn::GenerateMaybmsTpch(
        {.domain_size = 2048, .num_tuples = 8192, .seed = 1000 + set});
    status = probsyn::SaveTuplePdf(path, tuple);
    info.tuples = tuple.num_tuples();
    info.value_grid = TupleValueGridSize(tuple);
    info.n = tuple.domain_size();
  }
  report.Count(status.ok());
  if (!status.ok()) report.Fail("writing " + path + ": " + status.ToString());
  info.bytes = FileBytes(path);
  return info;
}

struct PassOutput {
  bool ok = false;
  double ms = 0.0;
  std::vector<NamedSynopsis> built;
  std::optional<probsyn::SynopsisServer> server;
};

// One pass from the file to a servable store. Output checks are the
// caller's, outside the timed pass.
PassOutput RunPass(const Pipeline& p, const SynopsisEngine& engine,
                   const std::string& input_path,
                   const std::string& store_path, std::uint64_t id,
                   Report& report) {
  PassOutput out;
  const auto start = Clock::now();
  Span pass("pass", id);
  const probsyn::StatusOr<TuplePdfInput> input =
      [&]() -> probsyn::StatusOr<TuplePdfInput> {
    if (!p.basic_model) {
      Span span("io.parse", id);
      return probsyn::LoadTuplePdf(input_path);
    }
    const auto basic = [&] {
      Span span("io.parse", id);
      return probsyn::LoadBasicModel(input_path);
    }();
    report.Count(basic.ok());
    if (!basic.ok()) return basic.status();
    Span span("model.to_tuple", id);
    return basic->ToTuplePdf();
  }();
  report.Count(input.ok());
  if (!input.ok()) return out;
  {
    Span span("engine.build_batch", id);
    const double cpu_start = span.recording() ? ProcessCpuSeconds() : 0.0;
    const auto wall_start = Clock::now();
    auto results = engine.BuildBatch(*input, p.requests);
    report.Count(results.ok(), p.requests.size());
    if (!results.ok()) {
      report.Fail(std::string(p.workload) + " build: " +
                  results.status().ToString());
      return out;
    }
    out.built = NameResults(std::move(*results), p.names);
    if (span.recording()) {
      span.Attr("cpu_per_wall",
                (ProcessCpuSeconds() - cpu_start) / SecondsSince(wall_start));
    }
    AttachTimings(span, out.built, p.routes);
  }
  {
    Span span("serve.store", id);
    const probsyn::Status stored = engine.Store(store_path, out.built);
    report.Count(stored.ok());
    if (!stored.ok()) return out;
    span.Attr("bytes", static_cast<double>(FileBytes(store_path)));
  }
  {
    Span span("serve.open", id);
    auto server = engine.Serve(store_path);
    report.Count(server.ok());
    if (!server.ok()) return out;
    out.server.emplace(std::move(*server));
  }
  out.ms = SecondsSince(start) * 1e3;
  out.ok = true;
  return out;
}

struct State {
  std::unique_ptr<SynopsisEngine> engine;
  InputInfo info;
  std::vector<NamedSynopsis> reference;  // the warm-up pass's synopses
};

// Worst ratio of achieved to recorded cost over all requests (the exact
// ones are checked to be 1), reported as a detail line.
double CostRatio(const Pipeline& p, const std::vector<NamedSynopsis>& built) {
  double worst = 0.0;
  for (std::size_t i = 0; i < built.size(); ++i) {
    worst = std::max(worst, built[i].result.cost / p.recorded[i]);
  }
  return worst;
}

void CheckPass(const Pipeline& p, const PassOutput& pass, const State& state,
               const QuerySample& sample, Report& report) {
  if (!pass.ok) {
    report.Fail(std::string(p.workload) + " pass failed");
    return;
  }
  std::vector<NamedSynopsis> exact, approximate;
  std::vector<double> exact_recorded, approximate_recorded;
  for (std::size_t i = 0; i < pass.built.size(); ++i) {
    (p.exact[i] ? exact : approximate).push_back(pass.built[i]);
    (p.exact[i] ? exact_recorded : approximate_recorded).push_back(p.recorded[i]);
  }
  CheckRecordedCosts(exact, exact_recorded, report);
  CheckCostsWithin(approximate, approximate_recorded, report);
  if (!state.reference.empty()) {
    CheckSameResults(pass.built, state.reference, report);
  }
  CheckServed(*pass.server, pass.built, sample, report);
}

void RunFilePipeline(const Pipeline& p, const RunConfig& config,
                     Report& report) {
  const std::uint64_t set = InputSet(config.seed);
  const std::string input_path =
      config.work_dir + "/" + p.workload + (p.basic_model ? ".basic" : ".tuple") +
      ".pdata";
  const std::string store_path = config.work_dir + "/" + p.workload + ".synstore";

  // Set-up: generate and write the input, then one warm-up pass whose
  // synopses every later pass must reproduce exactly.
  std::vector<double> setup_s;
  State state;
  QuerySample sample;
  for (int i = 0; i < kSetups; ++i) {
    state = State();
    const auto start = Clock::now();
    state.info = WriteInput(p, set, input_path, report);
    state.engine = std::make_unique<SynopsisEngine>();
    PassOutput warm =
        RunPass(p, *state.engine, input_path, store_path, 0, report);
    sample = MakeQuerySample(state.info.n, config.seed);
    CheckPass(p, warm, state, sample, report);
    state.reference = std::move(warm.built);
    setup_s.push_back(SecondsSince(start));
  }
  CalibrateMachine(p.workload);
  std::printf("input %s n=%zu tuples=%zu bytes=%llu V=%zu set=%llu\n",
              p.workload, state.info.n, state.info.tuples,
              static_cast<unsigned long long>(state.info.bytes),
              state.info.value_grid, static_cast<unsigned long long>(set));

  // Measurement: passes until the time is up, each followed by a burst of
  // probes on the store it served. The traced run alternates traced and
  // untraced passes so their difference is the tracing overhead.
  std::vector<std::size_t> popularity(state.reference.size());
  for (std::size_t i = 0; i < popularity.size(); ++i) popularity[i] = i;
  std::vector<ProbeSource> sources;
  for (int c = 0; c < kQueryClients; ++c) {
    sources.emplace_back(state.reference, popularity, 0.0,
                         config.seed * 7919 + static_cast<std::uint64_t>(c));
  }
  std::vector<QueryLog> queries(kQueryClients);
  std::vector<double> untraced_ms, traced_ms;
  double cost_ratio = 0.0;
  const auto deadline = After(Clock::now(), config.seconds);
  for (std::uint64_t id = 1; Clock::now() < deadline || id <= 3; ++id) {
    const bool traced = config.trace && id % 2 == 1;
    SetTracing(traced);
    PassOutput pass =
        RunPass(p, *state.engine, input_path, store_path, id, report);
    SetTracing(false);
    (traced ? traced_ms : untraced_ms).push_back(pass.ms);
    CheckPass(p, pass, state, sample, report);
    if (!pass.ok) continue;
    cost_ratio = std::max(cost_ratio, CostRatio(p, pass.built));
    SetTracing(traced);
    RunClients(*pass.server, sources, kBurstProbes, traced, kSampleEvery,
               queries);
    SetTracing(false);
  }
  CountQueries(queries, report);
  const std::size_t passes = untraced_ms.size() + traced_ms.size();
  std::size_t probes = 0;
  for (const QueryLog& log : queries) probes += log.probes[0] + log.probes[1];
  std::printf("samples %s passes=%zu untraced=%zu probes=%zu\n", p.workload,
              passes, untraced_ms.size(), probes);

  if (!config.trace) {
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    report.Add("pass_p50_ms", Median(untraced_ms), "ms");
    AddQueryMetrics(queries, report);
    report.Add("cost_ratio", cost_ratio, "ratio");
    return;
  }

  // Single-lane baseline: whether the engine's lanes pay off is measured.
  SynopsisEngine single_lane(SynopsisEngine::Options{.parallelism = 1});
  std::vector<double> single_ms;
  for (std::size_t i = 0; i < p.lane_passes; ++i) {
    PassOutput pass = RunPass(p, single_lane, input_path, store_path,
                              1000000 + i, report);
    single_ms.push_back(pass.ms);
    CheckPass(p, pass, state, sample, report);
  }

  const double parse_ms = Median(SpanSelfMs("io.parse"));
  report.Add("io.parse_ms", parse_ms, "ms");
  report.Add("io.parse_mb_per_s",
             static_cast<double>(state.info.bytes) / 1e6 / (parse_ms / 1e3),
             "MB/s");
  if (p.basic_model) {
    AddSpanMedian(report, "model.to_tuple", "model.to_tuple_ms", "ms");
  }
  AddSpanMedian(report, "engine.build_batch", "engine.build_ms", "ms");
  report.Add("engine.plan_ms", Median(SpanAttrs("engine.build_batch", "plan_ms")),
             "ms");
  report.Add("engine.cpu_per_wall",
             Median(SpanAttrs("engine.build_batch", "cpu_per_wall")), "ratio");
  report.Add("engine.lane_speedup", Median(single_ms) / Median(untraced_ms),
             "ratio");
  report.Add("engine.workspaces_created",
             static_cast<double>(state.engine->workspace_pool_stats().created),
             "count");
  AddRouteMetrics(report, p.routes);
  AddSpanMedian(report, "serve.store", "serve.store_ms", "ms");
  report.Add("serve.store_bytes", Median(SpanAttrs("serve.store", "bytes")),
             "bytes");
  AddSpanMedian(report, "serve.open", "serve.open_ms", "ms");
  AddProbeSpanMetrics(true, report);
  report.Add("trace.overhead_pct",
             (Median(traced_ms) / Median(untraced_ms) - 1.0) * 100.0, "%");
}

std::vector<double> PipelineCosts(const Pipeline& p, std::uint64_t set,
                                  const std::string& work_dir) {
  Report report;
  const std::string input_path = work_dir + "/record.pdata";
  const std::string store_path = work_dir + "/record.synstore";
  WriteInput(p, set, input_path, report);
  SynopsisEngine engine;
  PassOutput pass = RunPass(p, engine, input_path, store_path, 0, report);
  std::vector<double> costs;
  for (const NamedSynopsis& entry : pass.built) costs.push_back(entry.result.cost);
  return costs;
}

}  // namespace

void RunRefresh(const RunConfig& config, Report& report) {
  RunFilePipeline(RefreshPipeline(InputSet(config.seed)), config, report);
}

void RunBulk(const RunConfig& config, Report& report) {
  RunFilePipeline(BulkPipeline(InputSet(config.seed)), config, report);
}

std::vector<double> RefreshCosts(std::uint64_t set, const std::string& work_dir) {
  return PipelineCosts(RefreshPipeline(set), set, work_dir);
}

std::vector<double> BulkCosts(std::uint64_t set, const std::string& work_dir) {
  return PipelineCosts(BulkPipeline(set), set, work_dir);
}

}  // namespace perfbench
