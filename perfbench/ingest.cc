// The ingest workload: eight value-pdf streams through OpenIngest, first as
// an open loop at a fixed offered rate (trickle load, pushes of ~1 item),
// then replayed in 4096-item SubmitBatch waves (full 256-item pushes); one
// replay to a servable store is one pass, followed by a burst of probes.
// Every stream's Finish result must equal a single-builder replay.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <optional>
#include <thread>

#include "bench.h"
#include "gen/generators.h"
#include "recorded_costs.h"

namespace perfbench {
namespace {

using probsyn::IngestBackpressure;
using probsyn::IngestCoordinator;
using probsyn::NamedSynopsis;
using probsyn::StreamingHistogramBuilder;
using probsyn::ValuePdf;

constexpr std::size_t kStreams = 8;
constexpr std::size_t kItemsPerStream = 12500;
constexpr std::size_t kBuckets = 16;
constexpr double kEpsilon = 0.1;
// Offered open-loop rate (updates/s over all streams), well below the point
// where lag climbs under trickle load: at 25000/s the lag of some runs
// jumped from 0.2 ms to 3-5 ms whenever a busy host left fewer than four
// CPUs usable.
constexpr double kOfferedRate = 15000.0;
constexpr std::size_t kWave = 4096;
constexpr std::size_t kDrainBatch = 256;
constexpr std::size_t kLanes = 3;  // the producer takes the fourth CPU
constexpr std::size_t kReplayLanePasses = 2;  // single-lane replays, traced run
// Probes of each client after each replay, spread evenly over the streams'
// histograms, and traced probes per sampled one.
constexpr std::size_t kBurstProbes = 6144;
constexpr std::size_t kSampleEvery = 64;

probsyn::IngestOptions Options(IngestBackpressure policy) {
  probsyn::IngestOptions options;
  options.max_buckets = kBuckets;
  options.epsilon = kEpsilon;
  options.queue_capacity = kWave;
  options.drain_batch = kDrainBatch;
  options.backpressure = policy;
  return options;
}

std::vector<std::vector<ValuePdf>> MakeStreams(std::uint64_t set) {
  std::vector<std::vector<ValuePdf>> streams;
  for (std::size_t s = 0; s < kStreams; ++s) {
    streams.push_back(probsyn::GenerateRandomValuePdf(
                          {.domain_size = kItemsPerStream,
                           .max_support = 4,
                           .max_value = 9,
                           .seed = 3000 + set * kStreams + s})
                          .items());
  }
  return streams;
}

// The reference: one builder per stream fed in drain-sized PushBatch blocks.
StreamingHistogramBuilder::Result ReplayOne(const std::vector<ValuePdf>& items,
                                            Report& report) {
  StreamingHistogramBuilder builder(kBuckets, kEpsilon);
  const std::span<const ValuePdf> all(items);
  for (std::size_t offset = 0; offset < all.size(); offset += kDrainBatch) {
    builder.PushBatch(all.subspan(offset, std::min(kDrainBatch, all.size() - offset)));
  }
  auto result = builder.Finish();
  report.Count(result.ok());
  if (!result.ok()) {
    report.Fail("reference replay: " + result.status().ToString());
    return {};
  }
  return *result;
}

struct State {
  std::unique_ptr<probsyn::SynopsisEngine> engine;
  std::vector<std::vector<ValuePdf>> streams;
  std::vector<StreamingHistogramBuilder::Result> reference;
  std::vector<NamedSynopsis> reference_store;  // the references, named
  const double* recorded = nullptr;
};

struct Published {
  bool ok = false;
  std::vector<StreamingHistogramBuilder::Result> results;
  std::optional<probsyn::SynopsisServer> server;
};

// Finishes every stream, then stores and serves the results. Output checks
// are CheckPublished's, outside the timed pass.
Published Publish(const probsyn::SynopsisEngine& engine,
                  IngestCoordinator& coordinator, const std::string& store_path,
                  std::uint64_t id, Report& report) {
  Published out;
  std::vector<NamedSynopsis> built;
  for (std::size_t s = 0; s < kStreams; ++s) {
    auto result = [&] {
      Span span("stream.finish", id);
      return coordinator.Finish(s);
    }();
    report.Count(result.ok());
    if (!result.ok()) {
      report.Fail("finish: " + result.status().ToString());
      return out;
    }
    NamedSynopsis entry;
    entry.name = "stream_" + std::to_string(s);
    entry.result.histogram = result->histogram;
    entry.result.cost = result->cost;
    built.push_back(std::move(entry));
    out.results.push_back(std::move(*result));
  }
  {
    Span span("serve.store", id);
    const probsyn::Status stored = engine.Store(store_path, built);
    report.Count(stored.ok());
    if (!stored.ok()) {
      report.Fail("store: " + stored.ToString());
      return out;
    }
    span.Attr("bytes", static_cast<double>(FileBytes(store_path)));
  }
  auto server = [&] {
    Span span("serve.open", id);
    return engine.Serve(store_path);
  }();
  report.Count(server.ok());
  if (!server.ok()) {
    report.Fail("serve: " + server.status().ToString());
    return out;
  }
  out.server.emplace(std::move(*server));
  out.ok = true;
  return out;
}

// Every stream equals its single-builder replay and stays within
// kCostTolerance of its recorded cost, and the store serves them exactly.
// Returns the worst ratio to the recorded cost.
double CheckPublished(const State& state, const Published& published,
                      const QuerySample& sample, Report& report) {
  if (!published.ok) {
    report.Fail("ingest pass failed");
    return 0.0;
  }
  double worst = 0.0;
  for (std::size_t s = 0; s < kStreams; ++s) {
    CheckStreamResult(published.results[s], state.reference[s], s, report);
    worst = std::max(worst, published.results[s].cost / state.recorded[s]);
  }
  CheckCostsWithin(state.reference_store,
                   std::span<const double>(state.recorded, kStreams), report);
  CheckServed(*published.server, state.reference_store, sample, report);
  return worst;
}

std::unique_ptr<IngestCoordinator> Open(const probsyn::SynopsisEngine& engine,
                                        IngestBackpressure policy,
                                        Report& report) {
  auto coordinator = engine.OpenIngest(Options(policy));
  report.Count(coordinator.ok());
  if (!coordinator.ok()) {
    report.Fail("open ingest: " + coordinator.status().ToString());
    return nullptr;
  }
  for (std::size_t s = 0; s < kStreams; ++s) (*coordinator)->OpenStream();
  return std::move(*coordinator);
}

struct ReplayOutput {
  double ms = 0.0;       // the whole pass, to a servable store
  double ingest_s = 0.0;  // submits and drains only
  double items_per_batch = 0.0;
  Published published;
};

// One pass: a fresh kBlock coordinator takes every stream in waves of kWave
// items, each wave followed by DrainAll; then Finish, Store and Serve.
ReplayOutput Replay(const State& state, const probsyn::SynopsisEngine& engine,
                    const std::string& store_path, std::uint64_t id,
                    Report& report) {
  ReplayOutput out;
  const auto start = Clock::now();
  std::unique_ptr<IngestCoordinator> coordinator =
      Open(engine, IngestBackpressure::kBlock, report);
  if (coordinator == nullptr) return out;
  for (std::size_t offset = 0; offset < kItemsPerStream; offset += kWave) {
    const std::size_t take = std::min(kWave, kItemsPerStream - offset);
    for (std::size_t s = 0; s < kStreams; ++s) {
      Span span("replay.submit", id);
      const probsyn::Status status = coordinator->SubmitBatch(
          s, std::span<const ValuePdf>(state.streams[s]).subspan(offset, take));
      report.Count(status.ok(), take);
    }
    Span span("replay.drain", id);
    const double cpu_start = span.recording() ? ProcessCpuSeconds() : 0.0;
    const auto wall_start = Clock::now();
    report.Count(coordinator->DrainAll().ok());
    if (span.recording()) {
      span.Attr("cpu_per_wall",
                (ProcessCpuSeconds() - cpu_start) / SecondsSince(wall_start));
    }
  }
  out.ingest_s = SecondsSince(start);
  const IngestCoordinator::Stats stats = coordinator->stats();
  out.items_per_batch =
      static_cast<double>(stats.pushed) / static_cast<double>(stats.batches);
  out.published = Publish(engine, *coordinator, store_path, id, report);
  out.ms = SecondsSince(start) * 1e3;
  return out;
}

struct OpenLoopOutput {
  std::vector<double> lag_ms;
  double late_ms = 0.0;  // how far the producer fell behind its schedule
  double backlog_max = 0.0;
  double items_per_batch = 0.0;
  double cost_ratio = 0.0;
};

// Open loop: one producer submits on a fixed schedule (kRejectWithStatus,
// so it never blocks); one drain thread calls DrainAll whenever there is a
// backlog. An event's lag runs from when it was due to the end of the
// first DrainAll that started after its Submit returned.
OpenLoopOutput OpenLoop(const State& state, const std::string& store_path,
                        const QuerySample& sample, Report& report) {
  OpenLoopOutput out;
  std::unique_ptr<IngestCoordinator> coordinator =
      Open(*state.engine, IngestBackpressure::kRejectWithStatus, report);
  if (coordinator == nullptr) return out;
  const std::size_t total = kStreams * kItemsPerStream;
  std::vector<Clock::time_point> due(total), returned(total);
  std::vector<bool> accepted(total, false);
  std::vector<std::pair<Clock::time_point, Clock::time_point>> drains;
  drains.reserve(total);
  std::atomic<std::size_t> submitted{0};
  std::atomic<bool> producing{true};
  std::size_t drain_failures = 0;
  std::size_t backlog_max = 0;

  std::thread drainer([&] {
    std::size_t seen = 0;
    for (;;) {
      const bool done = !producing.load(std::memory_order_acquire);
      const std::size_t now_submitted = submitted.load(std::memory_order_acquire);
      if (now_submitted == seen) {
        if (done) break;
        // Poll rather than spin: the producer and the drain lanes need the
        // other CPUs.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
      seen = now_submitted;
      const IngestCoordinator::Stats before = coordinator->stats();
      backlog_max = std::max(backlog_max, before.accepted - before.pushed);
      const auto start = Clock::now();
      Span span("open.drain", drains.size());
      drain_failures += !coordinator->DrainAll().ok();
      drains.emplace_back(start, Clock::now());
    }
  });

  const auto period = std::chrono::duration<double>(1.0 / kOfferedRate);
  const auto origin = Clock::now() + std::chrono::milliseconds(1);
  std::size_t rejected = 0;
  Clock::duration late{0};
  for (std::size_t k = 0; k < total; ++k) {
    due[k] = origin + std::chrono::duration_cast<Clock::duration>(period * k);
    Clock::time_point now = Clock::now();
    while (now < due[k]) now = Clock::now();
    late = std::max(late, now - due[k]);
    Span span("open.submit", k, k % 8 == 0);
    const probsyn::Status status =
        coordinator->Submit(k % kStreams, state.streams[k % kStreams][k / kStreams]);
    returned[k] = Clock::now();
    accepted[k] = status.ok();
    rejected += !status.ok();
    if (status.ok()) submitted.fetch_add(1, std::memory_order_release);
  }
  producing.store(false, std::memory_order_release);
  drainer.join();
  report.Count(true, total - rejected);
  report.Count(false, rejected);
  report.Count(true, drains.size() - drain_failures);
  report.Count(false, drain_failures);

  for (std::size_t k = 0; k < total; ++k) {
    if (!accepted[k]) continue;
    const auto drain = std::lower_bound(
        drains.begin(), drains.end(), returned[k],
        [](const auto& d, Clock::time_point t) { return d.first < t; });
    if (drain == drains.end()) {
      report.Fail("event " + std::to_string(k) + " was never drained");
      continue;
    }
    out.lag_ms.push_back(Seconds(due[k], drain->second) * 1e3);
  }
  out.late_ms = std::chrono::duration<double, std::milli>(late).count();
  out.backlog_max = static_cast<double>(backlog_max);
  const IngestCoordinator::Stats stats = coordinator->stats();
  out.items_per_batch =
      static_cast<double>(stats.pushed) / static_cast<double>(stats.batches);
  out.cost_ratio = CheckPublished(
      state, Publish(*state.engine, *coordinator, store_path, 0, report), sample,
      report);
  return out;
}

}  // namespace

void RunIngest(const RunConfig& config, Report& report) {
  const std::uint64_t set = InputSet(config.seed);
  const std::string store_path = config.work_dir + "/ingest.synstore";
  const QuerySample sample = MakeQuerySample(kItemsPerStream, config.seed);

  // Set-up: generate the streams, replay each through a single builder for
  // the reference results, then one warm-up replay through the engine.
  std::vector<double> setup_s;
  State state;
  for (int i = 0; i < kSetups; ++i) {
    state = State();
    const auto start = Clock::now();
    state.engine = std::make_unique<probsyn::SynopsisEngine>(
        probsyn::SynopsisEngine::Options{.parallelism = kLanes});
    state.streams = MakeStreams(set);
    state.recorded = kIngestCosts[set];
    for (const auto& items : state.streams) {
      state.reference.push_back(ReplayOne(items, report));
      NamedSynopsis entry;
      entry.name = "stream_" + std::to_string(state.reference_store.size());
      entry.result.histogram = state.reference.back().histogram;
      entry.result.cost = state.reference.back().cost;
      state.reference_store.push_back(std::move(entry));
    }
    const ReplayOutput warm = Replay(state, *state.engine, store_path, 0, report);
    CheckPublished(state, warm.published, sample, report);
    setup_s.push_back(SecondsSince(start));
  }
  CalibrateMachine("ingest");
  const probsyn::ValuePdfInput first(state.streams[0]);
  std::printf("input ingest streams=%zu items_per_stream=%zu V=%zu set=%llu\n",
              kStreams, kItemsPerStream, first.ValueGrid().size(),
              static_cast<unsigned long long>(set));

  SetTracing(config.trace);
  const auto start = Clock::now();
  const OpenLoopOutput open_loop = OpenLoop(state, store_path, sample, report);
  SetTracing(false);

  // Replays fill the rest of the run, each followed by a burst of probes on
  // the store it served; the traced run alternates traced and untraced
  // replays.
  std::vector<std::size_t> popularity(kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) popularity[s] = s;
  std::vector<ProbeSource> sources;
  for (int c = 0; c < kQueryClients; ++c) {
    sources.emplace_back(state.reference_store, popularity, 0.0,
                         config.seed * 7919 + static_cast<std::uint64_t>(c));
  }
  std::vector<QueryLog> queries(kQueryClients);
  std::vector<double> untraced_ms, traced_ms, ingest_s;
  double cost_ratio = open_loop.cost_ratio;
  double replay_items_per_batch = 0.0;
  const auto deadline = After(start, config.seconds);
  for (std::uint64_t id = 1; Clock::now() < deadline || id <= 4; ++id) {
    const bool traced = config.trace && id % 2 == 1;
    SetTracing(traced);
    const ReplayOutput replay = Replay(state, *state.engine, store_path, id, report);
    SetTracing(false);
    (traced ? traced_ms : untraced_ms).push_back(replay.ms);
    if (!traced) ingest_s.push_back(replay.ingest_s);
    cost_ratio = std::max(cost_ratio,
                          CheckPublished(state, replay.published, sample, report));
    replay_items_per_batch = replay.items_per_batch;
    if (!replay.published.ok) continue;
    SetTracing(traced);
    RunClients(*replay.published.server, sources, kBurstProbes, traced,
               kSampleEvery, queries);
    SetTracing(false);
  }
  CountQueries(queries, report);
  std::size_t probes = 0;
  for (const QueryLog& log : queries) probes += log.probes[0] + log.probes[1];
  std::printf("samples ingest events=%zu replays=%zu untraced=%zu probes=%zu\n",
              open_loop.lag_ms.size(), untraced_ms.size() + traced_ms.size(),
              untraced_ms.size(), probes);
  const double items = static_cast<double>(kStreams * kItemsPerStream);

  if (!config.trace) {
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    report.Add("pass_p50_ms", Median(untraced_ms), "ms");
    AddQueryMetrics(queries, report);
    report.Add("cost_ratio", cost_ratio, "ratio");
    report.Add("ingest_updates_per_s", items / Median(ingest_s), "items/s");
    return;
  }

  // Single-lane baseline: whether the drain lanes pay off is measured.
  probsyn::SynopsisEngine single_lane(
      probsyn::SynopsisEngine::Options{.parallelism = 1});
  std::vector<double> single_ms;
  for (std::size_t i = 0; i < kReplayLanePasses; ++i) {
    const ReplayOutput replay =
        Replay(state, single_lane, store_path, 1000000 + i, report);
    single_ms.push_back(replay.ms);
    CheckPublished(state, replay.published, sample, report);
  }

  report.Add("engine.cpu_per_wall",
             Median(SpanAttrs("replay.drain", "cpu_per_wall")), "ratio");
  report.Add("engine.lane_speedup", Median(single_ms) / Median(untraced_ms),
             "ratio");
  report.Add("engine.workspaces_created",
             static_cast<double>(state.engine->workspace_pool_stats().created),
             "count");
  AddSpanMedian(report, "serve.store", "serve.store_ms", "ms");
  report.Add("serve.store_bytes", Median(SpanAttrs("serve.store", "bytes")),
             "bytes");
  AddSpanMedian(report, "serve.open", "serve.open_ms", "ms");
  AddProbeSpanMetrics(false, report);
  AddSpanMedian(report, "open.submit", "stream.submit_ns.open", "ns", 1e6);
  AddSpanMedian(report, "replay.submit", "stream.submit_ns.replay", "ns",
                1e6 / static_cast<double>(kWave));
  AddSpanMedian(report, "open.drain", "stream.drain_ms.open", "ms");
  AddSpanMedian(report, "replay.drain", "stream.drain_ms.replay", "ms");
  report.Add("stream.backlog_max.open", open_loop.backlog_max, "items");
  report.Add("stream.items_per_batch.open", open_loop.items_per_batch, "items");
  report.Add("stream.items_per_batch.replay", replay_items_per_batch, "items");
  AddSpanMedian(report, "stream.finish", "stream.finish_ms", "ms");
  report.Add("stream.lag_p50_ms", Median(open_loop.lag_ms), "ms");
  report.Add("stream.lag_p99_ms", Quantile(open_loop.lag_ms, 0.99), "ms");
  report.Add("stream.generator_late_ms", open_loop.late_ms, "ms");
  report.Add("trace.overhead_pct",
             (Median(traced_ms) / Median(untraced_ms) - 1.0) * 100.0, "%");
}

std::vector<double> IngestCosts(std::uint64_t set) {
  Report report;
  std::vector<double> costs;
  for (const auto& items : MakeStreams(set)) {
    costs.push_back(ReplayOne(items, report).cost);
  }
  return costs;
}

}  // namespace perfbench
