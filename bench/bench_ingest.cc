// Ingest-tier benchmarks: streaming construction throughput and per-push
// latency distributions, single-stream and through the concurrent
// IngestCoordinator.
//
//   BM_IngestPushBatch    one stream (n = 20000, B = 32) fed in PushBatch
//                         blocks (Arg = block size; bit-identical output
//                         for every size). Arg 1 is one item per call, as
//                         a trickle-fed ingest stream drains; counters
//                         carry the per-call latency histogram
//                         (p50/p99/p999 ns). The acceptance floor is
//                         >= 3x Arg 1's items/sec at block 256 (see
//                         docs/benchmarks.md)
//   BM_IngestMultiStream  8 independent streams through one
//                         IngestCoordinator (Arg = engine parallelism):
//                         submit waves + DrainAll fan-out; items/sec is
//                         the AGGREGATE updates/sec across streams (the
//                         acceptance floor is 1M/sec), counters carry the
//                         per-drain-block latency histogram
//
// Latency percentiles come from a full per-event reservoir (no binning):
// every push / batch / drain block is timed with steady_clock and the
// counters report exact order statistics of the last iteration.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "bench_util.h"
#include "gen/generators.h"
#include "engine/synopsis_engine.h"
#include "stream/ingest_coordinator.h"
#include "stream/streaming_histogram.h"
#include "util/logging.h"

namespace probsyn {
namespace {

constexpr std::size_t kItems = 20000;
constexpr std::size_t kBuckets = 32;
constexpr double kEpsilon = 0.1;

const ValuePdfInput& Data() {
  static const ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = kItems, .max_support = 4, .max_value = 9, .seed = 7});
  return input;
}

double NsBetween(std::chrono::steady_clock::time_point a,
                 std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

// Exact order statistic of the reservoir (reordered in place).
double PercentileNs(std::vector<double>& ns, double p) {
  PROBSYN_CHECK(!ns.empty());
  const std::size_t index =
      static_cast<std::size_t>(p * static_cast<double>(ns.size() - 1));
  std::nth_element(ns.begin(), ns.begin() + index, ns.end());
  return ns[index];
}

void ReportLatency(benchmark::State& state, std::vector<double>& ns) {
  state.counters["p50_ns"] = PercentileNs(ns, 0.50);
  state.counters["p99_ns"] = PercentileNs(ns, 0.99);
  state.counters["p999_ns"] = PercentileNs(ns, 0.999);
}

void BM_IngestPushBatch(benchmark::State& state) {
  const ValuePdfInput& input = Data();
  const std::size_t block = static_cast<std::size_t>(state.range(0));
  StreamChainStore store;
  std::vector<double> latency;
  latency.reserve(kItems / block + 1);
  const std::span<const ValuePdf> items(input.items().data(), kItems);
  for (auto _ : state) {
    latency.clear();
    StreamingHistogramBuilder builder(kBuckets, kEpsilon, &store);
    for (std::size_t offset = 0; offset < kItems; offset += block) {
      const std::size_t take = std::min(block, kItems - offset);
      const auto start = std::chrono::steady_clock::now();
      builder.PushBatch(items.subspan(offset, take));
      latency.push_back(NsBetween(start, std::chrono::steady_clock::now()));
    }
    benchmark::DoNotOptimize(builder.breakpoints());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kItems));
  ReportLatency(state, latency);  // per PushBatch-call (block) latencies
  state.counters["block"] = static_cast<double>(block);
}
BENCHMARK(BM_IngestPushBatch)->Arg(1)->Arg(4)->Arg(32)->Arg(256)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

// Multi-stream: a cheap per-stream configuration (small B, loose epsilon —
// the regime where ingest-side overheads could dominate) so the aggregate
// measures the coordinator, not one heavyweight DP.
constexpr std::size_t kStreams = 8;
constexpr std::size_t kItemsPerStream = 16384;
constexpr std::size_t kWave = 4096;

const std::vector<ValuePdfInput>& MultiData() {
  static const std::vector<ValuePdfInput> inputs = [] {
    std::vector<ValuePdfInput> out;
    out.reserve(kStreams);
    for (std::size_t s = 0; s < kStreams; ++s) {
      out.push_back(GenerateRandomValuePdf({.domain_size = kItemsPerStream,
                                            .max_support = 4,
                                            .max_value = 9,
                                            .seed = 1000 + s}));
    }
    return out;
  }();
  return inputs;
}

void BM_IngestMultiStream(benchmark::State& state) {
  const std::vector<ValuePdfInput>& inputs = MultiData();
  SynopsisEngine engine(SynopsisEngine::Options{
      .parallelism = static_cast<std::size_t>(state.range(0))});
  IngestOptions options;
  options.max_buckets = 4;
  options.epsilon = 1.0;
  options.queue_capacity = kWave;
  options.drain_batch = 512;
  std::vector<double> latency;
  latency.reserve(kStreams * kItemsPerStream / options.drain_batch + 16);
  for (auto _ : state) {
    latency.clear();
    auto coordinator = engine.OpenIngest(options);
    PROBSYN_CHECK(coordinator.ok());
    IngestCoordinator& coord = **coordinator;
    for (std::size_t s = 0; s < kStreams; ++s) coord.OpenStream();
    for (std::size_t offset = 0; offset < kItemsPerStream; offset += kWave) {
      for (std::size_t s = 0; s < kStreams; ++s) {
        const std::span<const ValuePdf> items(inputs[s].items().data(),
                                              kItemsPerStream);
        PROBSYN_CHECK(
            coord.SubmitBatch(s, items.subspan(offset, kWave)).ok());
      }
      const auto start = std::chrono::steady_clock::now();
      PROBSYN_CHECK(coord.DrainAll().ok());
      latency.push_back(NsBetween(start, std::chrono::steady_clock::now()) /
                        static_cast<double>(kStreams * kWave / 512));
    }
    PROBSYN_CHECK(coord.stats().pushed == kStreams * kItemsPerStream);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kStreams) *
                          static_cast<std::int64_t>(kItemsPerStream));
  ReportLatency(state, latency);  // per 512-item drain block, amortized
  state.counters["streams"] = static_cast<double>(kStreams);
}
BENCHMARK(BM_IngestMultiStream)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace probsyn

BENCHMARK_MAIN();
