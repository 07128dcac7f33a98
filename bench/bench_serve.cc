// Serving-tier benchmarks: query throughput of SynopsisServer over a
// memory-mapped store, plus codec round-trip and store-open latencies.
//
//   BM_ServeQps          point-estimate queries/sec against a B-bucket
//                        histogram over n = 2^20 (the acceptance floor is
//                        1M queries/sec single-thread; see
//                        docs/benchmarks.md)
//   BM_ServeQpsThreaded  the same point-estimate stream fanned over 1/2/4
//                        reader threads against ONE shared server — the
//                        read path is lock-free over the mmap, so
//                        items/sec (aggregated across threads) should
//                        scale with physical cores; on a single-core host
//                        the >1-thread rows measure scheduling overhead
//                        only
//   BM_ServeWaveletQps   point estimates against a B-coefficient wavelet
//                        (one O(log n) root-to-leaf walk per query)
//   BM_ServeRangeSum     random-range sums against the same histogram
//   BM_ServeWaveletRangeSum
//                        the same random ranges against the wavelet (the
//                        <= 2 log2 n coefficients straddling the ends)
//   BM_ServeNamedPoints  one probe of the perfbench serve workload: 16
//                        name-keyed SynopsisServer::PointEstimate calls on
//                        one entry of a 64-entry store (48 histograms,
//                        16 wavelets), so the per-call name lookup and
//                        Status boxing show next to the handle rows above
//   BM_CodecRoundTrip    EncodeHistogram + DecodeHistogram of a B-bucket
//                        synopsis (bytes_per_second = blob bytes each way)
//   BM_StoreOpen         SynopsisStore::Open of a 64-entry store — the
//                        O(directory) mmap + index build, not O(file)
//
// Queries walk an LCG index stream so the bucket binary search sees an
// adversarial (non-sequential) access pattern rather than a cached hot path.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "serve/synopsis_server.h"
#include "util/logging.h"

namespace probsyn {
namespace {

constexpr std::size_t kDomain = std::size_t{1} << 20;

// A deterministic B-bucket histogram over kDomain: equal-width buckets with
// varying representatives. Construction cost is irrelevant here — these
// benchmarks measure the serving side.
Histogram MakeHistogram(std::size_t num_buckets) {
  std::vector<HistogramBucket> buckets;
  buckets.reserve(num_buckets);
  const std::size_t width = kDomain / num_buckets;
  for (std::size_t k = 0; k < num_buckets; ++k) {
    const std::size_t start = k * width;
    const std::size_t end =
        k + 1 == num_buckets ? kDomain - 1 : start + width - 1;
    buckets.push_back(
        {start, end, static_cast<double>((k * 2654435761u) % 1000) / 8.0});
  }
  return Histogram(std::move(buckets));
}

WaveletSynopsis MakeWavelet(std::size_t num_coefficients) {
  std::vector<WaveletCoefficient> coefficients;
  coefficients.reserve(num_coefficients);
  const std::size_t stride = kDomain / num_coefficients;
  for (std::size_t k = 0; k < num_coefficients; ++k) {
    coefficients.push_back(
        {k * stride, static_cast<double>((k * 40503u) % 512) / 4.0 - 60.0});
  }
  return WaveletSynopsis(kDomain, kDomain, std::move(coefficients));
}

// Writes a two-entry store and opens a server over it.
SynopsisServer MakeServer(const char* tag, std::size_t num_buckets,
                          std::size_t num_coefficients) {
  SynopsisStoreWriter writer;
  PROBSYN_CHECK(writer.AddHistogram("h", MakeHistogram(num_buckets)).ok());
  PROBSYN_CHECK(writer.AddWavelet("w", MakeWavelet(num_coefficients)).ok());
  const std::string path =
      std::string("/tmp/probsyn_bench_") + tag + ".synstore";
  PROBSYN_CHECK(writer.WriteFile(path).ok());
  auto server = SynopsisServer::Open(path);
  PROBSYN_CHECK(server.ok());
  std::remove(path.c_str());  // the mapping outlives the directory entry
  return std::move(server).value();
}

void BM_ServeQps(benchmark::State& state) {
  SynopsisServer server =
      MakeServer("qps", static_cast<std::size_t>(state.range(0)), 64);
  const ServedSynopsis* synopsis = server.Find("h");
  PROBSYN_CHECK(synopsis != nullptr);
  std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
  for (auto _ : state) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    benchmark::DoNotOptimize(
        synopsis->PointEstimate((lcg >> 16) % kDomain));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_ServeQpsThreaded(benchmark::State& state) {
  // One server shared by every reader thread (the concurrency contract
  // under test); magic-static init keeps construction single-threaded.
  static SynopsisServer& server = *new SynopsisServer(
      MakeServer("qps_mt", 1024, 64));
  const ServedSynopsis* synopsis = server.Find("h");
  PROBSYN_CHECK(synopsis != nullptr);
  // Distinct per-thread LCG seeds so threads do not walk the same index
  // stream in lockstep (which would overstate cache locality).
  std::uint64_t lcg = 0x9e3779b97f4a7c15ull *
                      static_cast<std::uint64_t>(state.thread_index() + 1);
  for (auto _ : state) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    benchmark::DoNotOptimize(
        synopsis->PointEstimate((lcg >> 16) % kDomain));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_ServeWaveletQps(benchmark::State& state) {
  SynopsisServer server =
      MakeServer("wqps", 64, static_cast<std::size_t>(state.range(0)));
  const ServedSynopsis* synopsis = server.Find("w");
  PROBSYN_CHECK(synopsis != nullptr);
  std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
  for (auto _ : state) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    benchmark::DoNotOptimize(
        synopsis->PointEstimate((lcg >> 16) % kDomain));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_ServeRangeSum(benchmark::State& state) {
  SynopsisServer server =
      MakeServer("range", static_cast<std::size_t>(state.range(0)), 64);
  const ServedSynopsis* synopsis = server.Find("h");
  PROBSYN_CHECK(synopsis != nullptr);
  std::uint64_t lcg = 0x2545f4914f6cdd1dull;
  for (auto _ : state) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const std::size_t a = (lcg >> 16) % (kDomain / 2);
    const std::size_t b = a + (lcg >> 40) % (kDomain - a);
    benchmark::DoNotOptimize(synopsis->RangeSum(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_ServeWaveletRangeSum(benchmark::State& state) {
  SynopsisServer server =
      MakeServer("wrange", 64, static_cast<std::size_t>(state.range(0)));
  const ServedSynopsis* synopsis = server.Find("w");
  PROBSYN_CHECK(synopsis != nullptr);
  std::uint64_t lcg = 0x2545f4914f6cdd1dull;
  for (auto _ : state) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const std::size_t a = (lcg >> 16) % (kDomain / 2);
    const std::size_t b = a + (lcg >> 40) % (kDomain - a);
    benchmark::DoNotOptimize(synopsis->RangeSum(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_ServeNamedPoints(benchmark::State& state) {
  constexpr std::size_t kEntries = 64;
  constexpr std::size_t kCallsPerProbe = 16;
  // One entry in four is a wavelet; histograms take B = 32..2048 and
  // wavelets 64..1024 coefficients.
  SynopsisStoreWriter writer;
  std::vector<std::string> names;
  for (std::size_t k = 0; k < kEntries; ++k) {
    names.push_back("s" + std::to_string(k));
    if (k % 4 == 3) {
      PROBSYN_CHECK(writer
                        .AddWavelet(names.back(),
                                    MakeWavelet(std::size_t{64} << (k / 4 % 5)))
                        .ok());
    } else {
      PROBSYN_CHECK(writer
                        .AddHistogram(names.back(),
                                      MakeHistogram(std::size_t{32} << (k % 8)))
                        .ok());
    }
  }
  const std::string path = "/tmp/probsyn_bench_named.synstore";
  PROBSYN_CHECK(writer.WriteFile(path).ok());
  auto server = SynopsisServer::Open(path);
  PROBSYN_CHECK(server.ok());
  std::remove(path.c_str());
  std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
  for (auto _ : state) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const std::string& name = names[(lcg >> 33) % kEntries];
    for (std::size_t c = 0; c < kCallsPerProbe; ++c) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      auto value = server->PointEstimate(name, (lcg >> 16) % kDomain);
      benchmark::DoNotOptimize(value);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    kCallsPerProbe));
}

void BM_CodecRoundTrip(benchmark::State& state) {
  Histogram histogram = MakeHistogram(static_cast<std::size_t>(state.range(0)));
  std::size_t blob_bytes = 0;
  for (auto _ : state) {
    auto blob = EncodeHistogram(histogram);
    PROBSYN_CHECK(blob.ok());
    blob_bytes = blob->size();
    auto decoded = DecodeHistogram(
        {reinterpret_cast<const std::uint8_t*>(blob->data()), blob->size()});
    PROBSYN_CHECK(decoded.ok());
    benchmark::DoNotOptimize(decoded->num_buckets());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(blob_bytes));
  state.counters["blob_bytes"] = static_cast<double>(blob_bytes);
}

void BM_StoreOpen(benchmark::State& state) {
  SynopsisStoreWriter writer;
  for (int k = 0; k < 64; ++k) {
    PROBSYN_CHECK(
        writer.AddHistogram("h" + std::to_string(k), MakeHistogram(256)).ok());
  }
  const std::string path = "/tmp/probsyn_bench_open.synstore";
  PROBSYN_CHECK(writer.WriteFile(path).ok());
  for (auto _ : state) {
    auto store = SynopsisStore::Open(path);
    PROBSYN_CHECK(store.ok());
    benchmark::DoNotOptimize(store->size());
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace probsyn

BENCHMARK(probsyn::BM_ServeQps)->Arg(64)->Arg(1024)->Arg(16384);
BENCHMARK(probsyn::BM_ServeQpsThreaded)
    ->Threads(1)->Threads(2)->Threads(4)->UseRealTime();
BENCHMARK(probsyn::BM_ServeWaveletQps)->Arg(64)->Arg(1024);
BENCHMARK(probsyn::BM_ServeRangeSum)->Arg(64)->Arg(1024);
BENCHMARK(probsyn::BM_ServeWaveletRangeSum)->Arg(64)->Arg(1024);
BENCHMARK(probsyn::BM_ServeNamedPoints);
BENCHMARK(probsyn::BM_CodecRoundTrip)->Arg(64)->Arg(1024)->Arg(16384);
BENCHMARK(probsyn::BM_StoreOpen);

BENCHMARK_MAIN();
