// Oracle microbenchmarks: per-bucket Cost(s, e) latency for every metric.
//
// These back the per-theorem complexity claims (paper Theorems 1-4, 6):
//   SSE / SSRE           O(1)          — flat across bucket widths
//   SAE / SARE           O(log |V|)    — flat across widths, grows with |V|
//   MAE / MARE           O(n_b log...) — linear-ish in bucket width
// plus the tuple-pdf SSE sweep's amortized O(1 + postings) extension, and
// the point-error tables behind the re-costs and the wavelet DPs: their
// build and a wavelet re-cost, at two input shapes, with the peak heap
// bytes one call holds ("bytes", counted by this binary's operator new).

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "core/evaluate.h"
#include "core/oracle_factory.h"
#include "core/point_error.h"
#include "core/wavelet.h"
#include "gen/generators.h"
#include "model/induced.h"
#include "util/logging.h"

// Heap accounting for the "bytes" counters: every allocation through the
// replaceable operator new carries a header with its size, so the live byte
// count and its peak can be read around one call.
namespace {
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_bytes{0};
constexpr std::size_t kHeader = alignof(std::max_align_t);
}  // namespace

void* operator new(std::size_t size) {
  void* block = std::malloc(size + kHeader);
  if (block == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(block) = size;
  const std::int64_t live =
      g_live_bytes.fetch_add(static_cast<std::int64_t>(size)) +
      static_cast<std::int64_t>(size);
  std::int64_t peak = g_peak_bytes.load();
  while (live > peak && !g_peak_bytes.compare_exchange_weak(peak, live)) {
  }
  return static_cast<char*>(block) + kHeader;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  void* block = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(
      static_cast<std::int64_t>(*static_cast<std::size_t*>(block)));
  std::free(block);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace probsyn {
namespace {

// The most heap bytes `call` holds at once beyond what was live before it.
template <typename Call>
double PeakHeapBytes(const Call& call) {
  const std::int64_t base = g_live_bytes.load();
  g_peak_bytes.store(base);
  call();
  return static_cast<double>(g_peak_bytes.load() - base);
}

const ValuePdfInput& Data() {
  static const ValuePdfInput input = [] {
    BasicModelInput basic =
        GenerateMovieLinkage({.domain_size = 8192, .seed = 11});
    auto induced = InduceValuePdf(basic);
    PROBSYN_CHECK(induced.ok());
    return std::move(induced).value();
  }();
  return input;
}

void CostLoop(benchmark::State& state, ErrorMetric metric) {
  SynopsisOptions options;
  options.metric = metric;
  options.sanity_c = 0.5;
  options.sse_variant = SseVariant::kFixedRepresentative;
  auto bundle = MakeBucketOracle(Data(), options);
  PROBSYN_CHECK(bundle.ok());
  const std::size_t width = static_cast<std::size_t>(state.range(0));
  const std::size_t n = Data().domain_size();
  std::size_t s = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bundle->oracle->Cost(s, s + width - 1));
    s = (s + 97) % (n - width);
  }
  state.counters["width"] = static_cast<double>(width);
}

void BM_OracleCost_SSE(benchmark::State& state) {
  CostLoop(state, ErrorMetric::kSse);
}
void BM_OracleCost_SSRE(benchmark::State& state) {
  CostLoop(state, ErrorMetric::kSsre);
}
void BM_OracleCost_SAE(benchmark::State& state) {
  CostLoop(state, ErrorMetric::kSae);
}
void BM_OracleCost_SARE(benchmark::State& state) {
  CostLoop(state, ErrorMetric::kSare);
}
void BM_OracleCost_MAE(benchmark::State& state) {
  CostLoop(state, ErrorMetric::kMae);
}
void BM_OracleCost_MARE(benchmark::State& state) {
  CostLoop(state, ErrorMetric::kMare);
}

void BM_TupleSseSweepExtend(benchmark::State& state) {
  static const TuplePdfInput input = GenerateMaybmsTpch(
      {.domain_size = 8192, .num_tuples = 32768, .seed = 12});
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  options.sse_variant = SseVariant::kWorldMean;
  auto bundle = MakeBucketOracle(input, options);
  PROBSYN_CHECK(bundle.ok());
  // Amortized extension cost over one full sweep.
  for (auto _ : state) {
    auto sweep = bundle->oracle->StartSweep(input.domain_size() - 1);
    double sink = 0.0;
    for (std::size_t s = input.domain_size() - 1;; --s) {
      sink += sweep->Extend().cost;
      if (s == 0) break;
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(input.domain_size()));
}

// The two shapes of the end-to-end benchmark's re-costs: bulk's
// movie-linkage relation (n = 65536, |V| = 13) and refresh's TPC-H-style
// one (n = 2048, |V| = 378), induced to value pdfs, with the greedy
// wavelet synopsis each workload re-costs.
struct Shape {
  ValuePdfInput input;
  WaveletSynopsis synopsis;
};

const Shape& ShapeAt(std::int64_t which) {
  static const Shape bulk = [] {
    auto induced = InduceValuePdf(
        GenerateMovieLinkage({.domain_size = 65536, .seed = 2001}));
    PROBSYN_CHECK(induced.ok());
    auto synopsis = BuildSseOptimalWavelet(*induced, 256);
    PROBSYN_CHECK(synopsis.ok());
    return Shape{std::move(induced).value(), std::move(synopsis).value()};
  }();
  static const Shape refresh = [] {
    auto induced = InduceValuePdf(GenerateMaybmsTpch(
        {.domain_size = 2048, .num_tuples = 8192, .seed = 1001}));
    PROBSYN_CHECK(induced.ok());
    auto synopsis = BuildSseOptimalWavelet(*induced, 64);
    PROBSYN_CHECK(synopsis.ok());
    return Shape{std::move(induced).value(), std::move(synopsis).value()};
  }();
  return which == 0 ? bulk : refresh;
}

void LabelShape(benchmark::State& state, const Shape& shape) {
  state.SetLabel((state.range(0) == 0 ? "bulk n=" : "refresh n=") +
                 std::to_string(shape.input.domain_size()) + " |V|=" +
                 std::to_string(shape.input.ValueGrid().size()));
}

// The tables one metric's build fills over one shape's input, as the
// wavelet DPs and the evaluators build them.
void BM_PointErrorTablesBuild(benchmark::State& state) {
  const Shape& shape = ShapeAt(state.range(0));
  const auto metric = static_cast<ErrorMetric>(state.range(1));
  LabelShape(state, shape);
  auto build = [&] {
    PointErrorTables tables(shape.input, 0.5, metric,
                            shape.input.domain_size());
    benchmark::DoNotOptimize(tables.domain_size());
  };
  state.counters["bytes"] = PeakHeapBytes(build);
  for (auto _ : state) build();
}

// One wavelet re-cost under `metric`, as the greedy route and the
// wavelet floor of the degradation ladder run it.
void EvaluateWaveletLoop(benchmark::State& state, ErrorMetric metric) {
  const Shape& shape = ShapeAt(state.range(0));
  LabelShape(state, shape);
  SynopsisOptions options;
  options.metric = metric;
  auto evaluate = [&] {
    auto cost = EvaluateWavelet(shape.input, shape.synopsis, options);
    PROBSYN_CHECK(cost.ok());
    benchmark::DoNotOptimize(*cost);
  };
  state.counters["bytes"] = PeakHeapBytes(evaluate);
  for (auto _ : state) evaluate();
}

void BM_EvaluateWavelet_SSE(benchmark::State& state) {
  EvaluateWaveletLoop(state, ErrorMetric::kSse);
}
void BM_EvaluateWavelet_SAE(benchmark::State& state) {
  EvaluateWaveletLoop(state, ErrorMetric::kSae);
}

}  // namespace
}  // namespace probsyn

BENCHMARK(probsyn::BM_OracleCost_SSE)->Arg(16)->Arg(256)->Arg(4096);
BENCHMARK(probsyn::BM_OracleCost_SSRE)->Arg(16)->Arg(256)->Arg(4096);
BENCHMARK(probsyn::BM_OracleCost_SAE)->Arg(16)->Arg(256)->Arg(4096);
BENCHMARK(probsyn::BM_OracleCost_SARE)->Arg(16)->Arg(256)->Arg(4096);
BENCHMARK(probsyn::BM_OracleCost_MAE)->Arg(16)->Arg(256)->Arg(4096);
BENCHMARK(probsyn::BM_OracleCost_MARE)->Arg(16)->Arg(256)->Arg(4096);
BENCHMARK(probsyn::BM_TupleSseSweepExtend)->Unit(benchmark::kMillisecond);
// Arguments: 0 = bulk's shape, 1 = refresh's; then the ErrorMetric value
// (0 = SSE ... 5 = MARE).
BENCHMARK(probsyn::BM_PointErrorTablesBuild)
    ->ArgsProduct({{0, 1}, {0, 1, 2, 3, 4, 5}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(probsyn::BM_EvaluateWavelet_SSE)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(probsyn::BM_EvaluateWavelet_SAE)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
