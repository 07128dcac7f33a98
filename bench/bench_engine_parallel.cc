// SynopsisEngine tentpole benchmarks:
//
// kernel = 0 rows time the textbook solvers of tests/reference
// (probsyn_reference), the parity baselines the library's kernels are
// bit-identical to; kernel = 1 rows time the library.
//
//   (a) exact-DP kernels — the textbook DP (virtual sweeps + scalar scan)
//       vs the specialized devirtualized kernel (core/dp_kernels.h) at 1..8 lanes,
//       n up to 4096, B = 64. The acceptance bar for the kernel subsystem
//       is >= 2x single-thread at n = 4096, B = 64 on the O(1) SSE oracle
//       (kernel=1 vs kernel=0 rows at lanes = 1); the bench reports
//       whatever the current machine delivers.
//   (b) exact-DP max-combiner — same comparison under DpCombiner::kMax,
//       where the kernel's monotone-split bisection replaces the O(j) scan
//       per cell with O(log j).
//   (c) engine batching — a 15-budget cost-vs-B sweep served as one batch
//       (one oracle, one DP, one workspace) vs 15 independent Build calls.
//   (d) approximate-DP point-cost kernels — the generic path's virtual
//       Cost() per candidate (kernel = 0, through a forwarding oracle) vs
//       the devirtualized evaluator (SSE's inlined prefix subtractions,
//       SAE's inlined convex search, kernel = 1).
//   (e) wavelet budget-split kernels — the restricted and unrestricted
//       coefficient-tree DPs with MinBudgetSplit's chunked min-reduction /
//       monotone bisection (kernel = 1 rows only: the split scan is no
//       longer selectable, so there is no kernel = 0 row).
//   (f) warm-started SAE sweeps — the exact DP over AbsCumulativeOracle,
//       whose FlatSweep carries the previous cell's optimal grid index
//       (kernel = 1) vs the textbook DP running the same warm sweep
//       through the virtual adapter (kernel = 0): the remaining gap is
//       dispatch overhead plus the scalar cell scan. What warm starts
//       themselves save (against cold restarts) is in docs/benchmarks.md.
//   (g) streaming merge kernels — the one-pass builder's per-item
//       candidate minimization with the textbook compare-and-copy scan
//       (kernel = 0) vs the library builder (hoisted snapshot columns +
//       SIMD min-reduction + persistent chains, kernel = 1).
//   (h) 2-D guillotine DP kernels — the per-(rectangle, budget) recursive
//       scalar solver (kernel = 0) vs the budget-vector memo with
//       SIMD budget-split min-reductions (kernel = 1).
//
//   (i) parallel wavelet arena fill — the restricted DP's level sweeps
//       fanned out across 1/2/4/8 lanes at the acceptance point n = 1024,
//       B = 64 (bit-identical outputs; speedup = lanes=1 row / lanes=L
//       row — on a multi-core host real_time drops, on a single-core CI
//       box only cpu_time tells the story, as with the exact-DP rows).
//   (j) streaming push latency — whole-stream time at a wide layer count
//       (B = 32), where the textbook scan's per-push winner-chain copies
//       are O(B^2) and the persistent chain store's are O(B); compare
//       kernel = 0 vs 1 and against the B = 16 series (g).
//   (k) sharded construction — the engine's sharded route
//       (core/sharded_dp.h) at n = 1e5 and 1e6, S shards x `threads`
//       lanes, exact and approx shard solvers. shards = 1 rows run the
//       UNSHARDED route (RequestSharding::Mode::kOff) as the baseline the
//       acceptance speedup is measured against; heavy rows pin
//       Iterations(1) so the full suite stays CI-sized. Two effects
//       compose: the per-shard budget cap shrinks each shard's DP
//       superlinearly (visible even at 1 thread), and shard solves run
//       concurrently (visible in real_time only on a multi-core host — on
//       a single-core box threads > 1 can only add scheduling overhead).
//
// The restricted-wavelet series (e) carry the PR 4 acceptance point
// n = 1024, B = 64: the arena-backed bottom-up solver vs the PR 3
// hash-memo baseline committed in BENCH_baseline.json.
//
// Run via the `bench_json` target (or with --benchmark_out=...) to emit
// machine-readable BENCH_bench_engine_parallel.json.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstddef>
#include <map>
#include <vector>

#include "core/dp_kernels.h"
#include "core/histogram2d.h"
#include "core/histogram_dp.h"
#include "core/oracle_factory.h"
#include "core/wavelet_dp.h"
#include "engine/synopsis_engine.h"
#include "gen/generators.h"
#include "reference/reference_solvers.h"
#include "stream/streaming_histogram.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace probsyn {
namespace {

ValuePdfInput MakeInput(std::size_t n) {
  return GenerateRandomValuePdf({.domain_size = n, .seed = 20090401});
}

SynopsisOptions SseOptions() {
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  options.sse_variant = SseVariant::kFixedRepresentative;
  return options;
}

// (a)/(b) The O(B n^2) exact DP: the textbook DP (kernelized = 0, one lane,
// allocating its own tables) vs the specialized kernel (kernelized = 1),
// sequential (lanes = 1) vs parallel. A reused workspace keeps the
// kernel's steady-state allocation at zero, as the engine does.
void RunExactDp(benchmark::State& state, DpCombiner combiner) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t lanes = static_cast<std::size_t>(state.range(1));
  const bool kernelized = state.range(2) != 0;
  const std::size_t kBuckets = 64;

  ValuePdfInput input = MakeInput(n);
  auto bundle = MakeBucketOracle(input, SseOptions());
  PROBSYN_CHECK(bundle.ok());
  ThreadPool pool(lanes > 1 ? lanes - 1 : 0);

  DpWorkspace workspace;
  DpKernelOptions options;
  options.pool = lanes > 1 ? &pool : nullptr;
  options.workspace = &workspace;

  for (auto _ : state) {
    if (kernelized) {
      HistogramDpResult dp = SolveHistogramDp(
          *bundle->oracle, kBuckets, combiner, options);
      benchmark::DoNotOptimize(dp.OptimalCost(kBuckets));
    } else {
      reference::ExactDpTables dp =
          reference::SolveExactDp(*bundle->oracle, kBuckets, combiner);
      benchmark::DoNotOptimize(dp.err.back());
    }
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["lanes"] = static_cast<double>(lanes);
  state.counters["B"] = static_cast<double>(kBuckets);
  state.counters["kernel"] = kernelized ? 1.0 : 0.0;
  // Speedup(n, L, k) = Time(n, 1, 0) / Time(n, L, k) across rows of equal n.
}

void BM_ExactDp(benchmark::State& state) {
  RunExactDp(state, DpCombiner::kSum);
}

void BM_ExactDpMaxCombiner(benchmark::State& state) {
  RunExactDp(state, DpCombiner::kMax);
}

// The exact DP over the MAE / MARE oracles, {n, lanes}: every bucket cost
// probes the point-error tables (EnvelopeAt, then AbsoluteErrorLine per
// item of the two candidate segments). The oracle is built once.
void RunExactDpMaxMetric(benchmark::State& state, ErrorMetric metric) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t lanes = static_cast<std::size_t>(state.range(1));
  const std::size_t kBuckets = 16;

  ValuePdfInput input = MakeInput(n);
  SynopsisOptions options;
  options.metric = metric;
  options.sanity_c = 0.5;
  auto bundle = MakeBucketOracle(input, options);
  PROBSYN_CHECK(bundle.ok());
  ThreadPool pool(lanes > 1 ? lanes - 1 : 0);
  DpWorkspace workspace;
  DpKernelOptions dp_options;
  dp_options.pool = lanes > 1 ? &pool : nullptr;
  dp_options.workspace = &workspace;

  for (auto _ : state) {
    HistogramDpResult dp = SolveHistogramDp(*bundle->oracle, kBuckets,
                                            DpCombiner::kMax, dp_options);
    benchmark::DoNotOptimize(dp.OptimalCost(kBuckets));
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["lanes"] = static_cast<double>(lanes);
  state.counters["B"] = static_cast<double>(kBuckets);
}

void BM_ExactDpMae(benchmark::State& state) {
  RunExactDpMaxMetric(state, ErrorMetric::kMae);
}

void BM_ExactDpMare(benchmark::State& state) {
  RunExactDpMaxMetric(state, ErrorMetric::kMare);
}

// (d) The approximate DP's sparse candidate evaluations: virtual Cost()
// through a forwarding oracle's generic path (kernelized = 0) vs the
// devirtualized point-cost kernel (kernelized = 1).
void RunApproxDp(benchmark::State& state, ErrorMetric metric) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const bool kernelized = state.range(1) != 0;
  const std::size_t kBuckets = 64;
  const double kEpsilon = 0.1;

  ValuePdfInput input = MakeInput(n);
  SynopsisOptions options;
  options.metric = metric;
  options.sse_variant = SseVariant::kFixedRepresentative;
  auto bundle = MakeBucketOracle(input, options);
  PROBSYN_CHECK(bundle.ok());

  const reference::ForwardingOracle generic(*bundle->oracle);
  const BucketCostOracle& oracle =
      kernelized ? *bundle->oracle
                 : static_cast<const BucketCostOracle&>(generic);
  std::size_t evaluations = 0;
  for (auto _ : state) {
    auto result = SolveApproxHistogramDp(oracle, kBuckets, kEpsilon);
    PROBSYN_CHECK(result.ok());
    evaluations = result->oracle_evaluations;
    benchmark::DoNotOptimize(result->cost);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["B"] = static_cast<double>(kBuckets);
  state.counters["eps"] = kEpsilon;
  state.counters["kernel"] = kernelized ? 1.0 : 0.0;
  state.counters["evaluations"] = static_cast<double>(evaluations);
}

void BM_ApproxDpSse(benchmark::State& state) {
  RunApproxDp(state, ErrorMetric::kSse);
}

void BM_ApproxDpSae(benchmark::State& state) {
  RunApproxDp(state, ErrorMetric::kSae);
}

// (e) Wavelet coefficient-tree DPs through the MinBudgetSplit kernels. kMae
// exercises the max-combiner bisection, kSse the chunked sum reduction.
// The third argument is always 1: it keeps the row names of the series
// from when it also had split-scan (kernel = 0) rows.
void RunWaveletRestricted(benchmark::State& state, ErrorMetric metric) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t coeffs = static_cast<std::size_t>(state.range(1));

  ValuePdfInput input = MakeInput(n);
  SynopsisOptions options;
  options.metric = metric;
  for (auto _ : state) {
    auto result = BuildRestrictedWaveletDp(input, coeffs, options);
    PROBSYN_CHECK(result.ok());
    benchmark::DoNotOptimize(result->cost);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["B"] = static_cast<double>(coeffs);
  state.counters["kernel"] = static_cast<double>(state.range(2));
}

void BM_WaveletRestrictedDpMae(benchmark::State& state) {
  RunWaveletRestricted(state, ErrorMetric::kMae);
}

void BM_WaveletRestrictedDpSae(benchmark::State& state) {
  RunWaveletRestricted(state, ErrorMetric::kSae);
}

// (i) Thread-scaling of the restricted wavelet DP's parallel arena fill:
// identical solve at 1..8 lanes through a reused workspace (zero
// steady-state allocation, like the engine route). Outputs are
// bit-identical across rows; only the wall clock moves.
void RunWaveletRestrictedParallel(benchmark::State& state,
                                  ErrorMetric metric) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t coeffs = static_cast<std::size_t>(state.range(1));
  const std::size_t lanes = static_cast<std::size_t>(state.range(2));

  ValuePdfInput input = MakeInput(n);
  SynopsisOptions options;
  options.metric = metric;
  ThreadPool pool(lanes > 1 ? lanes - 1 : 0);
  DpWorkspace workspace;
  for (auto _ : state) {
    auto result = BuildRestrictedWaveletDp(input, coeffs, options, 2048,
                                           &workspace,
                                           lanes > 1 ? &pool : nullptr);
    PROBSYN_CHECK(result.ok());
    benchmark::DoNotOptimize(result->cost);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["B"] = static_cast<double>(coeffs);
  state.counters["lanes"] = static_cast<double>(lanes);
  // Speedup(L) = Time(lanes=1) / Time(lanes=L) across rows of equal n, B.
}

void BM_WaveletRestrictedDpParallelMae(benchmark::State& state) {
  RunWaveletRestrictedParallel(state, ErrorMetric::kMae);
}

void BM_WaveletRestrictedDpParallelSae(benchmark::State& state) {
  RunWaveletRestrictedParallel(state, ErrorMetric::kSae);
}

// One stream item per call: the textbook builder's Push, the library
// builder's one-item PushBatch.
void PushItem(reference::StreamingBuilder& builder, const ValuePdf& pdf) {
  builder.Push(pdf);
}
void PushItem(StreamingHistogramBuilder& builder, const ValuePdf& pdf) {
  builder.PushBatch({&pdf, 1});
}

// (g) Streaming merge kernels: the textbook compare-and-copy candidate scan
// vs the library builder over hoisted snapshot columns, one item per call.
void BM_StreamingMerge(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const bool kernelized = state.range(1) != 0;
  const std::size_t kBuckets = 16;
  const double kEpsilon = 0.1;
  ValuePdfInput input = MakeInput(n);
  auto stream = [&input](auto& builder) {
    for (const ValuePdf& pdf : input.items()) PushItem(builder, pdf);
    auto result = builder.Finish();
    PROBSYN_CHECK(result.ok());
    benchmark::DoNotOptimize(result->cost);
  };
  for (auto _ : state) {
    if (kernelized) {
      StreamingHistogramBuilder builder(kBuckets, kEpsilon);
      stream(builder);
    } else {
      reference::StreamingBuilder builder(kBuckets, kEpsilon);
      stream(builder);
    }
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["B"] = static_cast<double>(kBuckets);
  state.counters["eps"] = kEpsilon;
  state.counters["kernel"] = kernelized ? 1.0 : 0.0;
}

// (j) Streaming push latency at a wide layer count: the textbook scan
// copies each layer's winner chain per push (O(B^2) snapshots), the
// library builder takes one persistent-chain operation per layer (O(B)).
// items_per_second is the push throughput.
void BM_StreamingPushLatency(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t buckets = static_cast<std::size_t>(state.range(1));
  const bool kernelized = state.range(2) != 0;
  const double kEpsilon = 0.1;
  ValuePdfInput input = MakeInput(n);
  auto push_all = [&input](auto& builder) {
    for (const ValuePdf& pdf : input.items()) PushItem(builder, pdf);
    benchmark::DoNotOptimize(builder.breakpoints());
  };
  DpWorkspace workspace;
  for (auto _ : state) {
    if (kernelized) {
      StreamingHistogramBuilder builder(buckets, kEpsilon,
                                        &workspace.stream_chains());
      push_all(builder);
    } else {
      reference::StreamingBuilder builder(buckets, kEpsilon);
      push_all(builder);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
  state.counters["n"] = static_cast<double>(n);
  state.counters["B"] = static_cast<double>(buckets);
  state.counters["eps"] = kEpsilon;
  state.counters["kernel"] = kernelized ? 1.0 : 0.0;
}

// (h) 2-D guillotine DP kernels on a side x side grid.
void BM_Guillotine2dDp(benchmark::State& state) {
  const std::size_t side = static_cast<std::size_t>(state.range(0));
  const bool kernelized = state.range(1) != 0;
  const std::size_t kBuckets = 16;
  ValuePdfInput flat = GenerateRandomValuePdf(
      {.domain_size = side * side, .max_support = 3, .max_value = 6,
       .seed = 20090402});
  auto grid = ProbGrid2D::Create(side, side, flat.items());
  PROBSYN_CHECK(grid.ok());
  for (auto _ : state) {
    auto result =
        kernelized ? BuildOptimalGuillotineHistogram2D(grid.value(),
                                                       SseOptions(), kBuckets)
                   : reference::BuildGuillotineHistogram2D(
                         grid.value(), SseOptions(), kBuckets);
    PROBSYN_CHECK(result.ok());
    benchmark::DoNotOptimize(result->cost);
  }
  state.counters["side"] = static_cast<double>(side);
  state.counters["B"] = static_cast<double>(kBuckets);
  state.counters["kernel"] = kernelized ? 1.0 : 0.0;
}

// The third argument is always 1, as in RunWaveletRestricted.
void RunWaveletUnrestricted(benchmark::State& state, ErrorMetric metric) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t coeffs = static_cast<std::size_t>(state.range(1));

  ValuePdfInput input = MakeInput(n);
  SynopsisOptions options;
  options.metric = metric;
  UnrestrictedWaveletOptions dp_options;
  dp_options.grid_points = 33;
  for (auto _ : state) {
    auto result =
        BuildUnrestrictedWaveletDp(input, coeffs, options, dp_options);
    PROBSYN_CHECK(result.ok());
    benchmark::DoNotOptimize(result->cost);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["B"] = static_cast<double>(coeffs);
  state.counters["q"] = static_cast<double>(dp_options.grid_points);
  state.counters["kernel"] = static_cast<double>(state.range(2));
}

void BM_WaveletUnrestrictedDpMae(benchmark::State& state) {
  RunWaveletUnrestricted(state, ErrorMetric::kMae);
}

void BM_WaveletUnrestrictedDpSse(benchmark::State& state) {
  RunWaveletUnrestricted(state, ErrorMetric::kSse);
}

// (f) Exact DP over the warm-started SAE oracle (both kernel = 0/1 rows
// run warm FlatSweeps — kernel = 0 through the textbook DP's virtual
// sweeps; docs/benchmarks.md records what warm starts save against cold
// restarts).
void BM_ExactDpSaeWarmSweep(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const bool kernelized = state.range(1) != 0;
  const std::size_t kBuckets = 32;

  ValuePdfInput input = MakeInput(n);
  SynopsisOptions options;
  options.metric = ErrorMetric::kSae;
  auto bundle = MakeBucketOracle(input, options);
  PROBSYN_CHECK(bundle.ok());

  DpWorkspace workspace;
  for (auto _ : state) {
    if (kernelized) {
      HistogramDpResult dp = SolveHistogramDp(
          *bundle->oracle, kBuckets, bundle->combiner,
          {.workspace = &workspace});
      benchmark::DoNotOptimize(dp.OptimalCost(kBuckets));
    } else {
      reference::ExactDpTables dp = reference::SolveExactDp(
          *bundle->oracle, kBuckets, bundle->combiner);
      benchmark::DoNotOptimize(dp.err.back());
    }
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["B"] = static_cast<double>(kBuckets);
  state.counters["kernel"] = kernelized ? 1.0 : 0.0;
}

// (c) One batched cost-vs-B sweep vs repeated single builds.
void BM_EngineSweep(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const bool batched = state.range(1) != 0;
  ValuePdfInput input = MakeInput(n);

  SynopsisEngine engine({.parallelism = 1});
  std::vector<SynopsisRequest> requests;
  for (std::size_t b = 4; b <= 64; b *= 2) {
    for (std::size_t i = 0; i < 3; ++i) {  // 15 requests over 5 budgets
      SynopsisRequest request;
      request.budget = b + i;
      request.options = SseOptions();
      requests.push_back(request);
    }
  }

  for (auto _ : state) {
    if (batched) {
      auto results = engine.BuildBatch(input, requests);
      PROBSYN_CHECK(results.ok());
      benchmark::DoNotOptimize(results->back().cost);
    } else {
      double last = 0.0;
      for (const SynopsisRequest& request : requests) {
        auto result = engine.Build(input, request);
        PROBSYN_CHECK(result.ok());
        last = result->cost;
      }
      benchmark::DoNotOptimize(last);
    }
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["requests"] = static_cast<double>(requests.size());
  state.counters["batched"] = batched ? 1.0 : 0.0;
}

// (k) Sharded construction through the engine route. The generated inputs
// are cached across rows (a 1e6-item pdf set takes seconds to build).
void RunShardedConstruction(benchmark::State& state, HistogramMethod method) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t shards = static_cast<std::size_t>(state.range(1));
  const std::size_t threads = static_cast<std::size_t>(state.range(2));

  static std::map<std::size_t, ValuePdfInput>* cache =
      new std::map<std::size_t, ValuePdfInput>;
  auto it = cache->find(n);
  if (it == cache->end()) it = cache->emplace(n, MakeInput(n)).first;
  const ValuePdfInput& input = it->second;

  SynopsisEngine engine({.parallelism = threads, .min_parallel_domain = 1});
  SynopsisRequest request;
  request.budget = 64;
  request.method = method;
  request.epsilon = 0.1;
  request.options = SseOptions();
  if (shards <= 1) {
    request.sharding.mode = RequestSharding::Mode::kOff;  // baseline
  } else {
    request.sharding.mode = RequestSharding::Mode::kOn;
    request.sharding.shards = shards;
  }

  for (auto _ : state) {
    auto result = engine.Build(input, request);
    PROBSYN_CHECK(result.ok());
    benchmark::DoNotOptimize(result->cost);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["S"] = static_cast<double>(shards);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["B"] = 64.0;
  // Acceptance: Time(n, S, threads) vs Time(n, 1, 1) — the unsharded
  // single-thread baseline of the same method — in real time.
}

void BM_ShardedConstruction(benchmark::State& state) {
  RunShardedConstruction(state, HistogramMethod::kApprox);
}

void BM_ShardedConstructionExact(benchmark::State& state) {
  RunShardedConstruction(state, HistogramMethod::kOptimal);
}

// (l) Cancellation-poll overhead guard — identical engine builds with and
// without an attached never-firing deadline + cancel token. The unpolled
// build runs the historical unbounded path (no ExecContext at all); the
// polled build hits every cooperative checkpoint — per DP column block,
// per shard, per tree level. Both run INTERLEAVED inside one benchmark,
// alternating order each iteration, so slow clock drift (thermal,
// frequency scaling) cancels out of the ratio — back-to-back separate
// rows on a single-core box drift by more than the effect being measured.
// The robustness contract says the polls cost <= 2%;
// tools/check_poll_overhead.py asserts the `overhead` counter in CI.
void RunPollOverhead(benchmark::State& state, bool sharded) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));

  ValuePdfInput input = MakeInput(n);
  SynopsisEngine engine({.parallelism = 1});
  SynopsisRequest unpolled;
  unpolled.budget = 64;
  unpolled.options = SseOptions();
  if (sharded) {
    unpolled.method = HistogramMethod::kApprox;
    unpolled.epsilon = 0.1;
    unpolled.sharding.mode = RequestSharding::Mode::kOn;
    unpolled.sharding.shards = 64;
  }
  CancelToken token;  // never fired: every poll takes the not-stopped path
  SynopsisRequest polled = unpolled;
  polled.deadline = Deadline::After(3600.0);
  polled.cancel = &token;

  auto run = [&](const SynopsisRequest& request) {
    auto start = std::chrono::steady_clock::now();
    auto result = engine.Build(input, request);
    PROBSYN_CHECK(result.ok());
    benchmark::DoNotOptimize(result->cost);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  double unpolled_seconds = 0.0;
  double polled_seconds = 0.0;
  bool polled_first = false;
  for (auto _ : state) {
    if (polled_first) {
      polled_seconds += run(polled);
      unpolled_seconds += run(unpolled);
    } else {
      unpolled_seconds += run(unpolled);
      polled_seconds += run(polled);
    }
    polled_first = !polled_first;
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["B"] = 64.0;
  state.counters["overhead"] =
      unpolled_seconds > 0.0 ? polled_seconds / unpolled_seconds - 1.0 : 0.0;
}

void BM_PollOverheadExactDp(benchmark::State& state) {
  RunPollOverhead(state, /*sharded=*/false);
}

void BM_PollOverheadSharded(benchmark::State& state) {
  RunPollOverhead(state, /*sharded=*/true);
}

}  // namespace
}  // namespace probsyn

BENCHMARK(probsyn::BM_ExactDp)
    ->Args({1024, 1, 0})
    ->Args({1024, 1, 1})
    ->Args({4096, 1, 0})
    ->Args({4096, 1, 1})
    ->Args({4096, 2, 1})
    ->Args({4096, 4, 1})
    ->Args({4096, 8, 1})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(probsyn::BM_ExactDpMaxCombiner)
    ->Args({4096, 1, 0})
    ->Args({4096, 1, 1})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(probsyn::BM_ExactDpMae)
    ->Args({256, 1})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(probsyn::BM_ExactDpMare)
    ->Args({256, 1})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(probsyn::BM_EngineSweep)
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(probsyn::BM_ApproxDpSse)
    ->Args({4096, 0})
    ->Args({4096, 1})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(probsyn::BM_ApproxDpSae)
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(probsyn::BM_WaveletRestrictedDpMae)
    ->Args({128, 64, 1})
    ->Args({1024, 64, 1})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(probsyn::BM_WaveletRestrictedDpSae)
    ->Args({1024, 64, 1})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(probsyn::BM_WaveletRestrictedDpParallelMae)
    ->Args({1024, 64, 1})
    ->Args({1024, 64, 2})
    ->Args({1024, 64, 4})
    ->Args({1024, 64, 8})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(probsyn::BM_WaveletRestrictedDpParallelSae)
    ->Args({1024, 64, 1})
    ->Args({1024, 64, 4})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(probsyn::BM_StreamingMerge)
    ->Args({20000, 0})
    ->Args({20000, 1})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(probsyn::BM_StreamingPushLatency)
    ->Args({20000, 32, 0})
    ->Args({20000, 32, 1})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(probsyn::BM_Guillotine2dDp)
    ->Args({12, 0})
    ->Args({12, 1})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(probsyn::BM_WaveletUnrestrictedDpMae)
    ->Args({256, 128, 1})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(probsyn::BM_WaveletUnrestrictedDpSse)
    ->Args({256, 128, 1})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(probsyn::BM_ExactDpSaeWarmSweep)
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Unit(benchmark::kMillisecond);

// (k) {n, S, threads}. S = 1 is the unsharded baseline; every row is one
// iteration because the large solves run seconds each. Rows that would
// only repeat a seconds-long measurement are deliberately absent so the
// committed series stays affordable in CI: S = 1 at n = 1e6 would run
// minutes (extrapolate from the n = 1e5 baseline, see docs/benchmarks.md);
// S = 4 threaded rows repeat a ~28 s solve whose per-shard cap clamps to
// nearly the whole budget (no work reduction to parallelize); n = 1e6
// S = 16 runs ~36 s, so only the threads = 1 feasibility row is kept.
BENCHMARK(probsyn::BM_ShardedConstruction)
    ->Args({100000, 1, 1})
    ->Args({100000, 4, 1})
    ->Args({100000, 16, 1})
    ->Args({100000, 16, 4})
    ->Args({100000, 16, 8})
    ->Args({100000, 64, 1})
    ->Args({100000, 64, 4})
    ->Args({100000, 64, 8})
    ->Args({1000000, 16, 1})
    ->Args({1000000, 64, 1})
    ->Args({1000000, 64, 4})
    ->Args({1000000, 64, 8})
    ->Iterations(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

BENCHMARK(probsyn::BM_ShardedConstructionExact)
    ->Args({100000, 64, 1})
    ->Args({100000, 64, 4})
    ->Iterations(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// (l) The exact-DP point is the kernel acceptance size (~180 ms/build);
// the sharded point is the 64-shard n = 1e5 row (~15 ms/build). Each
// iteration times one unpolled + one polled build back to back (order
// alternating) and reports the drift-free ratio in the `overhead`
// counter; repetitions give the checker a median-of-5 (single-core boxes
// show ±3% run-to-run drift, so one repetition cannot carry the bound).
BENCHMARK(probsyn::BM_PollOverheadExactDp)
    ->Arg(4096)
    ->MinTime(2.0)
    ->Repetitions(5)
    ->ReportAggregatesOnly(false)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(probsyn::BM_PollOverheadSharded)
    ->Arg(100000)
    ->MinTime(2.0)
    ->Repetitions(5)
    ->ReportAggregatesOnly(false)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
