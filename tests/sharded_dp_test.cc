// Sharded construction (core/sharded_dp.h): plan/resolve arithmetic, the
// accuracy contract (cost never below the unsharded optimum, measured
// error envelope pinned), determinism across thread counts and SIMD paths
// for a fixed shard plan, and the engine's sharded planner route.

#include "core/sharded_dp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "core/dp_kernels.h"
#include "core/histogram_dp.h"
#include "core/oracle_factory.h"
#include "engine/synopsis_engine.h"
#include "gen/generators.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace probsyn {
namespace {

using probsyn::testing::ScopedSimdPath;

// The measured error envelope of the differential sweep below: across 120
// seeded cases (three metrics x domain/budget/shard grids) the worst
// sharded-vs-optimal cost ratio observed is 1.275; the pinned bound keeps
// headroom so distribution drift fails loudly, not flakily. Quoted in
// docs/architecture.md — update both if the sweep changes.
constexpr double kSweepRatioBound = 1.5;

SynopsisOptions OptionsFor(ErrorMetric metric) {
  SynopsisOptions options;
  options.metric = metric;
  options.sanity_c = 0.5;
  return options;
}

double UnshardedOptimum(const ValuePdfInput& input, std::size_t budget,
                        const SynopsisOptions& options) {
  auto bundle = MakeBucketOracle(input, options);
  EXPECT_TRUE(bundle.ok()) << bundle.status();
  // Don't dereference an errored StatusOr (e.g. under an injected fault):
  // the NaN makes every downstream comparison fail cleanly instead.
  if (!bundle.ok()) return std::numeric_limits<double>::quiet_NaN();
  HistogramDpResult dp =
      SolveHistogramDp(*bundle->oracle, budget, bundle->combiner);
  return dp.OptimalCost(budget);
}

// --- Plan / resolve arithmetic. ------------------------------------------

TEST(ShardedPlanTest, PlanShardsPartitionsEvenly) {
  for (std::size_t n : {1u, 7u, 64u, 1000u}) {
    for (std::size_t s : {1u, 2u, 3u, 7u}) {
      if (s > n) continue;
      auto plan = PlanShards(n, s);
      ASSERT_EQ(plan.size(), s);
      EXPECT_EQ(plan.front().begin, 0u);
      EXPECT_EQ(plan.back().end, n);
      std::size_t min_w = n, max_w = 0;
      for (std::size_t k = 0; k < s; ++k) {
        ASSERT_LT(plan[k].begin, plan[k].end) << "empty shard";
        if (k > 0) {
          EXPECT_EQ(plan[k].begin, plan[k - 1].end);
        }
        min_w = std::min(min_w, plan[k].end - plan[k].begin);
        max_w = std::max(max_w, plan[k].end - plan[k].begin);
      }
      EXPECT_LE(max_w - min_w, 1u) << "n=" << n << " s=" << s;
    }
  }
}

TEST(ShardedPlanTest, ResolveShardCountClamps) {
  // Explicit requests clamp to [1, min(n, budget)].
  EXPECT_EQ(ResolveShardCount(1000, 64, 16), 16u);
  EXPECT_EQ(ResolveShardCount(1000, 8, 16), 8u);    // budget-limited
  EXPECT_EQ(ResolveShardCount(4, 64, 16), 4u);      // domain-limited
  EXPECT_EQ(ResolveShardCount(1000, 64, 0), 2u);    // auto floor
  EXPECT_EQ(ResolveShardCount(1u << 20, 4096, 0), 64u);  // auto ceiling
  EXPECT_EQ(ResolveShardCount(1, 1, 0), 1u);
}

TEST(ShardedPlanTest, ResolveMaxShardBudgetBounds) {
  // Lower bound keeps full allocations feasible; upper bound is what one
  // shard can get when every other takes a single bucket.
  EXPECT_EQ(ResolveMaxShardBudget(64, 16, 1), 4u);   // clamped up to ceil(B/S)
  EXPECT_EQ(ResolveMaxShardBudget(64, 16, 1000), 49u);  // clamped to B-S+1
  EXPECT_EQ(ResolveMaxShardBudget(64, 16, 8), 8u);
  EXPECT_EQ(ResolveMaxShardBudget(64, 64, 0), 1u);   // B == S
  const std::size_t auto_cap = ResolveMaxShardBudget(64, 16, 0);
  EXPECT_GE(auto_cap, 4u);
  EXPECT_LE(auto_cap, 49u);
}

// --- Accuracy contract: seeded differential sweep. -----------------------

TEST(ShardedDifferentialTest, SweepNeverBeatsOptimumAndStaysInEnvelope) {
  const ErrorMetric metrics[] = {ErrorMetric::kSse, ErrorMetric::kSae,
                                 ErrorMetric::kMae};
  double worst_ratio = 1.0;
  std::size_t cases = 0;
  for (ErrorMetric metric : metrics) {
    for (std::size_t n : {64u, 96u, 128u, 160u, 256u}) {
      for (std::size_t budget : {4u, 8u, 16u}) {
        for (std::size_t shards : {2u, 4u, 8u}) {
          if (shards > budget) continue;
          const std::uint64_t seed = 1000 + cases;
          ValuePdfInput input = GenerateRandomValuePdf(
              {.domain_size = n, .max_support = 4, .max_value = 8,
               .seed = seed});
          SynopsisOptions options = OptionsFor(metric);
          const double optimum = UnshardedOptimum(input, budget, options);

          ShardedDpOptions sharded;
          sharded.shards = shards;
          auto result =
              BuildShardedHistogram(input, budget, options, sharded);
          ASSERT_TRUE(result.ok()) << result.status();
          EXPECT_EQ(result->shards, shards);
          EXPECT_LE(result->histogram.num_buckets(), budget);
          ASSERT_TRUE(result->histogram.Validate(n).ok());

          // Never below the optimum (tiny slack: the sharded cost sums
          // per-shard totals in a different order than the DP's folds).
          EXPECT_GE(result->cost, optimum * (1.0 - 1e-9))
              << ErrorMetricName(metric) << " n=" << n << " B=" << budget
              << " S=" << shards;
          if (optimum > 0.0) {
            const double ratio = result->cost / optimum;
            worst_ratio = std::max(worst_ratio, ratio);
            EXPECT_LE(ratio, kSweepRatioBound)
                << ErrorMetricName(metric) << " n=" << n << " B=" << budget
                << " S=" << shards << " seed=" << seed;
          }

          // (1+eps) shards on the same plan: never below the optimum, and
          // at most (1 + eps) times the exact sharded cost, because the
          // traced histograms cost the merge fold's value (up to rounding)
          // and the fold is at most the approx curves summed at the exact
          // allocation.
          if (IsCumulativeMetric(metric)) {
            const double eps = cases % 2 == 0 ? 0.1 : 0.5;
            ShardedDpOptions approx_options = sharded;
            approx_options.solver = ShardSolver::kApprox;
            approx_options.epsilon = eps;
            auto approx =
                BuildShardedHistogram(input, budget, options, approx_options);
            ASSERT_TRUE(approx.ok()) << approx.status();
            EXPECT_EQ(approx->max_shard_budget, result->max_shard_budget);
            EXPECT_LE(approx->histogram.num_buckets(), budget);
            ASSERT_TRUE(approx->histogram.Validate(n).ok());
            EXPECT_GE(approx->cost, optimum * (1.0 - 1e-9))
                << ErrorMetricName(metric) << " n=" << n << " B=" << budget
                << " S=" << shards << " seed=" << seed;
            EXPECT_LE(approx->cost, (1.0 + eps) * result->cost * (1.0 + 1e-9))
                << ErrorMetricName(metric) << " n=" << n << " B=" << budget
                << " S=" << shards << " eps=" << eps << " seed=" << seed;
          }
          ++cases;
        }
      }
    }
  }
  EXPECT_GE(cases, 100u) << "sweep shrank below its documented size";
  RecordProperty("worst_ratio", std::to_string(worst_ratio));
}

TEST(ShardedDifferentialTest, SingleShardMatchesUnshardedBitwise) {
  for (ErrorMetric metric : {ErrorMetric::kSse, ErrorMetric::kMae}) {
    ValuePdfInput input =
        GenerateRandomValuePdf({.domain_size = 120, .seed = 5});
    SynopsisOptions options = OptionsFor(metric);
    auto bundle = MakeBucketOracle(input, options);
    ASSERT_TRUE(bundle.ok()) << bundle.status();
    HistogramDpResult dp =
        SolveHistogramDp(*bundle->oracle, 10, bundle->combiner);

    ShardedDpOptions sharded;
    sharded.shards = 1;
    auto result = BuildShardedHistogram(input, 10, options, sharded);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->cost, dp.OptimalCost(10));
    EXPECT_TRUE(result->histogram == dp.ExtractHistogram(10));
  }
}

TEST(ShardedDifferentialTest, BudgetEqualsShardsGivesOneBucketEach) {
  ValuePdfInput input = GenerateRandomValuePdf({.domain_size = 64, .seed = 9});
  ShardedDpOptions sharded;
  sharded.shards = 8;
  auto result =
      BuildShardedHistogram(input, 8, OptionsFor(ErrorMetric::kSse), sharded);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->max_shard_budget, 1u);
  EXPECT_EQ(result->histogram.num_buckets(), 8u);
  for (std::size_t b : result->shard_budgets) EXPECT_EQ(b, 1u);
}

TEST(ShardedDifferentialTest, WorkloadWeightsSliceWithTheShards) {
  const std::size_t n = 96;
  ValuePdfInput input = GenerateRandomValuePdf({.domain_size = n, .seed = 17});
  SynopsisOptions options = OptionsFor(ErrorMetric::kSse);
  options.sse_variant = SseVariant::kFixedRepresentative;  // workload-capable
  options.workload.assign(n, 1.0);
  for (std::size_t i = 0; i < n; i += 3) options.workload[i] = 4.0;

  const double optimum = UnshardedOptimum(input, 8, options);
  ShardedDpOptions sharded;
  sharded.shards = 4;
  auto result = BuildShardedHistogram(input, 8, options, sharded);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GE(result->cost, optimum * (1.0 - 1e-9));

  SynopsisOptions bad = options;
  bad.workload.resize(n - 1);
  EXPECT_FALSE(BuildShardedHistogram(input, 8, bad, sharded).ok());
}

// --- Determinism: fixed plan, any thread count, any SIMD path. -----------

TEST(ShardedDeterminismTest, BitIdenticalAcrossThreadsAndSimd) {
  for (ShardSolver solver : {ShardSolver::kExact, ShardSolver::kApprox}) {
    ValuePdfInput input =
        GenerateRandomValuePdf({.domain_size = 200, .seed = 23});
    SynopsisOptions options = OptionsFor(ErrorMetric::kSse);

    Histogram reference;
    double reference_cost = 0.0;
    bool have_reference = false;
    for (SimdPath path : probsyn::testing::SupportedSimdPaths()) {
      ScopedSimdPath forced(path);
      for (std::size_t workers : {0u, 1u, 7u}) {
        ThreadPool pool(workers);
        ShardedDpOptions sharded;
        sharded.shards = 4;
        sharded.solver = solver;
        sharded.epsilon = 0.1;
        sharded.pool = workers > 0 ? &pool : nullptr;
        auto result = BuildShardedHistogram(input, 12, options, sharded);
        ASSERT_TRUE(result.ok()) << result.status();
        if (!have_reference) {
          reference = result->histogram;
          reference_cost = result->cost;
          have_reference = true;
          continue;
        }
        EXPECT_EQ(result->cost, reference_cost)
            << "workers=" << workers << " simd=" << SimdPathName(path);
        EXPECT_TRUE(result->histogram == reference)
            << "workers=" << workers << " simd=" << SimdPathName(path);
      }
    }
  }
}

// --- The approximate curve the merge consumes. ---------------------------

TEST(ShardedApproxCurveTest, CurveIsMonotoneAndEndsAtTheDpValue) {
  ValuePdfInput input = GenerateRandomValuePdf({.domain_size = 150, .seed = 3});
  auto bundle = MakeBucketOracle(input, OptionsFor(ErrorMetric::kSse));
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  auto approx = SolveApproxHistogramDp(*bundle->oracle, 12, 0.1);
  ASSERT_TRUE(approx.ok()) << approx.status();
  ASSERT_EQ(approx->cost_curve.size(), 12u);
  for (std::size_t b = 1; b < approx->cost_curve.size(); ++b) {
    EXPECT_LE(approx->cost_curve[b], approx->cost_curve[b - 1]) << "b=" << b;
  }
  // The curve's tail is the DP's own value of the returned histogram; the
  // reported cost re-sums the extracted buckets through the oracle.
  EXPECT_NEAR(approx->cost_curve.back(), approx->cost,
              1e-9 * std::max(1.0, approx->cost));
}

// Tracing the kept rows back at any budget gives a histogram of at most
// that many buckets costing that layer's curve value (up to the re-costing
// rounding); at the solved budget it is the solve's own histogram.
TEST(ShardedApproxCurveTest, TraceAtEveryBudgetCostsTheCurveValue) {
  for (ErrorMetric metric : {ErrorMetric::kSse, ErrorMetric::kSae}) {
    ValuePdfInput input =
        GenerateRandomValuePdf({.domain_size = 150, .seed = 4});
    auto bundle = MakeBucketOracle(input, OptionsFor(metric));
    ASSERT_TRUE(bundle.ok()) << bundle.status();
    auto approx = SolveApproxHistogramDp(
        *bundle->oracle, 12, 0.1, {.keep_choices = true});
    ASSERT_TRUE(approx.ok()) << approx.status();
    ASSERT_EQ(approx->choices.size(), 11u * 150u);
    for (std::size_t b = 1; b <= 12; ++b) {
      CostedHistogram traced =
          TraceApproxHistogram(*bundle->oracle, *approx, b);
      ASSERT_TRUE(traced.histogram.Validate(150).ok()) << "b=" << b;
      EXPECT_LE(traced.histogram.num_buckets(), b);
      EXPECT_NEAR(traced.cost, approx->cost_curve[b - 1],
                  1e-9 * std::max(1.0, traced.cost))
          << ErrorMetricName(metric) << " b=" << b;
    }
    CostedHistogram at_cap = TraceApproxHistogram(*bundle->oracle, *approx, 12);
    EXPECT_TRUE(at_cap.histogram == approx->histogram);
    EXPECT_EQ(at_cap.cost, approx->cost);

    // Rows are dropped unless asked for.
    auto plain = SolveApproxHistogramDp(*bundle->oracle, 12, 0.1);
    ASSERT_TRUE(plain.ok()) << plain.status();
    EXPECT_TRUE(plain->choices.empty());
    EXPECT_TRUE(plain->histogram == approx->histogram);
  }
}

// A workload that is zero over whole shards is valid for the request; the
// shard slices must not be judged by it on their own. Built through the
// engine, sharded explicitly (4 shards) and automatically, with the exact
// shard solver under every metric and the (1+eps) one under the
// cumulative metrics.
TEST(ShardedDpTest, WorkloadZeroOverWholeShards) {
  const std::size_t n = 256;
  const std::size_t budget = 8;
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = n, .max_support = 4, .max_value = 8, .seed = 67});
  SynopsisEngine explicit_engine;
  SynopsisEngine auto_engine({.shard_auto_domain = 256});
  const ErrorMetric metrics[] = {ErrorMetric::kSse,  ErrorMetric::kSsre,
                                 ErrorMetric::kSae,  ErrorMetric::kSare,
                                 ErrorMetric::kMae,  ErrorMetric::kMare};
  for (ErrorMetric metric : metrics) {
    SynopsisOptions options = OptionsFor(metric);
    options.sse_variant = SseVariant::kFixedRepresentative;
    options.workload.assign(n, 0.0);
    std::fill(options.workload.begin(), options.workload.begin() + n / 2, 1.0);
    const double optimum = UnshardedOptimum(input, budget, options);

    SynopsisRequest request;
    request.budget = budget;
    request.options = options;
    request.sharding.mode = RequestSharding::Mode::kOn;
    request.sharding.shards = 4;
    std::vector<HistogramMethod> methods = {HistogramMethod::kOptimal};
    if (IsCumulativeMetric(metric)) methods.push_back(HistogramMethod::kApprox);
    for (HistogramMethod method : methods) {
      request.method = method;
      auto result = explicit_engine.Build(input, request);
      ASSERT_TRUE(result.ok()) << ErrorMetricName(metric) << " "
                               << HistogramMethodName(method) << ": "
                               << result.status();
      EXPECT_NE(result->solver.find("shards=4"), std::string::npos)
          << result->solver;
      EXPECT_GE(result->cost, optimum * (1.0 - 1e-9))
          << ErrorMetricName(metric) << " " << HistogramMethodName(method);
    }
    if (!IsCumulativeMetric(metric)) continue;
    SynopsisRequest auto_request = request;
    auto_request.method = HistogramMethod::kApprox;
    auto_request.sharding = {};
    auto result = auto_engine.Build(input, auto_request);
    ASSERT_TRUE(result.ok()) << ErrorMetricName(metric) << " auto: "
                             << result.status();
    EXPECT_NE(result->solver.find("sharded-approx"), std::string::npos)
        << result->solver;
    EXPECT_GE(result->cost, optimum * (1.0 - 1e-9)) << ErrorMetricName(metric);
  }
}

// --- Engine route. -------------------------------------------------------

TEST(ShardedEngineRouteTest, ExplicitShardingRecordsPlanInSolverString) {
  ValuePdfInput input = GenerateRandomValuePdf({.domain_size = 512, .seed = 31});
  SynopsisEngine engine({.parallelism = 4, .min_parallel_domain = 1});
  SynopsisRequest request;
  request.budget = 16;
  request.options = OptionsFor(ErrorMetric::kSse);
  request.sharding.mode = RequestSharding::Mode::kOn;
  request.sharding.shards = 8;

  auto result = engine.Build(input, request);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NE(result->solver.find("histogram/sharded-dp["), std::string::npos)
      << result->solver;
  EXPECT_NE(result->solver.find("shards=8"), std::string::npos)
      << result->solver;
  EXPECT_NE(result->solver.find("par=4"), std::string::npos) << result->solver;

  // Engine output == the direct build (determinism across lane counts).
  ShardedDpOptions sharded;
  sharded.shards = 8;
  auto direct = BuildShardedHistogram(input, 16, request.options, sharded);
  ASSERT_TRUE(direct.ok()) << direct.status();
  EXPECT_EQ(result->cost, direct->cost);
  EXPECT_TRUE(result->histogram == direct->histogram);

  request.method = HistogramMethod::kApprox;
  result = engine.Build(input, request);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NE(result->solver.find("histogram/sharded-approx(eps=0.1)["),
            std::string::npos)
      << result->solver;
  EXPECT_GT(result->oracle_evaluations, 0u);
}

TEST(ShardedEngineRouteTest, AutoShardsOnlyLargeApproxRequests) {
  SynopsisEngine::Options engine_options;
  engine_options.parallelism = 2;
  engine_options.min_parallel_domain = 1;
  engine_options.shard_auto_domain = 256;  // test-sized threshold
  SynopsisEngine engine(engine_options);

  SynopsisRequest request;
  request.budget = 12;
  request.method = HistogramMethod::kApprox;
  request.options = OptionsFor(ErrorMetric::kSse);

  ValuePdfInput large = GenerateRandomValuePdf({.domain_size = 300, .seed = 7});
  auto result = engine.Build(large, request);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NE(result->solver.find("sharded-approx"), std::string::npos)
      << result->solver;

  ValuePdfInput small = GenerateRandomValuePdf({.domain_size = 128, .seed = 7});
  result = engine.Build(small, request);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NE(result->solver.find("approx-dp"), std::string::npos)
      << result->solver;

  // kOff pins the unsharded route even above the threshold; kOptimal never
  // auto-shards (exact means exact).
  request.sharding.mode = RequestSharding::Mode::kOff;
  result = engine.Build(large, request);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NE(result->solver.find("approx-dp"), std::string::npos)
      << result->solver;

  request.sharding.mode = RequestSharding::Mode::kAuto;
  request.method = HistogramMethod::kOptimal;
  result = engine.Build(large, request);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NE(result->solver.find("exact-dp"), std::string::npos)
      << result->solver;
}

TEST(ShardedEngineRouteTest, ExplicitShardingRejectsUnsupportedRoutes) {
  ValuePdfInput input = GenerateRandomValuePdf({.domain_size = 64, .seed = 1});
  SynopsisEngine engine;
  SynopsisRequest request;
  request.budget = 8;
  request.sharding.mode = RequestSharding::Mode::kOn;

  request.method = HistogramMethod::kStreaming;
  request.options = OptionsFor(ErrorMetric::kSse);
  EXPECT_FALSE(engine.Build(input, request).ok());

  request.method = HistogramMethod::kEquiDepth;
  EXPECT_FALSE(engine.Build(input, request).ok());

  request.method = HistogramMethod::kOptimal;
  request.kind = SynopsisKind::kWavelet;
  EXPECT_FALSE(engine.Build(input, request).ok());
}

TEST(ShardedEngineRouteTest, TupleInputShardsThroughInducedPdfs) {
  TuplePdfInput input = GenerateRandomTuplePdf(
      {.domain_size = 80, .num_tuples = 120, .seed = 19});
  SynopsisEngine engine;
  SynopsisRequest request;
  request.budget = 8;
  request.options = OptionsFor(ErrorMetric::kSse);
  request.options.sse_variant = SseVariant::kFixedRepresentative;
  request.sharding.mode = RequestSharding::Mode::kOn;
  request.sharding.shards = 4;

  auto result = engine.Build(input, request);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NE(result->solver.find("sharded-dp"), std::string::npos)
      << result->solver;

  // World-mean SSE's joint oracle cannot shard: explicit kOn reports
  // Unimplemented, kAuto silently keeps the unsharded route.
  request.options.sse_variant = SseVariant::kWorldMean;
  auto world_mean = engine.Build(input, request);
  ASSERT_FALSE(world_mean.ok());
  EXPECT_EQ(world_mean.status().code(), StatusCode::kUnimplemented);

  request.sharding.mode = RequestSharding::Mode::kAuto;
  SynopsisEngine::Options tiny_threshold;
  tiny_threshold.shard_auto_domain = 16;
  SynopsisEngine auto_engine(tiny_threshold);
  request.method = HistogramMethod::kApprox;
  auto fallback = auto_engine.Build(input, request);
  ASSERT_TRUE(fallback.ok()) << fallback.status();
  EXPECT_NE(fallback->solver.find("approx-dp"), std::string::npos)
      << fallback->solver;
}

TEST(ShardedEngineRouteTest, BatchMixesShardedAndGroupedRequests) {
  ValuePdfInput input = GenerateRandomValuePdf({.domain_size = 256, .seed = 41});
  SynopsisEngine engine({.parallelism = 2, .min_parallel_domain = 1});

  SynopsisRequest plain;
  plain.budget = 8;
  plain.options = OptionsFor(ErrorMetric::kSse);
  SynopsisRequest shard = plain;
  shard.sharding.mode = RequestSharding::Mode::kOn;
  shard.sharding.shards = 4;
  std::vector<SynopsisRequest> requests = {plain, shard, plain};

  auto results = engine.BuildBatch(input, requests);
  ASSERT_TRUE(results.ok()) << results.status();
  EXPECT_NE((*results)[0].solver.find("exact-dp"), std::string::npos);
  EXPECT_NE((*results)[1].solver.find("sharded-dp"), std::string::npos);
  EXPECT_TRUE((*results)[0].histogram == (*results)[2].histogram);
  EXPECT_GE((*results)[1].cost, (*results)[0].cost * (1.0 - 1e-9));
}

}  // namespace
}  // namespace probsyn
