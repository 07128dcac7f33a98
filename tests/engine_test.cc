// Engine parity: the SynopsisEngine facade must serve every construction
// path with output bit-identical (costs AND boundaries/coefficients) to
// calling the underlying solver directly, sequentially. This pins down the
// tentpole guarantee that the engine adds routing, sharing, parallelism,
// and timing — never a different answer.

#include "engine/synopsis_engine.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/builders.h"
#include "core/dp_kernels.h"
#include "core/histogram_dp.h"
#include "core/oracle_factory.h"
#include "core/wavelet.h"
#include "core/wavelet_dp.h"
#include "core/wavelet_unrestricted.h"
#include "gen/generators.h"
#include "stream/streaming_histogram.h"
#include "util/thread_pool.h"

namespace probsyn {
namespace {

constexpr ErrorMetric kAllMetrics[] = {
    ErrorMetric::kSse,  ErrorMetric::kSsre, ErrorMetric::kSae,
    ErrorMetric::kSare, ErrorMetric::kMae,  ErrorMetric::kMare};

SynopsisOptions OptionsFor(ErrorMetric metric) {
  SynopsisOptions options;
  options.metric = metric;
  options.sanity_c = 0.5;
  return options;
}

ValuePdfInput TestValuePdf() {
  return GenerateRandomValuePdf({.domain_size = 48, .seed = 11});
}

TuplePdfInput TestTuplePdf() {
  return GenerateRandomTuplePdf({.domain_size = 40, .seed = 13});
}

// A parallel engine whose pool is engaged even on tiny test domains.
SynopsisEngine ParallelEngine() {
  return SynopsisEngine({.parallelism = 4, .min_parallel_domain = 1});
}

// --- Exact route: engine output == direct DP, for every metric x model. --

template <typename Input>
void CheckExactParity(const Input& input, ErrorMetric metric) {
  SynopsisOptions options = OptionsFor(metric);
  const std::size_t kBuckets = 6;

  auto bundle = MakeBucketOracle(input, options);
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  HistogramDpResult dp =
      SolveHistogramDp(*bundle->oracle, kBuckets, bundle->combiner);
  Histogram expected = dp.ExtractHistogram(kBuckets);
  double expected_cost = dp.OptimalCost(kBuckets);

  SynopsisRequest request;
  request.kind = SynopsisKind::kHistogram;
  request.method = HistogramMethod::kOptimal;
  request.budget = kBuckets;
  request.options = options;

  for (bool parallel : {false, true}) {
    SynopsisEngine engine =
        parallel ? ParallelEngine()
                 : SynopsisEngine(SynopsisEngine::Options{.parallelism = 1});
    auto result = engine.Build(input, request);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->kind, SynopsisKind::kHistogram);
    EXPECT_EQ(result->cost, expected_cost)
        << ErrorMetricName(metric) << " parallel=" << parallel;
    EXPECT_TRUE(result->histogram == expected)
        << ErrorMetricName(metric) << " parallel=" << parallel;
  }
}

TEST(EngineParity, ExactHistogramValuePdfAllMetrics) {
  ValuePdfInput input = TestValuePdf();
  for (ErrorMetric metric : kAllMetrics) CheckExactParity(input, metric);
}

TEST(EngineParity, ExactHistogramTuplePdfAllMetrics) {
  TuplePdfInput input = TestTuplePdf();
  for (ErrorMetric metric : kAllMetrics) CheckExactParity(input, metric);
}

TEST(EngineParity, ExactHistogramBothSseVariants) {
  ValuePdfInput value_input = TestValuePdf();
  TuplePdfInput tuple_input = TestTuplePdf();
  for (SseVariant variant :
       {SseVariant::kWorldMean, SseVariant::kFixedRepresentative}) {
    SynopsisOptions options = OptionsFor(ErrorMetric::kSse);
    options.sse_variant = variant;
    SynopsisRequest request;
    request.budget = 5;
    request.options = options;

    SynopsisEngine engine = ParallelEngine();
    auto via_engine = engine.Build(tuple_input, request);
    ASSERT_TRUE(via_engine.ok()) << via_engine.status();
    auto direct = HistogramBuilder::Create(tuple_input, options, 5);
    ASSERT_TRUE(direct.ok());
    EXPECT_TRUE(via_engine->histogram == direct->Extract(5));

    auto via_engine_v = engine.Build(value_input, request);
    ASSERT_TRUE(via_engine_v.ok()) << via_engine_v.status();
    auto direct_v = HistogramBuilder::Create(value_input, options, 5);
    ASSERT_TRUE(direct_v.ok());
    EXPECT_TRUE(via_engine_v->histogram == direct_v->Extract(5));
  }
}

// --- Parallel DP == sequential DP, bit-identical, across block seams. ----

TEST(ParallelDp, MatchesSequentialAcrossMetricsAndBudgets) {
  // n > 256 exercises multiple column blocks of the parallel solver.
  ValuePdfInput input = GenerateRandomValuePdf({.domain_size = 300, .seed = 7});
  ThreadPool pool(3);
  const std::size_t kBuckets = 10;
  for (ErrorMetric metric :
       {ErrorMetric::kSse, ErrorMetric::kSae, ErrorMetric::kMae}) {
    SynopsisOptions options = OptionsFor(metric);
    auto bundle = MakeBucketOracle(input, options);
    ASSERT_TRUE(bundle.ok()) << bundle.status();
    HistogramDpResult sequential =
        SolveHistogramDp(*bundle->oracle, kBuckets, bundle->combiner);
    HistogramDpResult parallel =
        SolveHistogramDp(*bundle->oracle, kBuckets, bundle->combiner,
                         {.pool = &pool});
    for (std::size_t b = 1; b <= kBuckets; ++b) {
      EXPECT_EQ(parallel.OptimalCost(b), sequential.OptimalCost(b))
          << ErrorMetricName(metric) << " B=" << b;
      EXPECT_TRUE(parallel.ExtractHistogram(b) == sequential.ExtractHistogram(b))
          << ErrorMetricName(metric) << " B=" << b;
    }
  }
}

TEST(ParallelDp, MatchesSequentialOnTupleSweepOracle) {
  // The exact tuple-pdf world-mean SSE oracle is the stateful-sweep one;
  // the parallel solver must drive one independent sweep per column.
  TuplePdfInput input = GenerateRandomTuplePdf({.domain_size = 64, .seed = 3});
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  options.sse_variant = SseVariant::kWorldMean;
  auto bundle = MakeBucketOracle(input, options);
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  ThreadPool pool(4);
  HistogramDpResult sequential =
      SolveHistogramDp(*bundle->oracle, 8, bundle->combiner);
  HistogramDpResult parallel =
      SolveHistogramDp(*bundle->oracle, 8, bundle->combiner, {.pool = &pool});
  for (std::size_t b = 1; b <= 8; ++b) {
    EXPECT_EQ(parallel.OptimalCost(b), sequential.OptimalCost(b)) << b;
    EXPECT_TRUE(parallel.ExtractHistogram(b) == sequential.ExtractHistogram(b));
  }
}

TEST(ParallelDp, ParallelOraclePreprocessingIsIdentical) {
  ValuePdfInput input = GenerateRandomValuePdf({.domain_size = 96, .seed = 21});
  ThreadPool pool(3);
  for (ErrorMetric metric : {ErrorMetric::kSae, ErrorMetric::kSare,
                             ErrorMetric::kMae, ErrorMetric::kMare}) {
    SynopsisOptions options = OptionsFor(metric);
    auto plain = MakeBucketOracle(input, options);
    auto pooled = MakeBucketOracle(input, options, &pool);
    ASSERT_TRUE(plain.ok() && pooled.ok());
    for (std::size_t s = 0; s < input.domain_size(); s += 7) {
      for (std::size_t e = s; e < input.domain_size(); e += 5) {
        BucketCost a = plain->oracle->Cost(s, e);
        BucketCost b = pooled->oracle->Cost(s, e);
        EXPECT_EQ(a.cost, b.cost) << ErrorMetricName(metric);
        EXPECT_EQ(a.representative, b.representative);
      }
    }
  }
}

// --- Approximate route. --------------------------------------------------

TEST(EngineParity, ApproxHistogramMatchesDirectSolver) {
  ValuePdfInput input = TestValuePdf();
  for (ErrorMetric metric : {ErrorMetric::kSse, ErrorMetric::kSae}) {
    SynopsisOptions options = OptionsFor(metric);
    auto bundle = MakeBucketOracle(input, options);
    ASSERT_TRUE(bundle.ok());
    auto direct = SolveApproxHistogramDp(*bundle->oracle, 6, 0.25);
    ASSERT_TRUE(direct.ok()) << direct.status();

    SynopsisRequest request;
    request.method = HistogramMethod::kApprox;
    request.budget = 6;
    request.epsilon = 0.25;
    request.options = options;
    SynopsisEngine engine = ParallelEngine();
    auto result = engine.Build(input, request);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->cost, direct->cost);
    EXPECT_TRUE(result->histogram == direct->histogram);
    EXPECT_EQ(result->oracle_evaluations, direct->oracle_evaluations);
  }
}

// --- Streaming route. ----------------------------------------------------

TEST(EngineParity, StreamingHistogramMatchesDirectBuilder) {
  ValuePdfInput input = TestValuePdf();
  StreamingHistogramBuilder direct(5, 0.2);
  direct.PushBatch(input.items());
  auto finished = direct.Finish();
  ASSERT_TRUE(finished.ok());

  SynopsisRequest request;
  request.method = HistogramMethod::kStreaming;
  request.budget = 5;
  request.epsilon = 0.2;
  request.options.metric = ErrorMetric::kSse;
  request.options.sse_variant = SseVariant::kFixedRepresentative;
  SynopsisEngine engine;
  auto result = engine.Build(input, request);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->cost, finished->cost);
  EXPECT_TRUE(result->histogram == finished->histogram);
}

// --- Wavelet routes. -----------------------------------------------------

TEST(EngineParity, WaveletRoutesMatchDirectSolvers) {
  ValuePdfInput input = GenerateRandomValuePdf({.domain_size = 16, .seed = 9});
  SynopsisEngine engine;

  // Greedy SSE (Theorem 7).
  {
    SynopsisRequest request;
    request.kind = SynopsisKind::kWavelet;
    request.budget = 4;
    request.wavelet_method = WaveletMethod::kGreedySse;
    auto result = engine.Build(input, request);
    ASSERT_TRUE(result.ok()) << result.status();
    auto direct = BuildSseOptimalWavelet(input, 4);
    ASSERT_TRUE(direct.ok());
    EXPECT_TRUE(result->wavelet == *direct);
  }

  // Restricted DP (Theorem 8), non-SSE metric, selected by kAuto.
  {
    SynopsisRequest request;
    request.kind = SynopsisKind::kWavelet;
    request.budget = 4;
    request.options = OptionsFor(ErrorMetric::kSae);
    auto result = engine.Build(input, request);
    ASSERT_TRUE(result.ok()) << result.status();
    auto direct = BuildRestrictedWaveletDp(input, 4, request.options);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(result->cost, direct->cost);
    EXPECT_TRUE(result->wavelet == direct->synopsis);
  }

  // Unrestricted DP.
  {
    SynopsisRequest request;
    request.kind = SynopsisKind::kWavelet;
    request.budget = 3;
    request.options = OptionsFor(ErrorMetric::kMae);
    request.wavelet_method = WaveletMethod::kUnrestrictedDp;
    auto result = engine.Build(input, request);
    ASSERT_TRUE(result.ok()) << result.status();
    auto direct = BuildUnrestrictedWaveletDp(input, 3, request.options,
                                             request.unrestricted);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(result->cost, direct->cost);
    EXPECT_TRUE(result->wavelet == direct->synopsis);
  }
}

// --- Batch semantics. ----------------------------------------------------

TEST(EngineBatch, BatchResultsMatchIndividualBuilds) {
  ValuePdfInput input = TestValuePdf();
  SynopsisEngine engine = ParallelEngine();

  std::vector<SynopsisRequest> requests;
  for (std::size_t budget : {2, 4, 8}) {  // one shared SSE oracle + DP
    SynopsisRequest r;
    r.budget = budget;
    requests.push_back(r);
  }
  {
    SynopsisRequest r;  // different metric -> second oracle group
    r.budget = 4;
    r.options = OptionsFor(ErrorMetric::kMae);
    requests.push_back(r);
  }
  {
    SynopsisRequest r;  // approx rider on the SSE group's oracle
    r.budget = 4;
    r.method = HistogramMethod::kApprox;
    r.epsilon = 0.5;
    requests.push_back(r);
  }
  {
    SynopsisRequest r;  // wavelet single
    r.kind = SynopsisKind::kWavelet;
    r.budget = 5;
    requests.push_back(r);
  }

  auto batch = engine.BuildBatch(input, requests);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    auto single = engine.Build(input, requests[i]);
    ASSERT_TRUE(single.ok()) << single.status();
    EXPECT_EQ((*batch)[i].cost, single->cost) << "request " << i;
    EXPECT_TRUE((*batch)[i].histogram == single->histogram) << "request " << i;
    EXPECT_TRUE((*batch)[i].wavelet == single->wavelet) << "request " << i;
  }
}

TEST(EngineBatch, BaselineMethodsProduceValidHistograms) {
  TuplePdfInput input = TestTuplePdf();
  SynopsisEngine engine;
  for (HistogramMethod method :
       {HistogramMethod::kExpectation, HistogramMethod::kSampledWorld,
        HistogramMethod::kEquiDepth}) {
    SynopsisRequest request;
    request.method = method;
    request.budget = 4;
    auto result = engine.Build(input, request);
    ASSERT_TRUE(result.ok())
        << HistogramMethodName(method) << ": " << result.status();
    EXPECT_TRUE(result->histogram.Validate(input.domain_size()).ok());
    EXPECT_GE(result->cost, 0.0);
    EXPECT_LE(result->histogram.num_buckets(), 4u);
  }
}

// --- Error paths. --------------------------------------------------------

TEST(EngineErrors, RejectsInvalidRequests) {
  ValuePdfInput input = TestValuePdf();
  SynopsisEngine engine;

  SynopsisRequest zero_budget;
  zero_budget.budget = 0;
  EXPECT_EQ(engine.Build(input, zero_budget).status().code(),
            StatusCode::kInvalidArgument);

  SynopsisRequest approx_max;
  approx_max.method = HistogramMethod::kApprox;
  approx_max.budget = 4;
  approx_max.options = OptionsFor(ErrorMetric::kMae);
  EXPECT_EQ(engine.Build(input, approx_max).status().code(),
            StatusCode::kUnimplemented);

  SynopsisRequest streaming_sae;
  streaming_sae.method = HistogramMethod::kStreaming;
  streaming_sae.budget = 4;
  streaming_sae.options = OptionsFor(ErrorMetric::kSae);
  EXPECT_EQ(engine.Build(input, streaming_sae).status().code(),
            StatusCode::kUnimplemented);

  SynopsisRequest bad_epsilon;
  bad_epsilon.method = HistogramMethod::kApprox;
  bad_epsilon.budget = 4;
  bad_epsilon.epsilon = 0.0;
  EXPECT_EQ(engine.Build(input, bad_epsilon).status().code(),
            StatusCode::kInvalidArgument);

  ValuePdfInput empty{std::vector<ValuePdf>{}};
  SynopsisRequest ok_request;
  ok_request.budget = 2;
  EXPECT_EQ(engine.Build(empty, ok_request).status().code(),
            StatusCode::kInvalidArgument);
}

// --- Solver strings. -----------------------------------------------------

// Every route spells its whole solver string: route name, epsilon where the
// route has one, kernel, SIMD path, lanes or shard plan, and the
// run-time degradation suffix. One build per route on a small input.
// Plan-time degradation is left to the Robustness tests, whose deadlines
// depend on machine speed.
TEST(EngineSolverString, EveryRouteSpellsItsFullString) {
  const std::string simd = SimdPathName(ActiveSimdPath());
  const ValuePdfInput values = TestValuePdf();  // n = 48
  const TuplePdfInput tuples = TestTuplePdf();  // n = 40
  const SynopsisEngine::Options one_lane{.parallelism = 1};
  const SynopsisEngine::Options four_lanes{.parallelism = 4,
                                           .min_parallel_domain = 1};
  const SynopsisEngine::Options auto_shard{.parallelism = 4,
                                           .min_parallel_domain = 1,
                                           .shard_auto_domain = 32};
  const SynopsisEngine::Options tiny_workspace{.parallelism = 1,
                                               .max_workspace_bytes = 1024};

  auto histogram = [](ErrorMetric metric, HistogramMethod method) {
    SynopsisRequest request;
    request.budget = 6;
    request.options = OptionsFor(metric);
    request.method = method;
    return request;
  };
  auto wavelet = [](ErrorMetric metric, WaveletMethod method) {
    SynopsisRequest request;
    request.kind = SynopsisKind::kWavelet;
    request.budget = 6;
    request.options = OptionsFor(metric);
    request.wavelet_method = method;
    return request;
  };
  const RequestSharding on4{.mode = RequestSharding::Mode::kOn, .shards = 4};
  const SynopsisRequest exact_sse =
      histogram(ErrorMetric::kSse, HistogramMethod::kOptimal);
  const SynopsisRequest exact_sae =
      histogram(ErrorMetric::kSae, HistogramMethod::kOptimal);
  const SynopsisRequest exact_mae =
      histogram(ErrorMetric::kMae, HistogramMethod::kOptimal);
  const SynopsisRequest approx_sse =
      histogram(ErrorMetric::kSse, HistogramMethod::kApprox);
  SynopsisRequest sharded_exact = exact_sse;
  sharded_exact.sharding = on4;
  SynopsisRequest sharded_approx = approx_sse;
  sharded_approx.sharding = on4;
  SynopsisRequest streaming =
      histogram(ErrorMetric::kSse, HistogramMethod::kStreaming);
  streaming.options.sse_variant = SseVariant::kFixedRepresentative;
  const SynopsisRequest expectation =
      histogram(ErrorMetric::kSse, HistogramMethod::kExpectation);
  const SynopsisRequest sampled =
      histogram(ErrorMetric::kSse, HistogramMethod::kSampledWorld);
  const SynopsisRequest equidepth =
      histogram(ErrorMetric::kSse, HistogramMethod::kEquiDepth);
  const SynopsisRequest greedy =
      wavelet(ErrorMetric::kSse, WaveletMethod::kAuto);
  const SynopsisRequest restricted =
      wavelet(ErrorMetric::kSae, WaveletMethod::kAuto);
  const SynopsisRequest unrestricted =
      wavelet(ErrorMetric::kSse, WaveletMethod::kUnrestrictedDp);
  SynopsisRequest restricted_floor = restricted;
  restricted_floor.fallback = RequestFallback::kDegrade;
  SynopsisRequest sharded_floor = sharded_exact;
  sharded_floor.fallback = RequestFallback::kDegrade;

  struct Case {
    SynopsisEngine::Options engine;
    SynopsisRequest request;
    bool tuple_input;
    std::string want;
  };
  const std::vector<Case> cases = {
      {one_lane, exact_sse, false,
       "histogram/exact-dp[kernel=sse-moment,simd=" + simd + ",sequential]"},
      {four_lanes, exact_sse, false,
       "histogram/exact-dp[kernel=sse-moment,simd=" + simd + ",parallel=4]"},
      {one_lane, exact_sae, false,
       "histogram/exact-dp[kernel=abs-cumulative,simd=" + simd +
           ",sequential]"},
      {four_lanes, exact_sae, false,
       "histogram/exact-dp[kernel=abs-cumulative,simd=" + simd +
           ",parallel=4]"},
      {one_lane, exact_mae, false,
       "histogram/exact-dp[kernel=max-error,simd=" + simd + ",sequential]"},
      {four_lanes, exact_mae, false,
       "histogram/exact-dp[kernel=max-error,simd=" + simd + ",parallel=4]"},
      {one_lane, approx_sse, false,
       "histogram/approx-dp(eps=0.1)[kernel=sse-moment,simd=" + simd +
           ",sequential]"},
      {four_lanes, approx_sse, false,
       "histogram/approx-dp(eps=0.1)[kernel=sse-moment,simd=" + simd +
           ",sequential]"},
      {one_lane, sharded_exact, false,
       "histogram/sharded-dp[kernel=sse-moment,simd=" + simd +
           ",shards=4,par=1]"},
      {four_lanes, sharded_exact, false,
       "histogram/sharded-dp[kernel=sse-moment,simd=" + simd +
           ",shards=4,par=4]"},
      {one_lane, sharded_approx, false,
       "histogram/sharded-approx(eps=0.1)[kernel=sse-moment,simd=" + simd +
           ",shards=4,par=1]"},
      {four_lanes, sharded_approx, false,
       "histogram/sharded-approx(eps=0.1)[kernel=sse-moment,simd=" + simd +
           ",shards=4,par=4]"},
      {auto_shard, approx_sse, false,
       "histogram/sharded-approx(eps=0.1)[kernel=sse-moment,simd=" + simd +
           ",shards=2,par=2]"},
      {one_lane, streaming, false,
       "histogram/streaming-ahist(eps=0.1)[kernel=point-cost,simd=" + simd +
           ",sequential]"},
      {one_lane, expectation, false,
       "histogram/baseline-expectation[sequential]"},
      {one_lane, sampled, false,
       "histogram/baseline-sampled-world[sequential]"},
      {one_lane, equidepth, false, "histogram/baseline-equidepth[sequential]"},
      {one_lane, greedy, false, "wavelet/greedy-sse[sequential]"},
      {one_lane, restricted, false,
       "wavelet/restricted-dp[kernel=budget-split,memo=dense-arena,simd=" +
           simd + ",par=1]"},
      {four_lanes, restricted, false,
       "wavelet/restricted-dp[kernel=budget-split,memo=dense-arena,simd=" +
           simd + ",par=4]"},
      {one_lane, unrestricted, false,
       "wavelet/unrestricted-dp[kernel=budget-split,simd=" + simd +
           ",sequential]"},
      {one_lane, exact_sse, true,
       "histogram/exact-dp[kernel=tuple-sse,simd=" + simd + ",sequential]"},
      {one_lane, approx_sse, true,
       "histogram/approx-dp(eps=0.1)[kernel=tuple-sse,simd=" + simd +
           ",sequential]"},
      {one_lane, greedy, true, "wavelet/greedy-sse[sequential]"},
      {tiny_workspace, restricted_floor, false,
       "wavelet/greedy-sse[sequential][degraded=restricted-dp->greedy-sse]"},
      {tiny_workspace, sharded_floor, false,
       "histogram/baseline-equidepth[sequential][degraded=exact-dp->"
       "equidepth]"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.want);
    SynopsisEngine engine(c.engine);
    auto result = c.tuple_input ? engine.Build(tuples, c.request)
                                : engine.Build(values, c.request);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->solver, c.want);
  }
}

TEST(EngineErrors, MethodNamesRoundTrip) {
  for (HistogramMethod m :
       {HistogramMethod::kOptimal, HistogramMethod::kApprox,
        HistogramMethod::kStreaming, HistogramMethod::kExpectation,
        HistogramMethod::kSampledWorld, HistogramMethod::kEquiDepth}) {
    auto parsed = ParseHistogramMethod(HistogramMethodName(m));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, m);
  }
  for (WaveletMethod m :
       {WaveletMethod::kAuto, WaveletMethod::kGreedySse,
        WaveletMethod::kRestrictedDp, WaveletMethod::kUnrestrictedDp}) {
    auto parsed = ParseWaveletMethod(WaveletMethodName(m));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, m);
  }
  EXPECT_FALSE(ParseHistogramMethod("nope").ok());
  EXPECT_FALSE(ParseWaveletMethod("nope").ok());
}

}  // namespace
}  // namespace probsyn
