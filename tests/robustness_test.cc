// Deadline, cancellation, and graceful-degradation behavior of the engine:
// every construction route must stop cooperatively (kDeadlineExceeded /
// kCancelled with route + progress in the message), no DP-workspace lease
// may leak on any unwind path, the engine must stay fully usable after a
// stopped build, and RequestFallback::kDegrade must serve a truthfully
// re-costed cheaper synopsis instead of failing. The n=1e6 test pins the
// ISSUE acceptance criterion: a deadlined million-item approximate build
// under kDegrade returns a usable degraded synopsis within deadline+10ms,
// while kNone fails with kDeadlineExceeded.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluate.h"
#include "core/point_error.h"
#include "engine/synopsis_engine.h"
#include "gen/generators.h"
#include "util/deadline.h"

namespace probsyn {
namespace {

using steady_clock = std::chrono::steady_clock;

double SecondsSince(steady_clock::time_point start) {
  return std::chrono::duration<double>(steady_clock::now() - start).count();
}

// Multiplier on the wall-clock bounds below, so the same assertions hold
// under instrumented builds (CI's TSan cancellation run sets
// PROBSYN_TIMING_SLACK to absorb the sanitizer's slowdown). Plain builds
// run the bounds as written.
double TimingSlack() {
  static const double slack = [] {
    const char* value = std::getenv("PROBSYN_TIMING_SLACK");
    if (value == nullptr) return 1.0;
    double parsed = std::atof(value);
    return parsed >= 1.0 ? parsed : 1.0;
  }();
  return slack;
}

// Re-costs `histogram` exactly the way the engine's truthful re-costing
// does, so degraded results can be checked for honesty bit-for-bit.
double TruthfulCost(const ValuePdfInput& input, const Histogram& histogram,
                    const SynopsisOptions& options) {
  if (options.metric == ErrorMetric::kSse &&
      options.sse_variant == SseVariant::kWorldMean) {
    auto cost = EvaluateHistogramWorldMeanSse(input, histogram);
    EXPECT_TRUE(cost.ok()) << cost.status();
    return cost.ok() ? *cost : -1.0;
  }
  auto cost = EvaluateHistogram(input, histogram, options);
  EXPECT_TRUE(cost.ok()) << cost.status();
  return cost.ok() ? *cost : -1.0;
}

void ExpectNoLeakedLeases(const SynopsisEngine& engine) {
  EXPECT_EQ(engine.workspace_pool_stats().outstanding, 0u);
}

const ValuePdfInput& SmallInput() {
  static const ValuePdfInput input =
      GenerateRandomValuePdf({.domain_size = 64, .seed = 11});
  return input;
}

// Big enough that the exact DP runs for >~100ms (n=4096, B=64 fills
// ~1e9 cells), so a mid-solve deadline or cancel always lands inside it.
const ValuePdfInput& MidSolveInput() {
  static const ValuePdfInput input =
      GenerateRandomValuePdf({.domain_size = 4096, .seed = 17});
  return input;
}

const ValuePdfInput& MillionInput() {
  static const ValuePdfInput input =
      GenerateRandomValuePdf({.domain_size = 1000000, .seed = 31});
  return input;
}

// One request per construction route, all valid against SmallInput().
std::vector<SynopsisRequest> EveryRoute() {
  std::vector<SynopsisRequest> requests;

  SynopsisRequest exact;
  exact.method = HistogramMethod::kOptimal;
  exact.budget = 6;
  requests.push_back(exact);

  SynopsisRequest approx = exact;
  approx.method = HistogramMethod::kApprox;
  approx.epsilon = 0.25;
  requests.push_back(approx);

  SynopsisRequest streaming = exact;
  streaming.method = HistogramMethod::kStreaming;
  streaming.epsilon = 0.25;
  streaming.options.sse_variant = SseVariant::kFixedRepresentative;
  requests.push_back(streaming);

  SynopsisRequest equidepth = exact;
  equidepth.method = HistogramMethod::kEquiDepth;
  requests.push_back(equidepth);

  SynopsisRequest sharded = exact;
  sharded.sharding.mode = RequestSharding::Mode::kOn;
  requests.push_back(sharded);

  SynopsisRequest greedy;
  greedy.kind = SynopsisKind::kWavelet;
  greedy.wavelet_method = WaveletMethod::kGreedySse;
  greedy.budget = 8;
  requests.push_back(greedy);

  SynopsisRequest restricted = greedy;
  restricted.wavelet_method = WaveletMethod::kRestrictedDp;
  requests.push_back(restricted);

  SynopsisRequest unrestricted = greedy;
  unrestricted.wavelet_method = WaveletMethod::kUnrestrictedDp;
  requests.push_back(unrestricted);

  return requests;
}

// --- Expired / cancelled before any work --------------------------------

TEST(Robustness, ExpiredDeadlineOnEntryFailsEveryRoute) {
  SynopsisEngine engine;
  for (SynopsisRequest request : EveryRoute()) {
    request.deadline = Deadline::After(-1.0);
    auto result = engine.Build(SmallInput(), request);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_NE(result.status().message().find("stopped at"),
              std::string::npos)
        << result.status();
    ExpectNoLeakedLeases(engine);
  }
}

TEST(Robustness, ExpiredDeadlineFailsEvenUnderDegrade) {
  // Degradation picks a cheaper route for a tight deadline; it cannot
  // rescue one that already passed.
  SynopsisEngine engine;
  SynopsisRequest request;
  request.budget = 6;
  request.deadline = Deadline::After(-0.5);
  request.fallback = RequestFallback::kDegrade;
  auto result = engine.Build(SmallInput(), request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  ExpectNoLeakedLeases(engine);
}

TEST(Robustness, CancelledOnEntryFailsEveryRoute) {
  SynopsisEngine engine;
  CancelToken token;
  token.Cancel();
  for (SynopsisRequest request : EveryRoute()) {
    request.cancel = &token;
    auto result = engine.Build(SmallInput(), request);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
    ExpectNoLeakedLeases(engine);
  }
}

// --- Mid-solve deadline --------------------------------------------------

TEST(Robustness, MidSolveDeadlineStopsExactDpAndEngineStaysUsable) {
  SynopsisEngine engine;
  SynopsisRequest request;
  request.budget = 64;
  // The solve takes ~180ms; the deadline lands well inside it.
  request.deadline = Deadline::After(0.02);
  auto start = steady_clock::now();
  auto result = engine.Build(MidSolveInput(), request);
  double elapsed = SecondsSince(start);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(result.status().message().find("stopped at"), std::string::npos)
      << result.status();
  // Cooperative polls are coarse but frequent: the build must stop long
  // before the full ~180ms solve would have finished.
  EXPECT_LT(elapsed, 0.15 * TimingSlack())
      << "deadline ignored for " << elapsed << "s";
  ExpectNoLeakedLeases(engine);

  // The stopped build must leave the engine (and its leased workspace
  // pool) fully reusable.
  SynopsisRequest retry;
  retry.budget = 6;
  auto ok = engine.Build(SmallInput(), retry);
  ASSERT_TRUE(ok.ok()) << ok.status();
  ExpectNoLeakedLeases(engine);
}

// --- Mid-solve cancellation, every long-running route --------------------

struct CancelProbe {
  Status status;
  double latency_seconds = 0.0;  // Build return time minus Cancel() time.
};

CancelProbe CancelMidSolve(const SynopsisEngine& engine,
                           const ValuePdfInput& input,
                           SynopsisRequest request, double delay_seconds) {
  CancelToken token;
  request.cancel = &token;
  steady_clock::time_point cancelled_at;
  std::thread firer([&] {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(delay_seconds));
    cancelled_at = steady_clock::now();
    token.Cancel();
  });
  auto result = engine.Build(input, request);
  steady_clock::time_point returned_at = steady_clock::now();
  firer.join();
  CancelProbe probe;
  probe.status = result.ok() ? Status::OK() : result.status();
  probe.latency_seconds =
      std::chrono::duration<double>(returned_at - cancelled_at).count();
  return probe;
}

void ExpectPromptCancel(const SynopsisEngine& engine, const CancelProbe& probe,
                        const char* route) {
  EXPECT_EQ(probe.status.code(), StatusCode::kCancelled)
      << route << ": " << probe.status;
  EXPECT_NE(probe.status.message().find("cancelled"), std::string::npos)
      << route << ": " << probe.status;
  // The ISSUE acceptance bound: back in the caller's hands within 50ms of
  // the cancel, on every route.
  EXPECT_LE(probe.latency_seconds, 0.05 * TimingSlack())
      << route << " took " << probe.latency_seconds << "s to unwind";
  EXPECT_EQ(engine.workspace_pool_stats().outstanding, 0u) << route;
}

TEST(Robustness, MidSolveCancellationExactDp) {
  SynopsisEngine engine;
  SynopsisRequest request;
  request.budget = 64;
  ExpectPromptCancel(
      engine, CancelMidSolve(engine, MidSolveInput(), request, 0.02),
      "exact-dp");
}

TEST(Robustness, MidSolveCancellationApproxDp) {
  SynopsisEngine engine;
  static const ValuePdfInput input =
      GenerateRandomValuePdf({.domain_size = 16384, .seed = 23});
  SynopsisRequest request;
  request.method = HistogramMethod::kApprox;
  request.budget = 32;
  request.epsilon = 0.1;
  request.sharding.mode = RequestSharding::Mode::kOff;
  ExpectPromptCancel(engine, CancelMidSolve(engine, input, request, 0.02),
                     "approx-dp");
}

TEST(Robustness, MidSolveCancellationShardedDp) {
  SynopsisEngine engine;
  static const ValuePdfInput input =
      GenerateRandomValuePdf({.domain_size = 16384, .seed = 29});
  SynopsisRequest request;
  request.method = HistogramMethod::kApprox;
  request.budget = 32;
  request.epsilon = 0.1;
  request.sharding.mode = RequestSharding::Mode::kOn;
  ExpectPromptCancel(engine, CancelMidSolve(engine, input, request, 0.02),
                     "sharded-dp");
}

TEST(Robustness, MidSolveCancellationStreaming) {
  // Streaming pushes cost ~150us each at this scale, so the full pass
  // takes ~15s: the cancel must land mid-stream and unwind promptly.
  SynopsisEngine engine;
  static const ValuePdfInput input =
      GenerateRandomValuePdf({.domain_size = 100000, .seed = 61});
  SynopsisRequest request;
  request.method = HistogramMethod::kStreaming;
  request.budget = 32;
  request.epsilon = 0.1;
  request.options.sse_variant = SseVariant::kFixedRepresentative;
  ExpectPromptCancel(engine, CancelMidSolve(engine, input, request, 0.05),
                     "streaming");
}

TEST(Robustness, MidSolveCancellationRestrictedWaveletDp) {
  // ~200ms solve (measured): the 20ms cancel lands well inside it.
  SynopsisEngine engine;
  static const ValuePdfInput input =
      GenerateRandomValuePdf({.domain_size = 2048, .seed = 37});
  SynopsisRequest request;
  request.kind = SynopsisKind::kWavelet;
  request.wavelet_method = WaveletMethod::kRestrictedDp;
  request.wavelet_max_domain = 4096;
  request.budget = 48;
  ExpectPromptCancel(engine, CancelMidSolve(engine, input, request, 0.02),
                     "restricted-dp");
}

TEST(Robustness, MidSolveCancellationUnrestrictedWaveletDp) {
  // ~370ms solve (measured): the 20ms cancel lands well inside it.
  SynopsisEngine engine;
  static const ValuePdfInput input =
      GenerateRandomValuePdf({.domain_size = 1024, .seed = 41});
  SynopsisRequest request;
  request.kind = SynopsisKind::kWavelet;
  request.wavelet_method = WaveletMethod::kUnrestrictedDp;
  request.budget = 24;
  request.unrestricted.grid_points = 129;
  ExpectPromptCancel(engine, CancelMidSolve(engine, input, request, 0.02),
                     "unrestricted-dp");
}

// --- Degradation ladder --------------------------------------------------

// The ISSUE acceptance criterion. A million-item approximate build whose
// predicted cost blows the deadline (tiny epsilon inflates the candidate
// count) must, under kDegrade, serve the equi-depth floor — truthfully
// re-costed, suffix-marked — within deadline + 10ms.
TEST(Robustness, MillionItemDeadlinedApproxDegradesWithinDeadline) {
  const ValuePdfInput& input = MillionInput();
  SynopsisEngine engine;
  SynopsisRequest request;
  request.method = HistogramMethod::kApprox;
  request.budget = 64;
  request.epsilon = 0.002;
  request.fallback = RequestFallback::kDegrade;

  const double deadline_seconds = 2.5;
  auto start = steady_clock::now();
  request.deadline = Deadline::After(deadline_seconds);
  auto result = engine.Build(input, request);
  double elapsed = SecondsSince(start);

  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_LE(elapsed, deadline_seconds + 0.010)
      << "degraded build blew its deadline";
  EXPECT_NE(result->solver.find("[degraded=approx-dp->equidepth]"),
            std::string::npos)
      << result->solver;
  EXPECT_GE(result->histogram.num_buckets(), 1u);
  EXPECT_LE(result->histogram.num_buckets(), request.budget);
  // Truthful re-costing: the reported cost is the served histogram's true
  // cost under the requested metric, not the abandoned route's.
  EXPECT_DOUBLE_EQ(result->cost,
                   TruthfulCost(input, result->histogram, request.options));
  ExpectNoLeakedLeases(engine);
}

TEST(Robustness, MillionItemDeadlinedApproxFailsUnderNoFallback) {
  const ValuePdfInput& input = MillionInput();
  SynopsisEngine engine;
  SynopsisRequest request;
  request.method = HistogramMethod::kApprox;
  request.budget = 64;
  request.epsilon = 0.002;
  request.fallback = RequestFallback::kNone;
  request.deadline = Deadline::After(0.05);
  auto result = engine.Build(input, request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  ExpectNoLeakedLeases(engine);
}

// Middle rung: an exact build that cannot fit its deadline — but whose
// sharded construction can — degrades one rung to sharded-approx (the
// cumulative-metric replacement), not all the way to the floor.
TEST(Robustness, ExactCumulativeDegradesToShardedRung) {
  static const ValuePdfInput input =
      GenerateRandomValuePdf({.domain_size = 32768, .seed = 43});
  SynopsisEngine engine;
  SynopsisRequest request;
  request.budget = 8;  // predicted exact ~1.4s; sharded-approx ~0.5s
  request.fallback = RequestFallback::kDegrade;
  request.deadline = Deadline::After(2.0);
  auto result = engine.Build(input, request);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NE(result->solver.find("[degraded=exact-dp->sharded-approx]"),
            std::string::npos)
      << result->solver;
  ExpectNoLeakedLeases(engine);
}

// Without a positive epsilon the (1+eps) rung would reject the request,
// so the middle rung is the sharded exact DP for every metric, priced as
// an exact sharded build: predicted exact ~5.7s against a 5s allowance,
// sharded exact (8 shards of one bucket each) ~0.09s at one lane. The
// sharded build takes ~1.2s at one lane in Release and ~4.2s in Debug
// (4-CPU Xeon), inside the 10s deadline.
TEST(Robustness, ExactCumulativeDegradesToShardedRungWithoutEpsilon) {
  static const ValuePdfInput input =
      GenerateRandomValuePdf({.domain_size = 65536, .seed = 43});
  SynopsisEngine engine;
  SynopsisRequest request;
  request.budget = 8;
  request.epsilon = 0.0;
  request.fallback = RequestFallback::kDegrade;
  request.deadline = Deadline::After(10.0);
  auto result = engine.Build(input, request);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NE(result->solver.find("[degraded=exact-dp->sharded-dp]"),
            std::string::npos)
      << result->solver;
  ExpectNoLeakedLeases(engine);
}

TEST(Robustness, RestrictedWaveletDegradesToGreedy) {
  static const ValuePdfInput input =
      GenerateRandomValuePdf({.domain_size = 1024, .seed = 47});
  SynopsisEngine engine;
  SynopsisRequest request;
  request.kind = SynopsisKind::kWavelet;
  request.wavelet_method = WaveletMethod::kRestrictedDp;
  request.budget = 16;
  request.options.metric = ErrorMetric::kMae;
  request.options.sanity_c = 0.5;
  request.fallback = RequestFallback::kDegrade;
  request.deadline = Deadline::After(0.2);
  auto result = engine.Build(input, request);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NE(result->solver.find("[degraded=restricted-dp->greedy-sse]"),
            std::string::npos)
      << result->solver;
  EXPECT_EQ(result->kind, SynopsisKind::kWavelet);
  ExpectNoLeakedLeases(engine);
}

// Run-time (not plan-time) degradation: a workspace byte cap trips
// kResourceExhausted inside the solver, and kDegrade turns that into the
// greedy floor while kNone surfaces it.
TEST(Robustness, WorkspaceByteCapDegradesOrFails) {
  static const ValuePdfInput input =
      GenerateRandomValuePdf({.domain_size = 1024, .seed = 53});
  SynopsisEngine engine({.max_workspace_bytes = 1u << 20});
  SynopsisRequest request;
  request.kind = SynopsisKind::kWavelet;
  request.wavelet_method = WaveletMethod::kRestrictedDp;
  request.budget = 16;  // O(n^2 B) arena far beyond 1 MiB

  auto failed = engine.Build(input, request);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);
  ExpectNoLeakedLeases(engine);

  request.fallback = RequestFallback::kDegrade;
  auto degraded = engine.Build(input, request);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_NE(degraded->solver.find("[degraded=restricted-dp->greedy-sse]"),
            std::string::npos)
      << degraded->solver;
  ExpectNoLeakedLeases(engine);
}

// The restricted wavelet DP counts its point-error tables against
// max_workspace_bytes together with its arena. Two inputs over one padded
// domain share the arena's size: the least cap that admits the arena and
// tables of a point-mass input admits the arena of an input with wider
// supports but not its larger tables, so that request fails under kNone and
// serves the greedy floor under kDegrade.
TEST(Robustness, WorkspaceByteCapCountsPointErrorTables) {
  constexpr std::size_t kN = 64;
  std::vector<ValuePdf> point_masses;
  for (std::size_t i = 0; i < kN; ++i) {
    point_masses.push_back(ValuePdf::PointMass(static_cast<double>(i % 5)));
  }
  const ValuePdfInput narrow(std::move(point_masses));
  const ValuePdfInput wide = GenerateRandomValuePdf(
      {.domain_size = kN, .max_support = 8, .max_value = 40, .seed = 61});
  ASSERT_GT(PointErrorTables::BuildBytes(wide, ErrorMetric::kSae, kN),
            PointErrorTables::BuildBytes(narrow, ErrorMetric::kSae, kN));

  auto build = [](const ValuePdfInput& input, std::size_t cap,
                  RequestFallback fallback, WaveletMethod method) {
    SynopsisEngine engine({.parallelism = 1, .max_workspace_bytes = cap});
    SynopsisRequest request;
    request.kind = SynopsisKind::kWavelet;
    request.wavelet_method = method;
    request.budget = 8;
    request.options.metric = ErrorMetric::kSae;
    request.fallback = fallback;
    return engine.Build(input, request);
  };
  auto restricted = [&](const ValuePdfInput& input, std::size_t cap,
                        RequestFallback fallback) {
    return build(input, cap, fallback, WaveletMethod::kRestrictedDp);
  };

  // The least cap under which the narrow input builds (a cap is a byte
  // threshold, so success is monotone in it).
  std::size_t lo = 1, hi = std::size_t{1} << 26;
  ASSERT_TRUE(restricted(narrow, hi, RequestFallback::kNone).ok());
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (restricted(narrow, mid, RequestFallback::kNone).ok()) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const std::size_t cap = lo;
  EXPECT_EQ(restricted(narrow, cap - 1, RequestFallback::kNone).status().code(),
            StatusCode::kResourceExhausted);

  auto failed = restricted(wide, cap, RequestFallback::kNone);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);

  auto degraded = restricted(wide, cap, RequestFallback::kDegrade);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_NE(degraded->solver.find("[degraded=restricted-dp->greedy-sse]"),
            std::string::npos)
      << degraded->solver;
  // The floor is the greedy selection, re-costed under SAE.
  auto greedy =
      build(wide, 0, RequestFallback::kNone, WaveletMethod::kGreedySse);
  ASSERT_TRUE(greedy.ok()) << greedy.status();
  EXPECT_TRUE(degraded->wavelet == greedy->wavelet);
  EXPECT_EQ(degraded->cost, greedy->cost);
}

// --- Batch semantics -----------------------------------------------------

TEST(Robustness, BatchFailsOnFirstStoppedMember) {
  SynopsisEngine engine;
  CancelToken cancelled;
  cancelled.Cancel();
  std::vector<SynopsisRequest> requests(3);
  requests[0].budget = 4;
  requests[1].budget = 6;
  requests[1].cancel = &cancelled;
  requests[2].budget = 5;
  requests[2].method = HistogramMethod::kEquiDepth;
  auto batch = engine.BuildBatch(SmallInput(), requests);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kCancelled);
  ExpectNoLeakedLeases(engine);
}

// A member that plan-degrades out of an oracle-sharing group must not
// perturb the group's other members: the unbounded member's answer stays
// bit-identical to a build without the deadlined sibling.
TEST(Robustness, PlanTimeDegradationIsolatesGroupMembers) {
  static const ValuePdfInput input =
      GenerateRandomValuePdf({.domain_size = 4096, .seed = 59});
  SynopsisEngine engine;

  std::vector<SynopsisRequest> requests(2);
  requests[0].budget = 64;  // predicted ~180ms; cannot fit 100ms
  requests[0].deadline = Deadline::After(0.1);
  requests[0].fallback = RequestFallback::kDegrade;
  requests[1].budget = 8;  // unbounded sibling, same oracle requirements

  auto batch = engine.BuildBatch(input, requests);
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_NE((*batch)[0].solver.find("[degraded=exact-dp->"),
            std::string::npos)
      << (*batch)[0].solver;

  SynopsisRequest alone;
  alone.budget = 8;
  auto reference = engine.Build(input, alone);
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_TRUE((*batch)[1].histogram == reference->histogram);
  EXPECT_EQ((*batch)[1].cost, reference->cost);
  ExpectNoLeakedLeases(engine);
}

// Frequencies of 1e200 overflow the SSE moment prefix sums, and Inf - Inf
// makes the cost NaN. The engine used to return that synopsis as OK (one
// bucket for a two-bucket request, "expected SSE = -nan"); it must fail
// with a Status instead.
TEST(Robustness, NonFiniteCostIsNeverReturnedOk) {
  const ValuePdfInput input(
      std::vector<ValuePdf>(4, ValuePdf::PointMass(1e200)));
  SynopsisEngine engine;
  for (HistogramMethod method :
       {HistogramMethod::kOptimal, HistogramMethod::kApprox}) {
    SynopsisRequest request;
    request.method = method;
    request.budget = 2;
    request.options.metric = ErrorMetric::kSse;
    auto result = engine.Build(input, request);
    ASSERT_FALSE(result.ok())
        << HistogramMethodName(method) << " returned cost " << result->cost;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("non-finite cost"),
              std::string::npos)
        << result.status();
  }
  ExpectNoLeakedLeases(engine);
}

}  // namespace
}  // namespace probsyn
