#include "engine/synopsis_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <tuple>
#include <type_traits>
#include <utility>

#include "core/baselines.h"
#include "core/builders.h"
#include "core/dp_kernels.h"
#include "core/evaluate.h"
#include "core/histogram_dp.h"
#include "core/oracle_factory.h"
#include "core/sharded_dp.h"
#include "core/wavelet_dp.h"
#include "model/induced.h"
#include "stream/streaming_histogram.h"
#include "util/fault_injection.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace probsyn {

namespace {

// Two histogram requests may share one preprocessed oracle iff these
// agree (the oracle reads nothing else from the request). The SSE variant
// only matters under kSse, and the sanity constant only under the relative
// metrics; normalizing both keeps sharing groups maximal (e.g. two SSE
// requests with different sanity constants still share one oracle).
using OracleKey = std::tuple<int, double, int, std::vector<double>>;

OracleKey MakeOracleKey(const SynopsisOptions& options) {
  int variant = options.metric == ErrorMetric::kSse
                    ? static_cast<int>(options.sse_variant)
                    : 0;
  // Only the relative metrics' oracles read the sanity constant (SSE's
  // moments, SAE's unweighted U/D tables, and MAE's absolute-error
  // envelope are all c-independent).
  double sanity_c =
      IsRelativeMetric(options.metric) ? options.sanity_c : 0.0;
  return {static_cast<int>(options.metric), sanity_c, variant,
          options.workload};
}

// The construction routes a request can run. PlanBatch resolves every
// request to one before any work starts; the executors, the run-time
// floor and the solver string read only that plan.
enum class Route {
  kExact,
  kApprox,
  kShardedExact,
  kShardedApprox,
  kStreaming,
  kExpectation,
  kSampledWorld,
  kEquiDepth,
  kGreedy,
  kRestricted,
  kUnrestricted,
};

// Per route, in Route order: the solver-string name, whether the name
// carries the request's epsilon, and the label the route goes by in a
// `[degraded=<from>-><to>]` suffix.
struct RouteInfo {
  const char* name;
  bool has_epsilon;
  const char* label;
};
constexpr RouteInfo kRoutes[] = {
    {"histogram/exact-dp", false, "exact-dp"},
    {"histogram/approx-dp", true, "approx-dp"},
    {"histogram/sharded-dp", false, "sharded-dp"},
    {"histogram/sharded-approx", true, "sharded-approx"},
    {"histogram/streaming-ahist", true, "streaming"},
    {"histogram/baseline-expectation", false, "baseline-expectation"},
    {"histogram/baseline-sampled-world", false, "baseline-sampled-world"},
    {"histogram/baseline-equidepth", false, "equidepth"},
    {"wavelet/greedy-sse", false, "greedy-sse"},
    {"wavelet/restricted-dp", false, "restricted-dp"},
    {"wavelet/unrestricted-dp", false, "unrestricted-dp"},
};

const RouteInfo& Info(Route route) {
  return kRoutes[static_cast<std::size_t>(route)];
}

bool IsSharded(Route route) {
  return route == Route::kShardedExact || route == Route::kShardedApprox;
}

// The solver string of a result served by `route`, e.g.
// "histogram/approx-dp(eps=0.1)[kernel=sse-moment,simd=avx2,sequential]".
std::string FormatSolver(Route route, double epsilon,
                         const std::string& detail) {
  std::string out = Info(route).name;
  if (Info(route).has_epsilon) {
    char eps[32];
    std::snprintf(eps, sizeof(eps), "(eps=%g)", epsilon);
    out += eps;
  }
  return out + "[" + detail + "]";
}

// The detail of a DP-backed route: the kernel that filled its tables, the
// SIMD path its min-reductions dispatched to (a forced scalar dispatch says
// simd=scalar rather than omitting the label), then its lanes.
std::string KernelDetail(const std::string& kernel, const std::string& lanes) {
  return "kernel=" + kernel + ",simd=" + SimdPathName(ActiveSimdPath()) +
         "," + lanes;
}

// The lanes of a route that runs on the engine pool as handed to it.
std::string PoolLanes(ThreadPool* pool) {
  return pool != nullptr ? "parallel=" + std::to_string(pool->num_threads() + 1)
                         : "sequential";
}

std::string DegradeSuffix(Route from, Route to) {
  return std::string("[degraded=") + Info(from).label + "->" +
         Info(to).label + "]";
}

// The value-pdf form of a batch's input, for the routes that consume
// per-item frequency pdfs (the coefficient-tree wavelet DPs, the stream,
// the sharded route, the non-SSE oracles and the re-costs). Value-pdf
// input passes through; tuple input is induced (exactly) on first use and
// shared by every later route of the batch, so a batch induces at most
// once. Induction is deterministic, so sharing it changes no result's
// bits.
template <typename Input>
class ValuePdfSource {
 public:
  explicit ValuePdfSource(const Input& input) : input_(input) {}

  // The value pdfs. A non-null `seconds` receives the time this call spent
  // inducing them (0 once they exist).
  StatusOr<const ValuePdfInput*> Get(double* seconds = nullptr) {
    if (seconds != nullptr) *seconds = 0.0;
    if constexpr (std::is_same_v<Input, ValuePdfInput>) {
      return &input_;
    } else {
      if (!induced_) {
        Stopwatch watch;
        induced_.emplace(InduceValuePdf(input_));
        if (seconds != nullptr) *seconds = watch.ElapsedSeconds();
      }
      if (!induced_->ok()) return induced_->status();
      return &induced_->value();
    }
  }

 private:
  const Input& input_;
  std::optional<StatusOr<ValuePdfInput>> induced_;  // tuple input only
};

// What the executors of one batch share: the input in both forms, the
// batch's leased workspace, the engine's workspace pool (the sharded
// route's per-shard leases) and the pool the batch's solvers run on.
template <typename Input>
struct Batch {
  const Input& input;
  ValuePdfSource<Input> values;
  DpWorkspace* workspace;
  DpWorkspacePool* workspaces;
  ThreadPool* pool;
};

/// Baseline histograms have no oracle-native cost; re-cost them under the
/// true distribution (the section-5 experimental protocol). World-mean SSE
/// reads the input itself (on tuple input it needs the joint
/// distribution); every other metric reads the value pdfs.
template <typename Input>
StatusOr<double> EvaluateHistogramCost(Batch<Input>& batch,
                                       const Histogram& h,
                                       const SynopsisOptions& options) {
  if (options.metric == ErrorMetric::kSse &&
      options.sse_variant == SseVariant::kWorldMean) {
    return EvaluateHistogramWorldMeanSse(batch.input, h);
  }
  PROBSYN_ASSIGN_OR_RETURN(const ValuePdfInput* value_input,
                           batch.values.Get());
  return EvaluateHistogram(*value_input, h, options);
}

// Items the streaming route pushes per PushBatch call (the builder's
// internal block width), polling its context before each block.
constexpr std::size_t kStreamBlock = 32;

template <typename Input>
StatusOr<SynopsisResult> ExecStreaming(Batch<Input>& batch,
                                       const SynopsisRequest& request,
                                       const ExecContext* ctx) {
  // The stream consumes per-item frequency pdfs (exact for tuple input:
  // SSE fixed-rep is per-item decomposable).
  SynopsisResult result;
  PROBSYN_ASSIGN_OR_RETURN(
      const ValuePdfInput* input,
      batch.values.Get(&result.timing.preprocess_seconds));
  Stopwatch watch;
  // The leased workspace hosts the boundary-chain store, so steady-state
  // streaming requests allocate no chain nodes (the builder releases every
  // reference on destruction).
  StreamingHistogramBuilder builder(
      request.budget, request.epsilon,
      batch.workspace != nullptr ? &batch.workspace->stream_chains()
                                 : nullptr);
  const std::span<const ValuePdf> items = input->items();
  for (std::size_t done = 0; done < items.size(); done += kStreamBlock) {
    if (StopRequested(ctx)) {
      return ctx->StopStatus("streaming", "item", done, items.size());
    }
    builder.PushBatch(
        items.subspan(done, std::min(kStreamBlock, items.size() - done)));
  }
  PROBSYN_ASSIGN_OR_RETURN(auto finished, builder.Finish());
  result.histogram = std::move(finished.histogram);
  result.cost = finished.cost;
  result.solver = FormatSolver(Route::kStreaming, request.epsilon,
                               KernelDetail("point-cost", "sequential"));
  result.timing.solve_seconds = watch.ElapsedSeconds();
  return result;
}

template <typename Input>
StatusOr<SynopsisResult> ExecBaseline(Route route, Batch<Input>& batch,
                                      const SynopsisRequest& request) {
  Stopwatch watch;
  Rng rng(request.seed);
  StatusOr<Histogram> histogram =
      route == Route::kExpectation
          ? BuildExpectationHistogram(batch.input, request.options,
                                      request.budget)
      : route == Route::kSampledWorld
          ? BuildSampledWorldHistogram(batch.input, request.options,
                                       request.budget, rng)
          : BuildEquiDepthHistogram(batch.input, request.options,
                                    request.budget);
  if (!histogram.ok()) return histogram.status();
  double solve_seconds = watch.ElapsedSeconds();

  watch.Restart();
  auto cost = EvaluateHistogramCost(batch, *histogram, request.options);
  if (!cost.ok()) return cost.status();

  SynopsisResult result;
  result.kind = SynopsisKind::kHistogram;
  result.histogram = std::move(histogram).value();
  result.cost = *cost;
  result.solver = FormatSolver(route, request.epsilon, "sequential");
  result.timing.solve_seconds = solve_seconds;
  result.timing.preprocess_seconds = watch.ElapsedSeconds();  // re-costing
  return result;
}

template <typename Input>
StatusOr<SynopsisResult> ExecWavelet(Route route, Batch<Input>& batch,
                                     const SynopsisRequest& request,
                                     const ExecContext* ctx,
                                     std::size_t max_workspace_bytes) {
  SynopsisResult result;
  result.kind = SynopsisKind::kWavelet;

  if (route == Route::kGreedy) {
    Stopwatch watch;
    auto synopsis = BuildSseOptimalWavelet(batch.input, request.budget);
    if (!synopsis.ok()) return synopsis.status();
    result.wavelet = std::move(synopsis).value();
    result.timing.solve_seconds = watch.ElapsedSeconds();
    watch.Restart();
    PROBSYN_ASSIGN_OR_RETURN(const ValuePdfInput* value_input,
                             batch.values.Get());
    auto cost = EvaluateWavelet(*value_input, result.wavelet, request.options);
    if (!cost.ok()) return cost.status();
    result.cost = *cost;
    result.timing.preprocess_seconds = watch.ElapsedSeconds();
    result.solver = FormatSolver(route, request.epsilon, "sequential");
    return result;
  }

  // The coefficient-tree DPs consume value-pdf input.
  PROBSYN_ASSIGN_OR_RETURN(
      const ValuePdfInput* value_input,
      batch.values.Get(&result.timing.preprocess_seconds));

  // The solvers time their point-error table builds, which count as the
  // route's preprocess rather than its solve.
  double table_seconds = 0.0;
  Stopwatch watch;
  if (route == Route::kRestricted) {
    // The batch's leased workspace hosts the solver's flat state arena, so
    // steady-state wavelet requests allocate no DP state; the engine pool
    // fans the level sweeps out (bit-identical, recorded as par=).
    auto dp = BuildRestrictedWaveletDp(
        *value_input, request.budget, request.options,
        request.wavelet_max_domain, batch.workspace, batch.pool, ctx,
        max_workspace_bytes);
    if (!dp.ok()) return dp.status();
    result.wavelet = std::move(dp->synopsis);
    result.cost = dp->cost;
    table_seconds = dp->preprocess_seconds;
    result.solver = FormatSolver(
        route, request.epsilon,
        KernelDetail(std::string("budget-split,memo=") + dp->memo,
                     "par=" + std::to_string(dp->lanes)));
  } else {
    UnrestrictedWaveletOptions unrestricted = request.unrestricted;
    unrestricted.context = ctx;
    auto dp = BuildUnrestrictedWaveletDp(*value_input, request.budget,
                                         request.options, unrestricted);
    if (!dp.ok()) return dp.status();
    result.wavelet = std::move(dp->synopsis);
    result.cost = dp->cost;
    table_seconds = dp->preprocess_seconds;
    result.solver = FormatSolver(route, request.epsilon,
                                 KernelDetail("budget-split", "sequential"));
  }
  result.timing.preprocess_seconds += table_seconds;
  result.timing.solve_seconds = watch.ElapsedSeconds() - table_seconds;
  return result;
}

template <typename Input>
StatusOr<SynopsisResult> ExecSharded(Route route, Batch<Input>& batch,
                                     const SynopsisRequest& request,
                                     const ExecContext* ctx,
                                     std::size_t max_workspace_bytes) {
  if (std::is_same_v<Input, TuplePdfInput> &&
      request.options.metric == ErrorMetric::kSse &&
      request.options.sse_variant == SseVariant::kWorldMean) {
    return Status::Unimplemented(
        "sharded construction does not support world-mean SSE on tuple "
        "input (the joint-distribution oracle does not decompose across "
        "shards); use the fixed-representative variant or the unsharded "
        "route");
  }
  // Every other metric is per-item decomposable; shard the value pdfs
  // (exact, same as the other induced routes).
  SynopsisResult result;
  PROBSYN_ASSIGN_OR_RETURN(
      const ValuePdfInput* input,
      batch.values.Get(&result.timing.preprocess_seconds));
  Stopwatch watch;
  ShardedDpOptions sharded;
  sharded.shards = request.sharding.shards;
  sharded.max_shard_budget = request.sharding.max_shard_budget;
  sharded.solver = route == Route::kShardedExact ? ShardSolver::kExact
                                                 : ShardSolver::kApprox;
  sharded.epsilon = request.epsilon;
  sharded.pool = batch.pool;
  sharded.workspaces = batch.workspaces;
  sharded.context = ctx;
  sharded.max_workspace_bytes = max_workspace_bytes;
  PROBSYN_ASSIGN_OR_RETURN(
      ShardedDpResult built,
      BuildShardedHistogram(*input, request.budget, request.options, sharded));

  result.histogram = std::move(built.histogram);
  result.cost = built.cost;
  result.oracle_evaluations = built.oracle_evaluations;
  result.solver = FormatSolver(
      route, request.epsilon,
      KernelDetail(DpKernelKindName(built.kernel),
                   "shards=" + std::to_string(built.shards) +
                       ",par=" + std::to_string(built.lanes)));
  // Per-shard oracle builds happen inside the shard solves, so preprocess
  // only carries the tuple->value-pdf induction (if this route ran it).
  result.timing.solve_seconds = watch.ElapsedSeconds();
  return result;
}

// Runs one request on `route`. The exact and approximate DPs run per
// oracle group in BuildBatchImpl, never through here.
template <typename Input>
StatusOr<SynopsisResult> Execute(Route route, Batch<Input>& batch,
                                 const SynopsisRequest& request,
                                 const ExecContext* ctx,
                                 std::size_t max_workspace_bytes) {
  switch (route) {
    case Route::kStreaming:
      return ExecStreaming(batch, request, ctx);
    case Route::kExpectation:
    case Route::kSampledWorld:
    case Route::kEquiDepth:
      return ExecBaseline(route, batch, request);
    case Route::kShardedExact:
    case Route::kShardedApprox:
      return ExecSharded(route, batch, request, ctx, max_workspace_bytes);
    case Route::kGreedy:
    case Route::kRestricted:
    case Route::kUnrestricted:
      return ExecWavelet(route, batch, request, ctx, max_workspace_bytes);
    case Route::kExact:
    case Route::kApprox:
      break;
  }
  return Status::Internal("oracle-group route executed alone");
}

// The oracle of one sharing group. Tuple-input SSE reads the tuples
// directly (its moments, and the world-mean variant's joint distribution,
// need no per-item pdfs); every other oracle is built over the value pdfs.
template <typename Input>
StatusOr<OracleBundle> MakeGroupOracle(Batch<Input>& batch,
                                       const SynopsisOptions& options,
                                       PointErrorTablesCache* tables_cache) {
  if (std::is_same_v<Input, TuplePdfInput> &&
      options.metric == ErrorMetric::kSse) {
    return MakeBucketOracle(batch.input, options, batch.pool, tables_cache);
  }
  PROBSYN_ASSIGN_OR_RETURN(const ValuePdfInput* value_input,
                           batch.values.Get());
  return MakeBucketOracle(*value_input, options, batch.pool, tables_cache);
}

// --- Deadline-aware degradation (RequestFallback::kDegrade) ----------------
//
// Analytic route-cost model, calibrated against the committed bench
// baselines (BENCH_baseline.json): the exact DP fills cells at ~6e9/s
// (n=4096, B=64 solves in ~0.18s), the approximate DP sustains ~4e8
// candidate evaluations/s (n=1e5 unsharded solves take ~45s), a sharded
// approximate build of n=1e6 over 64 shards lands near 0.13s, and the
// linear baselines stream ~1e8 items/s. The rungs of the ladder sit
// decades apart, so order-of-magnitude fidelity is all the planner needs;
// the 2x margin in DegradeRoute absorbs the rest.

double EstimateExactDpSeconds(std::size_t n, std::size_t budget) {
  const double nn = static_cast<double>(n);
  return static_cast<double>(std::min(budget, n)) * nn * nn / 6e9;
}

double EstimateApproxDpSeconds(std::size_t n, std::size_t budget,
                               double epsilon) {
  const double b = static_cast<double>(std::min(budget, n));
  return b * b / std::max(epsilon, 1e-3) * static_cast<double>(n) *
         std::log2(static_cast<double>(n) + 2.0) / 4e8;
}

double EstimateShardedSeconds(std::size_t n, std::size_t budget, bool exact,
                              double epsilon, const RequestSharding& sharding,
                              std::size_t lanes) {
  const std::size_t total = std::min(budget, n);
  const std::size_t shards = ResolveShardCount(n, total, sharding.shards);
  const std::size_t cap =
      ResolveMaxShardBudget(total, shards, sharding.max_shard_budget);
  const std::size_t ns = (n + shards - 1) / shards;
  // Phase A dominates. Approximate shards no longer re-solve in phase C,
  // but the 2x factor that paid for it stays, so that no degradation
  // decision moves before the model is refit from measured runs.
  const double per_shard =
      exact ? EstimateExactDpSeconds(ns, cap)
            : 2.0 * EstimateApproxDpSeconds(ns, cap, epsilon);
  const double waves =
      std::ceil(static_cast<double>(shards) /
                static_cast<double>(std::max<std::size_t>(lanes, 1)));
  return per_shard * waves +
         static_cast<double>(total) * static_cast<double>(total) / 4e8;
}

double EstimateRestrictedWaveletSeconds(std::size_t n, std::size_t budget) {
  const double nn = static_cast<double>(n);
  const double bb = static_cast<double>(std::min(budget, n));
  return nn * nn * bb * bb / 1e9;
}

double EstimateUnrestrictedWaveletSeconds(std::size_t n, std::size_t budget,
                                          std::size_t grid_points) {
  const double nn = static_cast<double>(n);
  const double bb = static_cast<double>(std::min(budget, n));
  const double qq = static_cast<double>(grid_points);
  return nn * qq * qq * bb * bb / 1e9;
}

// Predicted seconds of one of the DP routes the ladder degrades.
double PredictSeconds(Route route, const SynopsisRequest& request,
                      std::size_t n, std::size_t lanes) {
  switch (route) {
    case Route::kExact:
      return EstimateExactDpSeconds(n, request.budget);
    case Route::kApprox:
      return EstimateApproxDpSeconds(n, request.budget, request.epsilon);
    case Route::kShardedExact:
    case Route::kShardedApprox:
      return EstimateShardedSeconds(n, request.budget,
                                    route == Route::kShardedExact,
                                    request.epsilon, request.sharding, lanes);
    case Route::kRestricted:
      return EstimateRestrictedWaveletSeconds(n, request.budget);
    case Route::kUnrestricted:
      return EstimateUnrestrictedWaveletSeconds(
          n, request.budget, request.unrestricted.grid_points);
    default:
      return 0.0;
  }
}

// Plan-time degradation of a request that would run `run`: the highest
// ladder rung whose predicted cost fits the request's remaining deadline
// budget (with a 2x margin for the model's coarseness). Returns `run`
// itself when it fits, when the request does not degrade, or when `run`
// is not a DP route — mid-solve overruns are still caught by the solver
// polls and fall to the ladder floor at run time.
Route DegradeRoute(const SynopsisRequest& request, Route run, std::size_t n,
                   std::size_t lanes, bool tuple_world_mean_sse) {
  const bool wavelet_dp =
      run == Route::kRestricted || run == Route::kUnrestricted;
  if (request.fallback != RequestFallback::kDegrade ||
      request.deadline.IsNever() ||
      !(wavelet_dp || IsSharded(run) || run == Route::kExact ||
        run == Route::kApprox)) {
    return run;
  }
  const double allow = request.deadline.RemainingSeconds() / 2.0;
  if (PredictSeconds(run, request, n, lanes) <= allow) return run;
  if (wavelet_dp) return Route::kGreedy;

  // Middle rung: sharded construction — approximate for cumulative
  // metrics, exact for maximum ones (whose approximate DP does not apply)
  // and for a request without a positive epsilon (whose (1+eps) rung
  // would be rejected). The joint-distribution world-mean SSE oracle
  // cannot shard at all.
  const Route sharded =
      IsCumulativeMetric(request.options.metric) && request.epsilon > 0.0
          ? Route::kShardedApprox
          : Route::kShardedExact;
  if (!IsSharded(run) && !tuple_world_mean_sse &&
      PredictSeconds(sharded, request, n, lanes) <= allow) {
    return sharded;
  }
  // Floor: equi-depth boundaries, truthfully re-costed. Always served,
  // even when the model predicts the deadline is unmeetable — a
  // best-effort cheap synopsis beats a guaranteed failure.
  return Route::kEquiDepth;
}

// The route a request's method names, wavelet kAuto resolved: greedy
// selection for SSE (Theorem 7), the restricted DP otherwise.
Route AskedRoute(const SynopsisRequest& request) {
  if (request.kind == SynopsisKind::kWavelet) {
    switch (request.wavelet_method) {
      case WaveletMethod::kAuto:
        return request.options.metric == ErrorMetric::kSse
                   ? Route::kGreedy
                   : Route::kRestricted;
      case WaveletMethod::kGreedySse: return Route::kGreedy;
      case WaveletMethod::kRestrictedDp: return Route::kRestricted;
      case WaveletMethod::kUnrestrictedDp: return Route::kUnrestricted;
    }
  }
  switch (request.method) {
    case HistogramMethod::kOptimal: return Route::kExact;
    case HistogramMethod::kApprox: return Route::kApprox;
    case HistogramMethod::kStreaming: return Route::kStreaming;
    case HistogramMethod::kExpectation: return Route::kExpectation;
    case HistogramMethod::kSampledWorld: return Route::kSampledWorld;
    case HistogramMethod::kEquiDepth: break;
  }
  return Route::kEquiDepth;
}

// One request as planned: the route its method names and the route that
// runs it. They differ when sharding or plan-time degradation moved the
// request; only degradation is recorded on the solver string.
struct PlannedRoute {
  Route asked;
  Route run;
  bool degraded;
};

// A batch's plan: each request's route, the exact and approximate
// requests grouped by the oracle they share, and every other request in
// execution order (unsharded routes first, then the sharded builds).
struct Plan {
  std::vector<PlannedRoute> routes;
  std::map<OracleKey, std::vector<std::size_t>> oracle_groups;
  std::vector<std::size_t> order;
};

template <typename Input>
Plan PlanBatch(std::span<const SynopsisRequest> requests, std::size_t n,
               const SynopsisEngine::Options& options) {
  Plan plan;
  std::vector<std::size_t> sharded;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const SynopsisRequest& request = requests[i];
    const bool tuple_world_mean_sse =
        std::is_same_v<Input, TuplePdfInput> &&
        request.options.metric == ErrorMetric::kSse &&
        request.options.sse_variant == SseVariant::kWorldMean;
    const Route asked = AskedRoute(request);
    // Sharding: explicit kOn always (only valid on the exact/approx
    // histogram methods — Validate enforces that); kAuto only for kApprox
    // at domains where the unsharded approximate DP is infeasible, and
    // never for tuple-input world-mean SSE (whose joint oracle cannot
    // shard — kAuto keeps the unsharded route, kOn reports Unimplemented).
    const RequestSharding::Mode mode = request.sharding.mode;
    Route run = asked;
    if (mode == RequestSharding::Mode::kOn ||
        (mode == RequestSharding::Mode::kAuto && asked == Route::kApprox &&
         n >= options.shard_auto_domain && !tuple_world_mean_sse)) {
      if (asked == Route::kExact) run = Route::kShardedExact;
      if (asked == Route::kApprox) run = Route::kShardedApprox;
    }
    const Route degraded = DegradeRoute(request, run, n, options.parallelism,
                                        tuple_world_mean_sse);
    plan.routes.push_back({asked, degraded, degraded != run});
    // The sharded route builds its own per-shard oracles, so it never
    // joins an oracle-sharing group.
    if (degraded == Route::kExact || degraded == Route::kApprox) {
      plan.oracle_groups[MakeOracleKey(request.options)].push_back(i);
    } else if (IsSharded(degraded)) {
      sharded.push_back(i);
    } else {
      plan.order.push_back(i);
    }
  }
  plan.order.insert(plan.order.end(), sharded.begin(), sharded.end());
  return plan;
}

}  // namespace

Status SynopsisRequest::Validate() const {
  if (budget < 1) {
    return Status::InvalidArgument("synopsis budget must be >= 1");
  }
  PROBSYN_RETURN_IF_ERROR(options.Validate());
  if (kind == SynopsisKind::kHistogram) {
    switch (method) {
      case HistogramMethod::kApprox:
        if (!(epsilon > 0.0)) {
          return Status::InvalidArgument("epsilon must be positive");
        }
        if (!IsCumulativeMetric(options.metric)) {
          return Status::Unimplemented(
              "approximate histogram construction targets cumulative "
              "metrics (paper Theorem 5)");
        }
        break;
      case HistogramMethod::kStreaming:
        if (!(epsilon > 0.0)) {
          return Status::InvalidArgument("epsilon must be positive");
        }
        if (options.metric != ErrorMetric::kSse ||
            options.sse_variant != SseVariant::kFixedRepresentative) {
          return Status::Unimplemented(
              "streaming construction supports expected SSE with fixed "
              "representatives only");
        }
        if (options.HasWorkload()) {
          return Status::Unimplemented(
              "streaming construction does not support workload weights");
        }
        break;
      default:
        break;
    }
  }
  if (sharding.mode == RequestSharding::Mode::kOn &&
      (kind != SynopsisKind::kHistogram ||
       (method != HistogramMethod::kOptimal &&
        method != HistogramMethod::kApprox))) {
    return Status::Unimplemented(
        "sharded construction serves the exact and approximate histogram "
        "routes only");
  }
  return Status::OK();
}

SynopsisEngine::SynopsisEngine(Options options) : options_(options) {
  // Bound explicit lane counts too: `--threads -1` style input reaches us
  // as a huge unsigned value and must not turn into a thread-spawn storm.
  constexpr std::size_t kMaxLanes = 256;
  std::size_t lanes = options_.parallelism == 0
                          ? ThreadPool::DefaultThreadCount()
                          : std::min(options_.parallelism, kMaxLanes);
  if (lanes < 1) lanes = 1;
  options_.parallelism = lanes;
  if (lanes > 1) pool_ = std::make_unique<ThreadPool>(lanes - 1);
  workspaces_ = std::make_unique<DpWorkspacePool>();
}

SynopsisEngine::~SynopsisEngine() = default;
SynopsisEngine::SynopsisEngine(SynopsisEngine&&) noexcept = default;
SynopsisEngine& SynopsisEngine::operator=(SynopsisEngine&&) noexcept = default;

std::size_t SynopsisEngine::parallelism() const { return options_.parallelism; }

ThreadPool* SynopsisEngine::PoolFor(std::size_t domain_size) const {
  if (pool_ == nullptr || domain_size < options_.min_parallel_domain) {
    return nullptr;
  }
  return pool_.get();
}

template <typename Input>
StatusOr<std::vector<SynopsisResult>> SynopsisEngine::BuildBatchImpl(
    const Input& input, std::span<const SynopsisRequest> requests) const {
  // --- Plan: validate everything up front (all-or-nothing batches), bind
  // each request's deadline/cancel into an ExecContext, then resolve every
  // request to its route (sharding and plan-time degradation included)
  // and group the exact/approx requests by their oracle requirements.
  Stopwatch plan_watch;
  if (input.domain_size() == 0) {
    return Status::InvalidArgument("empty domain");
  }
  for (const SynopsisRequest& request : requests) {
    PROBSYN_RETURN_IF_ERROR(request.Validate());
  }

  // Per-request stop signals. Pointers into the vector stay valid for the
  // whole build (no appends after this loop).
  std::vector<ExecContext> contexts;
  contexts.reserve(requests.size());
  for (const SynopsisRequest& request : requests) {
    contexts.emplace_back(request.deadline, request.cancel);
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (StopRequested(&contexts[i])) {
      // Already cancelled or past its deadline before any work happened;
      // degradation cannot help an expired deadline, so this fails even
      // under RequestFallback::kDegrade.
      return contexts[i].StopStatus("engine", "request", i, requests.size());
    }
  }
  const Plan plan = PlanBatch<Input>(requests, input.domain_size(), options_);
  const double plan_seconds = plan_watch.ElapsedSeconds();

  std::vector<SynopsisResult> results(requests.size());

  // --- Execute oracle-backed groups: one preprocessed oracle per group,
  // one exact DP per group (solved to the largest requested budget). The
  // batch shares one leased DP workspace across groups (each group's
  // results are extracted before the next solve reuses the storage) and
  // one PointErrorTables cache across the MAE/MARE groups.
  PROBSYN_RETURN_IF_ERROR(MaybeInjectFault(FaultSite::kWorkspaceAlloc));
  DpWorkspacePool::Lease workspace = workspaces_->Acquire();
  ThreadPool* pool = PoolFor(input.domain_size());
  Batch<Input> batch{input, ValuePdfSource<Input>(input), workspace.get(),
                     workspaces_.get(), pool};

  // Stores request i's result, marked with its plan-time degradation.
  auto serve = [&](std::size_t i, SynopsisResult result) {
    const PlannedRoute& planned = plan.routes[i];
    if (planned.degraded) {
      result.solver += DegradeSuffix(planned.asked, planned.run);
    }
    result.timing.plan_seconds = plan_seconds;
    results[i] = std::move(result);
  };

  // Run-time degradation floor: when request i's (possibly already
  // plan-degraded) route stopped with `stop`, serve the ladder floor
  // instead — equi-depth boundaries for histograms, greedy-SSE selection
  // for wavelets — truthfully re-costed and suffixed
  // `[degraded=<from>-><to>]`. The floor runs unbounded: it is linear-time
  // and failing it would serve nothing. Only deadline and resource
  // overruns degrade; cancellation (the caller asked to stop) and genuine
  // errors fail the batch unchanged.
  auto run_floor = [&](std::size_t i, const Status& stop) -> Status {
    const bool degradable =
        requests[i].fallback == RequestFallback::kDegrade &&
        (stop.code() == StatusCode::kDeadlineExceeded ||
         stop.code() == StatusCode::kResourceExhausted);
    const Route asked = plan.routes[i].asked;
    const Route floor = requests[i].kind == SynopsisKind::kWavelet
                            ? Route::kGreedy
                            : Route::kEquiDepth;
    if (!degradable || asked == floor) return stop;
    PROBSYN_ASSIGN_OR_RETURN(
        SynopsisResult served,
        Execute(floor, batch, requests[i], /*ctx=*/nullptr,
                /*max_workspace_bytes=*/0));
    served.solver += DegradeSuffix(asked, floor);
    served.timing.plan_seconds = plan_seconds;
    results[i] = std::move(served);
    return Status::OK();
  };

  PointErrorTablesCache tables_cache;
  for (const auto& [key, indices] : plan.oracle_groups) {
    // Shared phases (oracle build, group exact DP) run under the group's
    // earliest member deadline plus every member's cancellation token:
    // shared work stops as soon as any member must stop.
    Deadline earliest;
    std::vector<const CancelToken*> tokens;
    for (std::size_t i : indices) {
      if (requests[i].deadline.RemainingSeconds() <
          earliest.RemainingSeconds()) {
        earliest = requests[i].deadline;
      }
      if (requests[i].cancel != nullptr) tokens.push_back(requests[i].cancel);
    }
    ExecContext group_context(earliest, tokens.data(), tokens.size());
    const ExecContext* group_ctx =
        group_context.Unbounded() ? nullptr : &group_context;

    Stopwatch watch;
    auto bundle =
        MakeGroupOracle(batch, requests[indices.front()].options, &tables_cache);
    if (!bundle.ok()) {
      // Preprocessing failed (e.g. an injected resource fault): the whole
      // group degrades or the batch fails.
      for (std::size_t i : indices) {
        PROBSYN_RETURN_IF_ERROR(run_floor(i, bundle.status()));
      }
      continue;
    }
    const double oracle_seconds = watch.ElapsedSeconds();

    // Serves exact request i from `dp` (extract before the next solve
    // reuses the workspace). The solver picks its kernel from the oracle's
    // type; the solver string records it for observability.
    auto serve_exact = [&](std::size_t i, const HistogramDpResult& dp,
                           double dp_seconds) {
      Stopwatch extract_watch;
      SynopsisResult result;
      result.histogram = dp.ExtractHistogram(requests[i].budget);
      result.cost = dp.OptimalCost(requests[i].budget);
      result.solver = FormatSolver(
          Route::kExact, requests[i].epsilon,
          KernelDetail(DpKernelKindName(dp.kernel()), PoolLanes(pool)));
      result.timing.preprocess_seconds = oracle_seconds;
      result.timing.solve_seconds = dp_seconds + extract_watch.ElapsedSeconds();
      serve(i, std::move(result));
    };
    std::size_t max_exact_budget = 0;
    for (std::size_t i : indices) {
      if (plan.routes[i].run == Route::kExact) {
        max_exact_budget = std::max(max_exact_budget, requests[i].budget);
      }
    }
    if (max_exact_budget > 0) {
      watch.Restart();
      HistogramDpResult dp = SolveHistogramDp(
          *bundle->oracle, max_exact_budget, bundle->combiner,
          {.pool = pool, .workspace = workspace.get(), .context = group_ctx});
      const double dp_seconds = watch.ElapsedSeconds();
      for (std::size_t i : indices) {
        if (plan.routes[i].run != Route::kExact) continue;
        if (dp.status().ok()) {
          serve_exact(i, dp, dp_seconds);
          continue;
        }
        // The shared solve stopped (one member's deadline/cancel, or a
        // fault). One member's signal must not fail the others: members
        // whose own context is still live re-solve solo at their own
        // budget; stopped members degrade or fail.
        if (StopRequested(&contexts[i])) {
          PROBSYN_RETURN_IF_ERROR(run_floor(
              i, contexts[i].StopStatus("exact-dp", "budget layer", 0,
                                        requests[i].budget)));
          continue;
        }
        watch.Restart();
        HistogramDpResult solo = SolveHistogramDp(
            *bundle->oracle, requests[i].budget, bundle->combiner,
            {.pool = pool,
             .workspace = workspace.get(),
             .context = &contexts[i]});
        if (!solo.status().ok()) {
          PROBSYN_RETURN_IF_ERROR(run_floor(i, solo.status()));
          continue;
        }
        serve_exact(i, solo, watch.ElapsedSeconds());
      }
    }

    for (std::size_t i : indices) {
      if (plan.routes[i].run != Route::kApprox) continue;
      watch.Restart();
      // The chosen point-cost kernel lands in the solver string. Approximate
      // solves are per-request, so each runs under its own context.
      auto approx =
          SolveApproxHistogramDp(*bundle->oracle, requests[i].budget,
                                 requests[i].epsilon, {.context = &contexts[i]});
      if (!approx.ok()) {
        PROBSYN_RETURN_IF_ERROR(run_floor(i, approx.status()));
        continue;
      }
      SynopsisResult result;
      result.histogram = std::move(approx->histogram);
      result.cost = approx->cost;
      result.oracle_evaluations = approx->oracle_evaluations;
      result.solver = FormatSolver(
          Route::kApprox, requests[i].epsilon,
          KernelDetail(DpKernelKindName(approx->kernel), "sequential"));
      result.timing.preprocess_seconds = oracle_seconds;
      result.timing.solve_seconds = watch.ElapsedSeconds();
      serve(i, std::move(result));
    }
  }

  // --- Execute everything else individually, in plan order. The unsharded
  // routes run after the oracle groups have extracted their results, so
  // they share the batch's leased workspace (the wavelet route's state
  // arena); each sharded build fans its shard solves out on the engine
  // pool and leases per-shard workspaces from the engine's workspace pool
  // (shard solves run concurrently and each needs its own arena).
  for (std::size_t i : plan.order) {
    auto result = Execute(plan.routes[i].run, batch, requests[i],
                          &contexts[i], options_.max_workspace_bytes);
    if (!result.ok()) {
      PROBSYN_RETURN_IF_ERROR(run_floor(i, result.status()));
      continue;
    }
    serve(i, std::move(result).value());
  }

  // Inputs whose magnitudes overflow double arithmetic (moment sums past
  // DBL_MAX, where Inf - Inf gives NaN) make the solvers' costs
  // non-finite, and the DPs and SIMD reductions are only specified for
  // NaN-free data; never return such a synopsis as OK.
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!std::isfinite(results[i].cost)) {
      return Status::InvalidArgument(
          "request " + std::to_string(i) + " (" + results[i].solver +
          ") produced a non-finite cost (" + std::to_string(results[i].cost) +
          "); the input's magnitudes overflow double arithmetic");
    }
  }
  return results;
}

DpWorkspacePool::Stats SynopsisEngine::workspace_pool_stats() const {
  return workspaces_->stats();
}

StatusOr<SynopsisResult> SynopsisEngine::Build(
    const ValuePdfInput& input, const SynopsisRequest& request) const {
  auto batch = BuildBatch(input, {&request, 1});
  if (!batch.ok()) return batch.status();
  return std::move(batch->front());
}

StatusOr<SynopsisResult> SynopsisEngine::Build(
    const TuplePdfInput& input, const SynopsisRequest& request) const {
  auto batch = BuildBatch(input, {&request, 1});
  if (!batch.ok()) return batch.status();
  return std::move(batch->front());
}

StatusOr<std::vector<SynopsisResult>> SynopsisEngine::BuildBatch(
    const ValuePdfInput& input,
    std::span<const SynopsisRequest> requests) const {
  return BuildBatchImpl(input, requests);
}

StatusOr<std::vector<SynopsisResult>> SynopsisEngine::BuildBatch(
    const TuplePdfInput& input,
    std::span<const SynopsisRequest> requests) const {
  return BuildBatchImpl(input, requests);
}

Status SynopsisEngine::Store(const std::string& path,
                             std::span<const NamedSynopsis> synopses) const {
  SynopsisStoreWriter writer;
  for (const NamedSynopsis& entry : synopses) {
    if (entry.result.kind == SynopsisKind::kHistogram) {
      PROBSYN_RETURN_IF_ERROR(
          writer.AddHistogram(entry.name, entry.result.histogram));
    } else {
      PROBSYN_RETURN_IF_ERROR(
          writer.AddWavelet(entry.name, entry.result.wavelet));
    }
  }
  return writer.WriteFile(path);
}

StatusOr<SynopsisServer> SynopsisEngine::Serve(const std::string& path) const {
  return SynopsisServer::Open(path);
}

StatusOr<std::unique_ptr<IngestCoordinator>> SynopsisEngine::OpenIngest(
    const IngestOptions& options) const {
  if (options.max_buckets < 1) {
    return Status::InvalidArgument("OpenIngest: max_buckets must be >= 1");
  }
  if (!(options.epsilon > 0.0)) {
    return Status::InvalidArgument("OpenIngest: epsilon must be > 0");
  }
  if (options.queue_capacity < 1) {
    return Status::InvalidArgument("OpenIngest: queue_capacity must be >= 1");
  }
  if (options.drain_batch < 1) {
    return Status::InvalidArgument("OpenIngest: drain_batch must be >= 1");
  }
  return std::make_unique<IngestCoordinator>(options, pool_.get(),
                                             workspaces_.get());
}

const char* SynopsisKindName(SynopsisKind kind) {
  return kind == SynopsisKind::kHistogram ? "histogram" : "wavelet";
}

const char* HistogramMethodName(HistogramMethod method) {
  switch (method) {
    case HistogramMethod::kOptimal: return "optimal";
    case HistogramMethod::kApprox: return "approx";
    case HistogramMethod::kStreaming: return "streaming";
    case HistogramMethod::kExpectation: return "expectation";
    case HistogramMethod::kSampledWorld: return "sampled";
    case HistogramMethod::kEquiDepth: return "equidepth";
  }
  return "?";
}

const char* WaveletMethodName(WaveletMethod method) {
  switch (method) {
    case WaveletMethod::kAuto: return "auto";
    case WaveletMethod::kGreedySse: return "greedy";
    case WaveletMethod::kRestrictedDp: return "restricted";
    case WaveletMethod::kUnrestrictedDp: return "unrestricted";
  }
  return "?";
}

StatusOr<HistogramMethod> ParseHistogramMethod(const std::string& name) {
  for (HistogramMethod m :
       {HistogramMethod::kOptimal, HistogramMethod::kApprox,
        HistogramMethod::kStreaming, HistogramMethod::kExpectation,
        HistogramMethod::kSampledWorld, HistogramMethod::kEquiDepth}) {
    if (name == HistogramMethodName(m)) return m;
  }
  return Status::InvalidArgument("unknown histogram method: " + name);
}

StatusOr<WaveletMethod> ParseWaveletMethod(const std::string& name) {
  for (WaveletMethod m :
       {WaveletMethod::kAuto, WaveletMethod::kGreedySse,
        WaveletMethod::kRestrictedDp, WaveletMethod::kUnrestrictedDp}) {
    if (name == WaveletMethodName(m)) return m;
  }
  return Status::InvalidArgument("unknown wavelet method: " + name);
}

}  // namespace probsyn
