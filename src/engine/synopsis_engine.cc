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

std::string FormatSolver(const char* route, ThreadPool* pool) {
  char buffer[96];
  if (pool != nullptr) {
    std::snprintf(buffer, sizeof(buffer), "%s[parallel=%zu]", route,
                  pool->num_threads() + 1);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%s[sequential]", route);
  }
  return buffer;
}


// DP-backed routes always record which kernel filled their tables AND the
// SIMD path the min-reductions dispatched to, e.g.
// "histogram/approx-dp(eps=0.1)[kernel=sse-moment,simd=avx2,sequential]" or
// "wavelet/restricted-dp[kernel=budget-split,memo=dense-arena,simd=avx2,
// par=4]" — a forced scalar dispatch says simd=scalar rather than omitting
// the label. Routes that report their own lane count (the restricted
// wavelet DP's parallel arena fill) pass `lanes` > 0 and get a `par=` label
// instead of the pool-derived parallel=/sequential suffix.
std::string FormatKernelSolver(const char* route, const char* kernel_name,
                               ThreadPool* pool, const char* memo = nullptr,
                               std::size_t lanes = 0) {
  std::string out = std::string(route) + "[kernel=" + kernel_name;
  if (memo != nullptr) out += std::string(",memo=") + memo;
  out += std::string(",simd=") + SimdPathName(ActiveSimdPath());
  if (lanes > 0) {
    out += ",par=" + std::to_string(lanes);
  } else if (pool != nullptr) {
    out += ",parallel=" + std::to_string(pool->num_threads() + 1);
  } else {
    out += ",sequential";
  }
  return out + "]";
}

std::string FormatApproxDpSolver(DpKernelKind kernel, double epsilon) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "histogram/approx-dp(eps=%g)",
                epsilon);
  return FormatKernelSolver(buffer, DpKernelKindName(kernel), nullptr);
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

/// Baseline histograms have no oracle-native cost; re-cost them under the
/// true distribution (the section-5 experimental protocol). World-mean SSE
/// reads the input itself (on tuple input it needs the joint
/// distribution); every other metric reads the value pdfs.
template <typename Input>
StatusOr<double> EvaluateHistogramCost(const Input& input,
                                       ValuePdfSource<Input>& values,
                                       const Histogram& h,
                                       const SynopsisOptions& options) {
  if (options.metric == ErrorMetric::kSse &&
      options.sse_variant == SseVariant::kWorldMean) {
    return EvaluateHistogramWorldMeanSse(input, h);
  }
  PROBSYN_ASSIGN_OR_RETURN(const ValuePdfInput* value_input, values.Get());
  return EvaluateHistogram(*value_input, h, options);
}

StatusOr<SynopsisResult> ExecStreaming(const ValuePdfInput& input,
                                       const SynopsisRequest& request,
                                       double preprocess_seconds,
                                       DpWorkspace* workspace,
                                       const ExecContext* ctx) {
  Stopwatch watch;
  // The leased workspace hosts the boundary-chain store, so steady-state
  // streaming requests allocate no chain nodes (the builder releases every
  // reference on destruction).
  StreamingHistogramBuilder builder(
      request.budget, request.epsilon,
      workspace != nullptr ? &workspace->stream_chains() : nullptr);
  std::size_t pushed = 0;
  // Pushes cost ~100us+ each once the bucket chains grow (merges
  // dominate), so PollGate's default 16-item cadence keeps cancellation
  // latency in the tens of milliseconds while the poll cost stays far
  // below 1% of the push cost.
  PollGate gate;
  for (const ValuePdf& pdf : input.items()) {
    if (gate.ShouldStop(ctx)) {
      return ctx->StopStatus("streaming", "item", pushed,
                             input.domain_size());
    }
    builder.Push(pdf);
    ++pushed;
  }
  PROBSYN_ASSIGN_OR_RETURN(auto finished, builder.Finish());

  SynopsisResult result;
  result.kind = SynopsisKind::kHistogram;
  result.histogram = std::move(finished.histogram);
  result.cost = finished.cost;
  {
    char route[64];
    std::snprintf(route, sizeof(route), "histogram/streaming-ahist(eps=%g)",
                  request.epsilon);
    result.solver = FormatKernelSolver(route, "point-cost", nullptr);
  }
  result.timing.preprocess_seconds = preprocess_seconds;
  result.timing.solve_seconds = watch.ElapsedSeconds();
  return result;
}

template <typename Input>
StatusOr<SynopsisResult> ExecHistogramBaseline(const Input& input,
                                               ValuePdfSource<Input>& values,
                                               const SynopsisRequest& request) {
  Stopwatch watch;
  StatusOr<Histogram> histogram = Status::Internal("unrouted baseline");
  const char* route = "";
  switch (request.method) {
    case HistogramMethod::kExpectation:
      histogram =
          BuildExpectationHistogram(input, request.options, request.budget);
      route = "histogram/baseline-expectation";
      break;
    case HistogramMethod::kSampledWorld: {
      Rng rng(request.seed);
      histogram = BuildSampledWorldHistogram(input, request.options,
                                             request.budget, rng);
      route = "histogram/baseline-sampled-world";
      break;
    }
    case HistogramMethod::kEquiDepth:
      histogram =
          BuildEquiDepthHistogram(input, request.options, request.budget);
      route = "histogram/baseline-equidepth";
      break;
    default:
      return Status::Internal("non-baseline method routed to baseline path");
  }
  if (!histogram.ok()) return histogram.status();
  double solve_seconds = watch.ElapsedSeconds();

  watch.Restart();
  auto cost = EvaluateHistogramCost(input, values, *histogram,
                                    request.options);
  if (!cost.ok()) return cost.status();

  SynopsisResult result;
  result.kind = SynopsisKind::kHistogram;
  result.histogram = std::move(histogram).value();
  result.cost = *cost;
  result.solver = FormatSolver(route, nullptr);
  result.timing.solve_seconds = solve_seconds;
  result.timing.preprocess_seconds = watch.ElapsedSeconds();  // re-costing
  return result;
}

template <typename Input>
StatusOr<SynopsisResult> ExecWavelet(const Input& input,
                                     ValuePdfSource<Input>& values,
                                     const SynopsisRequest& request,
                                     DpWorkspace* workspace, ThreadPool* pool,
                                     const ExecContext* ctx,
                                     std::size_t max_workspace_bytes) {
  WaveletMethod method = request.wavelet_method;
  if (method == WaveletMethod::kAuto) {
    method = request.options.metric == ErrorMetric::kSse
                 ? WaveletMethod::kGreedySse
                 : WaveletMethod::kRestrictedDp;
  }

  SynopsisResult result;
  result.kind = SynopsisKind::kWavelet;

  if (method == WaveletMethod::kGreedySse) {
    Stopwatch watch;
    auto synopsis = BuildSseOptimalWavelet(input, request.budget);
    if (!synopsis.ok()) return synopsis.status();
    result.wavelet = std::move(synopsis).value();
    result.timing.solve_seconds = watch.ElapsedSeconds();
    watch.Restart();
    PROBSYN_ASSIGN_OR_RETURN(const ValuePdfInput* value_input, values.Get());
    auto cost = EvaluateWavelet(*value_input, result.wavelet, request.options);
    if (!cost.ok()) return cost.status();
    result.cost = *cost;
    result.timing.preprocess_seconds = watch.ElapsedSeconds();
    result.solver = FormatSolver("wavelet/greedy-sse", nullptr);
    return result;
  }

  // The coefficient-tree DPs consume value-pdf input.
  PROBSYN_ASSIGN_OR_RETURN(const ValuePdfInput* value_input,
                           values.Get(&result.timing.preprocess_seconds));

  Stopwatch watch;
  if (method == WaveletMethod::kRestrictedDp) {
    // The batch's leased workspace hosts the solver's flat state arena, so
    // steady-state wavelet requests allocate no DP state; the engine pool
    // fans the level sweeps out (bit-identical, recorded as par=).
    auto dp = BuildRestrictedWaveletDp(
        *value_input, request.budget, request.options,
        request.wavelet_max_domain, workspace, pool, ctx, max_workspace_bytes);
    if (!dp.ok()) return dp.status();
    result.wavelet = std::move(dp->synopsis);
    result.cost = dp->cost;
    result.solver = FormatKernelSolver("wavelet/restricted-dp", "budget-split",
                                       nullptr, dp->memo, dp->lanes);
  } else {
    UnrestrictedWaveletOptions unrestricted = request.unrestricted;
    unrestricted.context = ctx;
    auto dp = BuildUnrestrictedWaveletDp(*value_input, request.budget,
                                         request.options, unrestricted);
    if (!dp.ok()) return dp.status();
    result.wavelet = std::move(dp->synopsis);
    result.cost = dp->cost;
    result.solver =
        FormatKernelSolver("wavelet/unrestricted-dp", "budget-split", nullptr);
  }
  result.timing.solve_seconds = watch.ElapsedSeconds();
  return result;
}

template <typename Input>
StatusOr<SynopsisResult> ExecSharded(ValuePdfSource<Input>& values,
                                     const SynopsisRequest& request,
                                     ThreadPool* pool,
                                     DpWorkspacePool* workspaces,
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
  double preprocess_seconds = 0.0;
  PROBSYN_ASSIGN_OR_RETURN(const ValuePdfInput* input,
                           values.Get(&preprocess_seconds));
  Stopwatch watch;
  ShardedDpOptions sharded;
  sharded.shards = request.sharding.shards;
  sharded.max_shard_budget = request.sharding.max_shard_budget;
  sharded.solver = request.method == HistogramMethod::kOptimal
                       ? ShardSolver::kExact
                       : ShardSolver::kApprox;
  sharded.epsilon = request.epsilon;
  sharded.pool = pool;
  sharded.workspaces = workspaces;
  sharded.context = ctx;
  sharded.max_workspace_bytes = max_workspace_bytes;
  PROBSYN_ASSIGN_OR_RETURN(
      ShardedDpResult built,
      BuildShardedHistogram(*input, request.budget, request.options, sharded));

  SynopsisResult result;
  result.kind = SynopsisKind::kHistogram;
  result.histogram = std::move(built.histogram);
  result.cost = built.cost;
  result.oracle_evaluations = built.oracle_evaluations;
  {
    char route[64];
    if (sharded.solver == ShardSolver::kExact) {
      std::snprintf(route, sizeof(route), "histogram/sharded-dp");
    } else {
      std::snprintf(route, sizeof(route), "histogram/sharded-approx(eps=%g)",
                    request.epsilon);
    }
    char buffer[176];
    std::snprintf(buffer, sizeof(buffer),
                  "%s[kernel=%s,simd=%s,shards=%zu,par=%zu]", route,
                  DpKernelKindName(built.kernel),
                  SimdPathName(ActiveSimdPath()), built.shards, built.lanes);
    result.solver = buffer;
  }
  // Per-shard oracle builds happen inside the shard solves, so preprocess
  // only carries the tuple->value-pdf induction (if this route ran it).
  result.timing.preprocess_seconds = preprocess_seconds;
  result.timing.solve_seconds = watch.ElapsedSeconds();
  return result;
}

// Whether a request takes the sharded route: explicit kOn always (only
// valid on the exact/approx histogram methods — Validate enforces that);
// kAuto only for kApprox at domains where the unsharded approximate DP is
// infeasible, and never for tuple-input world-mean SSE (whose joint oracle
// cannot shard — kAuto falls back to the unsharded route, kOn reports
// Unimplemented).
bool RoutesSharded(const SynopsisRequest& request, std::size_t domain_size,
                   std::size_t shard_auto_domain, bool tuple_world_mean_sse) {
  if (request.kind != SynopsisKind::kHistogram) return false;
  if (request.method != HistogramMethod::kOptimal &&
      request.method != HistogramMethod::kApprox) {
    return false;
  }
  switch (request.sharding.mode) {
    case RequestSharding::Mode::kOn:
      return true;
    case RequestSharding::Mode::kOff:
      return false;
    case RequestSharding::Mode::kAuto:
      return request.method == HistogramMethod::kApprox &&
             domain_size >= shard_auto_domain && !tuple_world_mean_sse;
  }
  return false;
}

template <typename Input>
StatusOr<SynopsisResult> ExecuteSingle(const Input& input,
                                       ValuePdfSource<Input>& values,
                                       const SynopsisRequest& request,
                                       DpWorkspace* workspace,
                                       ThreadPool* pool,
                                       const ExecContext* ctx,
                                       std::size_t max_workspace_bytes) {
  if (request.kind == SynopsisKind::kWavelet) {
    return ExecWavelet(input, values, request, workspace, pool, ctx,
                       max_workspace_bytes);
  }
  if (request.method == HistogramMethod::kStreaming) {
    // The stream consumes per-item frequency pdfs (exact for tuple input:
    // SSE fixed-rep is per-item decomposable).
    double induce_seconds = 0.0;
    PROBSYN_ASSIGN_OR_RETURN(const ValuePdfInput* value_input,
                             values.Get(&induce_seconds));
    return ExecStreaming(*value_input, request, induce_seconds, workspace,
                         ctx);
  }
  return ExecHistogramBaseline(input, values, request);
}

// The oracle of one sharing group. Tuple-input SSE reads the tuples
// directly (its moments, and the world-mean variant's joint distribution,
// need no per-item pdfs); every other oracle is built over the value pdfs.
template <typename Input>
StatusOr<OracleBundle> MakeGroupOracle(const Input& input,
                                       ValuePdfSource<Input>& values,
                                       const SynopsisOptions& options,
                                       ThreadPool* pool,
                                       PointErrorTablesCache* tables_cache) {
  if (std::is_same_v<Input, TuplePdfInput> &&
      options.metric == ErrorMetric::kSse) {
    return MakeBucketOracle(input, options, pool, tables_cache);
  }
  PROBSYN_ASSIGN_OR_RETURN(const ValuePdfInput* value_input, values.Get());
  return MakeBucketOracle(*value_input, options, pool, tables_cache);
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
// the 2x margin in PlanDegradedRoute absorbs the rest.

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
  // Phase A dominates; approximate shards pay phase C's re-solve too.
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

// The from-label of a `[degraded=<from>-><to>]` suffix: the route the
// caller originally asked for.
const char* RouteLabel(const SynopsisRequest& request) {
  if (request.kind == SynopsisKind::kWavelet) {
    WaveletMethod method = request.wavelet_method;
    if (method == WaveletMethod::kAuto) {
      method = request.options.metric == ErrorMetric::kSse
                   ? WaveletMethod::kGreedySse
                   : WaveletMethod::kRestrictedDp;
    }
    switch (method) {
      case WaveletMethod::kGreedySse: return "greedy-sse";
      case WaveletMethod::kRestrictedDp: return "restricted-dp";
      case WaveletMethod::kUnrestrictedDp: return "unrestricted-dp";
      case WaveletMethod::kAuto: break;  // resolved above
    }
    return "wavelet";
  }
  switch (request.method) {
    case HistogramMethod::kOptimal: return "exact-dp";
    case HistogramMethod::kApprox: return "approx-dp";
    case HistogramMethod::kStreaming: return "streaming";
    case HistogramMethod::kExpectation: return "baseline-expectation";
    case HistogramMethod::kSampledWorld: return "baseline-sampled-world";
    case HistogramMethod::kEquiDepth: return "baseline-equidepth";
  }
  return "histogram";
}

std::string DegradeSuffix(const char* from, const char* to) {
  return std::string("[degraded=") + from + "->" + to + "]";
}

// Outcome of plan-time degradation: the rewritten request plus the suffix
// recorded on the served solver string.
struct DegradedPlan {
  SynopsisRequest request;
  std::string suffix;
};

// Picks the highest ladder rung whose predicted cost fits the request's
// remaining deadline budget (with a 2x margin for the model's coarseness).
// Returns nullopt when the requested route already fits — mid-solve
// overruns are still caught by the solver polls and fall to the ladder
// floor at run time.
template <typename Input>
std::optional<DegradedPlan> PlanDegradedRoute(const SynopsisRequest& request,
                                              std::size_t n,
                                              std::size_t lanes,
                                              std::size_t shard_auto_domain) {
  if (request.fallback != RequestFallback::kDegrade ||
      request.deadline.IsNever()) {
    return std::nullopt;
  }
  const double allow = request.deadline.RemainingSeconds() / 2.0;
  const bool tuple_world_mean_sse =
      std::is_same_v<Input, TuplePdfInput> &&
      request.options.metric == ErrorMetric::kSse &&
      request.options.sse_variant == SseVariant::kWorldMean;

  if (request.kind == SynopsisKind::kWavelet) {
    WaveletMethod method = request.wavelet_method;
    if (method == WaveletMethod::kAuto) {
      method = request.options.metric == ErrorMetric::kSse
                   ? WaveletMethod::kGreedySse
                   : WaveletMethod::kRestrictedDp;
    }
    if (method == WaveletMethod::kGreedySse) return std::nullopt;
    const double predicted =
        method == WaveletMethod::kRestrictedDp
            ? EstimateRestrictedWaveletSeconds(n, request.budget)
            : EstimateUnrestrictedWaveletSeconds(
                  n, request.budget, request.unrestricted.grid_points);
    if (predicted <= allow) return std::nullopt;
    DegradedPlan plan{request, DegradeSuffix(RouteLabel(request),
                                             "greedy-sse")};
    plan.request.wavelet_method = WaveletMethod::kGreedySse;
    return plan;
  }

  if (request.method != HistogramMethod::kOptimal &&
      request.method != HistogramMethod::kApprox) {
    return std::nullopt;
  }
  const bool sharded_already = RoutesSharded(request, n, shard_auto_domain,
                                             tuple_world_mean_sse);
  const bool exact = request.method == HistogramMethod::kOptimal;
  const double predicted =
      sharded_already
          ? EstimateShardedSeconds(n, request.budget, exact, request.epsilon,
                                   request.sharding, lanes)
          : (exact ? EstimateExactDpSeconds(n, request.budget)
                   : EstimateApproxDpSeconds(n, request.budget,
                                             request.epsilon));
  if (predicted <= allow) return std::nullopt;

  // Middle rung: sharded construction — approximate for cumulative
  // metrics, exact for maximum ones (whose approximate DP does not apply).
  // The joint-distribution world-mean SSE oracle cannot shard at all.
  if (!sharded_already && !tuple_world_mean_sse) {
    const bool cumulative = IsCumulativeMetric(request.options.metric);
    const double sharded_predicted = EstimateShardedSeconds(
        n, request.budget, /*exact=*/!cumulative, request.epsilon,
        request.sharding, lanes);
    if (sharded_predicted <= allow) {
      DegradedPlan plan{
          request,
          DegradeSuffix(RouteLabel(request),
                        cumulative ? "sharded-approx" : "sharded-dp")};
      plan.request.method =
          cumulative ? HistogramMethod::kApprox : HistogramMethod::kOptimal;
      plan.request.sharding.mode = RequestSharding::Mode::kOn;
      return plan;
    }
  }

  // Floor: equi-depth boundaries, truthfully re-costed. Always served,
  // even when the model predicts the deadline is unmeetable — a
  // best-effort cheap synopsis beats a guaranteed failure.
  DegradedPlan plan{request, DegradeSuffix(RouteLabel(request), "equidepth")};
  plan.request.method = HistogramMethod::kEquiDepth;
  plan.request.sharding.mode = RequestSharding::Mode::kOff;
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
  // each request's deadline/cancel into an ExecContext, apply plan-time
  // degradation, then group histogram exact/approx requests by their
  // oracle requirements.
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

  // Plan-time degradation: rewrite requests whose predicted route cost
  // cannot fit their deadline. `overrides` keeps the common case (no
  // degradation) copy-free — SynopsisRequest carries workload vectors.
  const std::size_t n = input.domain_size();
  std::vector<std::optional<SynopsisRequest>> overrides(requests.size());
  std::vector<std::string> degraded(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (auto plan = PlanDegradedRoute<Input>(requests[i], n,
                                             options_.parallelism,
                                             options_.shard_auto_domain)) {
      overrides[i] = std::move(plan->request);
      degraded[i] = std::move(plan->suffix);
    }
  }
  auto effective = [&](std::size_t i) -> const SynopsisRequest& {
    return overrides[i] ? *overrides[i] : requests[i];
  };

  std::map<OracleKey, std::vector<std::size_t>> oracle_groups;
  std::vector<std::size_t> singles;
  std::vector<std::size_t> sharded;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const SynopsisRequest& request = effective(i);
    // The sharded route builds its own per-shard oracles, so it never
    // joins an oracle-sharing group.
    const bool tuple_world_mean_sse =
        std::is_same_v<Input, TuplePdfInput> &&
        request.options.metric == ErrorMetric::kSse &&
        request.options.sse_variant == SseVariant::kWorldMean;
    if (RoutesSharded(request, input.domain_size(),
                      options_.shard_auto_domain, tuple_world_mean_sse)) {
      sharded.push_back(i);
      continue;
    }
    bool oracle_backed =
        request.kind == SynopsisKind::kHistogram &&
        (request.method == HistogramMethod::kOptimal ||
         request.method == HistogramMethod::kApprox);
    if (oracle_backed) {
      oracle_groups[MakeOracleKey(request.options)].push_back(i);
    } else {
      singles.push_back(i);
    }
  }
  const double plan_seconds = plan_watch.ElapsedSeconds();

  std::vector<SynopsisResult> results(requests.size());
  ThreadPool* pool = PoolFor(input.domain_size());

  // --- Execute oracle-backed groups: one preprocessed oracle per group,
  // one exact DP per group (solved to the largest requested budget). The
  // batch shares one leased DP workspace across groups (each group's
  // results are extracted before the next solve reuses the storage) and
  // one PointErrorTables cache across the MAE/MARE groups.
  PROBSYN_RETURN_IF_ERROR(MaybeInjectFault(FaultSite::kWorkspaceAlloc));
  DpWorkspacePool::Lease workspace = workspaces_->Acquire();
  ValuePdfSource<Input> values(input);

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
    if (!degradable) return stop;
    SynopsisRequest floor = requests[i];
    const char* to = nullptr;
    if (floor.kind == SynopsisKind::kWavelet) {
      WaveletMethod method = floor.wavelet_method;
      if (method == WaveletMethod::kAuto) {
        method = floor.options.metric == ErrorMetric::kSse
                     ? WaveletMethod::kGreedySse
                     : WaveletMethod::kRestrictedDp;
      }
      if (method == WaveletMethod::kGreedySse) return stop;  // already floor
      floor.wavelet_method = WaveletMethod::kGreedySse;
      to = "greedy-sse";
    } else {
      if (floor.method == HistogramMethod::kEquiDepth) return stop;
      floor.method = HistogramMethod::kEquiDepth;
      floor.sharding.mode = RequestSharding::Mode::kOff;
      to = "equidepth";
    }
    auto served = ExecuteSingle(input, values, floor, workspace.get(), pool,
                                /*ctx=*/nullptr, /*max_workspace_bytes=*/0);
    if (!served.ok()) return served.status();
    results[i] = std::move(served).value();
    results[i].solver += DegradeSuffix(RouteLabel(requests[i]), to);
    results[i].timing.plan_seconds = plan_seconds;
    return Status::OK();
  };

  PointErrorTablesCache tables_cache;
  for (const auto& [key, indices] : oracle_groups) {
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
    auto bundle = MakeGroupOracle(input, values,
                                  requests[indices.front()].options, pool,
                                  &tables_cache);
    if (!bundle.ok()) {
      // Preprocessing failed (e.g. an injected resource fault): the whole
      // group degrades or the batch fails.
      for (std::size_t i : indices) {
        PROBSYN_RETURN_IF_ERROR(run_floor(i, bundle.status()));
      }
      continue;
    }
    const double oracle_seconds = watch.ElapsedSeconds();

    std::size_t max_exact_budget = 0;
    for (std::size_t i : indices) {
      if (effective(i).method == HistogramMethod::kOptimal) {
        max_exact_budget = std::max(max_exact_budget, effective(i).budget);
      }
    }
    if (max_exact_budget > 0) {
      watch.Restart();
      // The solver picks its kernel from the oracle's type; the solver
      // string records it for observability.
      HistogramDpResult dp = SolveHistogramDpWithKernel(
          *bundle->oracle, max_exact_budget, bundle->combiner,
          {.pool = pool, .workspace = workspace.get(), .context = group_ctx});
      const double dp_seconds = watch.ElapsedSeconds();
      if (dp.status().ok()) {
        for (std::size_t i : indices) {
          if (effective(i).method != HistogramMethod::kOptimal) continue;
          Stopwatch extract_watch;
          SynopsisResult& result = results[i];
          result.kind = SynopsisKind::kHistogram;
          result.histogram = dp.ExtractHistogram(effective(i).budget);
          result.cost = dp.OptimalCost(effective(i).budget);
          result.solver = FormatKernelSolver("histogram/exact-dp",
                                             DpKernelKindName(dp.kernel()),
                                             pool) +
                          degraded[i];
          result.timing.plan_seconds = plan_seconds;
          result.timing.preprocess_seconds = oracle_seconds;
          result.timing.solve_seconds =
              dp_seconds + extract_watch.ElapsedSeconds();
        }
      } else {
        // The shared solve stopped (one member's deadline/cancel, or a
        // fault). One member's signal must not fail the others: members
        // whose own context is still live re-solve solo at their own
        // budget; stopped members degrade or fail.
        for (std::size_t i : indices) {
          if (effective(i).method != HistogramMethod::kOptimal) continue;
          if (StopRequested(&contexts[i])) {
            PROBSYN_RETURN_IF_ERROR(run_floor(
                i, contexts[i].StopStatus("exact-dp", "budget layer", 0,
                                          effective(i).budget)));
            continue;
          }
          watch.Restart();
          HistogramDpResult solo = SolveHistogramDpWithKernel(
              *bundle->oracle, effective(i).budget, bundle->combiner,
              {.pool = pool,
               .workspace = workspace.get(),
               .context = &contexts[i]});
          if (!solo.status().ok()) {
            PROBSYN_RETURN_IF_ERROR(run_floor(i, solo.status()));
            continue;
          }
          // Extract before the next solo solve reuses the workspace.
          SynopsisResult& result = results[i];
          result.kind = SynopsisKind::kHistogram;
          result.histogram = solo.ExtractHistogram(effective(i).budget);
          result.cost = solo.OptimalCost(effective(i).budget);
          result.solver = FormatKernelSolver("histogram/exact-dp",
                                             DpKernelKindName(solo.kernel()),
                                             pool) +
                          degraded[i];
          result.timing.plan_seconds = plan_seconds;
          result.timing.preprocess_seconds = oracle_seconds;
          result.timing.solve_seconds = watch.ElapsedSeconds();
        }
      }
    }

    for (std::size_t i : indices) {
      if (effective(i).method != HistogramMethod::kApprox) continue;
      watch.Restart();
      // The chosen point-cost kernel lands in the solver string. Approximate
      // solves are per-request, so each runs under its own context.
      auto approx = SolveApproxHistogramDpWithKernel(
          *bundle->oracle, effective(i).budget, effective(i).epsilon,
          {.context = &contexts[i]});
      if (!approx.ok()) {
        PROBSYN_RETURN_IF_ERROR(run_floor(i, approx.status()));
        continue;
      }
      SynopsisResult& result = results[i];
      result.kind = SynopsisKind::kHistogram;
      result.histogram = std::move(approx->histogram);
      result.cost = approx->cost;
      result.oracle_evaluations = approx->oracle_evaluations;
      result.solver =
          FormatApproxDpSolver(approx->kernel, effective(i).epsilon) +
          degraded[i];
      result.timing.plan_seconds = plan_seconds;
      result.timing.preprocess_seconds = oracle_seconds;
      result.timing.solve_seconds = watch.ElapsedSeconds();
    }
  }

  // --- Execute everything else individually. Requests run after the
  // oracle groups have extracted their results, so sharing the batch's
  // leased workspace (the wavelet route's state arena) is safe.
  for (std::size_t i : singles) {
    auto result =
        ExecuteSingle(input, values, effective(i), workspace.get(), pool,
                      &contexts[i], options_.max_workspace_bytes);
    if (!result.ok()) {
      PROBSYN_RETURN_IF_ERROR(run_floor(i, result.status()));
      continue;
    }
    results[i] = std::move(result).value();
    results[i].solver += degraded[i];
    results[i].timing.plan_seconds = plan_seconds;
  }

  // --- Execute sharded requests. Each build fans its shard solves out on
  // the engine pool and leases per-shard workspaces from the engine's
  // workspace pool (the batch lease above is NOT shared: shard solves run
  // concurrently and each needs its own arena).
  for (std::size_t i : sharded) {
    auto result = ExecSharded(values, effective(i), pool, workspaces_.get(),
                              &contexts[i], options_.max_workspace_bytes);
    if (!result.ok()) {
      PROBSYN_RETURN_IF_ERROR(run_floor(i, result.status()));
      continue;
    }
    results[i] = std::move(result).value();
    results[i].solver += degraded[i];
    results[i].timing.plan_seconds = plan_seconds;
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
