#ifndef PROBSYN_ENGINE_SYNOPSIS_ENGINE_H_
#define PROBSYN_ENGINE_SYNOPSIS_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/dp_kernels.h"
#include "core/histogram.h"
#include "core/metrics.h"
#include "core/wavelet.h"
#include "core/wavelet_unrestricted.h"
#include "model/tuple_pdf.h"
#include "model/value_pdf.h"
#include "serve/synopsis_server.h"
#include "stream/ingest_coordinator.h"
#include "util/deadline.h"
#include "util/status.h"

namespace probsyn {

class ThreadPool;

/// What the engine does when a request's deadline cannot be met (or its
/// workspace byte budget would be exceeded).
enum class RequestFallback {
  /// Fail the request with kDeadlineExceeded / kResourceExhausted.
  kNone,
  /// Fall down the degradation ladder instead of failing: histograms go
  /// exact -> sharded-approx -> equi-depth (sharded-exact replaces
  /// sharded-approx for maximum metrics, whose approximate DP does not
  /// apply), wavelet DP routes fall to the greedy-SSE selection. The
  /// served synopsis is truthfully re-costed and the solver string records
  /// `[degraded=<from>-><to>]`, so a degraded answer is never mistaken for
  /// the requested one.
  kDegrade,
};

/// Which synopsis family a request asks for (the paper's two synopsis
/// types over probabilistic data).
enum class SynopsisKind { kHistogram, kWavelet };

/// Construction route for histogram requests. The first three are the
/// paper's algorithmic contributions (exact DP, (1+eps)-approximate DP,
/// one-pass streaming); the rest are the section-5 comparison baselines,
/// served through the same entry point so callers can sweep methods
/// without touching per-method APIs.
enum class HistogramMethod {
  kOptimal,      ///< Exact DP (equation (2)); any metric.
  kApprox,       ///< (1+eps) DP (Theorem 5); cumulative metrics only.
  kStreaming,    ///< One-pass AHIST-style (section 3.5); SSE fixed-rep only.
  kExpectation,  ///< Optimal synopsis of the expected frequencies.
  kSampledWorld, ///< Optimal synopsis of one sampled world.
  kEquiDepth,    ///< Probabilistic quantiles; boundaries ignore the metric.
};

/// Construction route for wavelet requests.
enum class WaveletMethod {
  kAuto,            ///< Greedy for SSE (Theorem 7), restricted DP otherwise.
  kGreedySse,       ///< B largest expected coefficients (section 4.1).
  kRestrictedDp,    ///< Coefficient-tree DP, standard values (section 4.2).
  kUnrestrictedDp,  ///< Free coefficient values on a quantized grid.
};

/// Domain-sharding controls of the histogram exact/approx routes (the
/// sharded construction backend, core/sharded_dp.h): the domain is split
/// into contiguous shards whose DPs run concurrently on the engine pool,
/// then a cross-shard budget-allocation DP assigns each shard its bucket
/// count and the per-shard tracebacks concatenate.
///
/// Accuracy contract: the sharded cost is never below the unsharded
/// optimum, and (for kOptimal) equals it exactly whenever some optimal
/// histogram has a bucket boundary at every shard boundary and at most
/// `max_shard_budget` buckets per shard; otherwise the gap is
/// input-dependent and the differential sweep in tests/sharded_dp_test.cc
/// pins the measured envelope. For a fixed shard plan the result is
/// bit-identical across thread counts.
struct RequestSharding {
  /// When the engine takes the sharded route.
  enum class Mode {
    kAuto,  ///< Shard kApprox requests with domain >= shard_auto_domain.
    kOff,   ///< Never shard.
    kOn,    ///< Always shard; kOptimal/kApprox histogram requests only.
  };
  Mode mode = Mode::kAuto;
  /// Shard count S; 0 = auto (~n/8192, clamped to [2, 64]).
  std::size_t shards = 0;
  /// Per-shard bucket cap; 0 = auto (see ResolveMaxShardBudget).
  std::size_t max_shard_budget = 0;
};

/// One synopsis-construction request: input model is carried by the
/// Build/BuildBatch overload, everything else lives here. This is the
/// single entry type the paper's four disconnected construction paths
/// (exact DP, approximate DP, streaming, wavelet DPs) are unified behind.
struct SynopsisRequest {
  SynopsisKind kind = SynopsisKind::kHistogram;
  /// Bucket budget (histograms) or coefficient budget (wavelets); >= 1.
  std::size_t budget = 0;
  /// Metric, sanity constant, SSE variant, optional workload weights.
  SynopsisOptions options;

  // --- Histogram routing (ignored for kWavelet). ---
  HistogramMethod method = HistogramMethod::kOptimal;
  /// Approximation slack of kApprox / kStreaming; must be > 0 there.
  double epsilon = 0.1;
  /// Seed of the kSampledWorld baseline.
  std::uint64_t seed = 42;
  /// Domain-sharding policy of the kOptimal/kApprox routes.
  RequestSharding sharding;

  // --- Wavelet routing (ignored for kHistogram). ---
  WaveletMethod wavelet_method = WaveletMethod::kAuto;
  /// Domain cap of the restricted DP's O(n^2 B) state table.
  std::size_t wavelet_max_domain = 2048;
  /// Grid options of the unrestricted DP.
  UnrestrictedWaveletOptions unrestricted;

  // --- Robustness controls (both synopsis kinds). ---
  /// Wall-clock deadline of this request (default: never expires). Solvers
  /// poll it cooperatively at coarse granularity, so an expired deadline
  /// surfaces as kDeadlineExceeded within one poll interval — or, under
  /// RequestFallback::kDegrade, as a cheaper synopsis (see the ladder).
  /// In a batch, phases shared by a group run under the group's earliest
  /// deadline.
  Deadline deadline;
  /// Optional caller-owned cancellation token; must outlive the build.
  /// Firing it (from any thread) stops the request with kCancelled at the
  /// next poll. Cancellation never degrades — the caller asked to stop.
  const CancelToken* cancel = nullptr;
  /// Deadline/resource-overrun policy; see RequestFallback.
  RequestFallback fallback = RequestFallback::kNone;

  /// Static (input-independent) validation: budget, epsilon, and
  /// method/metric combinations that can never execute.
  Status Validate() const;
};

/// Wall-clock breakdown of one served request. In a batch, `preprocess`
/// and, for exact-DP requests, the DP part of `solve` are shared across
/// the group that reused the same oracle — each result reports the full
/// shared time (not a per-request split), so summing across a batch
/// overcounts deliberately-shared work.
struct SynopsisTiming {
  double plan_seconds = 0.0;        ///< Request validation + routing.
  double preprocess_seconds = 0.0;  ///< Oracle / table construction.
  double solve_seconds = 0.0;       ///< DP / stream / selection + extract.

  double total_seconds() const {
    return plan_seconds + preprocess_seconds + solve_seconds;
  }
};

/// Uniform result of every construction path.
struct SynopsisResult {
  SynopsisKind kind = SynopsisKind::kHistogram;
  Histogram histogram;      ///< Set when kind == kHistogram.
  WaveletSynopsis wavelet;  ///< Set when kind == kWavelet.
  /// Achieved objective value. For the optimal/approximate/streaming and
  /// wavelet-DP routes this is the solver's own (exact) cost — bit-equal
  /// to calling the underlying solver directly; for baselines it is the
  /// synopsis re-costed under the true distribution.
  double cost = 0.0;
  /// Bucket-oracle evaluations (kApprox route only; Theorem 5's currency).
  std::size_t oracle_evaluations = 0;
  /// Human-readable route, e.g.
  /// "histogram/exact-dp[kernel=sse-moment,simd=avx2,parallel=4]" — DP
  /// routes record which kernel (core/dp_kernels.h) the solver picked and
  /// the SIMD path it ran; a degraded answer ends in
  /// "[degraded=<from>-><to>]".
  std::string solver;
  SynopsisTiming timing;
};

/// A build result paired with the name it persists and serves under —
/// the unit SynopsisEngine::Store writes and SynopsisServer looks up.
struct NamedSynopsis {
  std::string name;
  SynopsisResult result;
};

/// The unified construction facade: plan/execute split over one request
/// type. Planning validates the request and picks the oracle (via
/// oracle_factory) and solver (exact DP, approximate DP, streaming, or a
/// wavelet route); execution runs the solver on the engine's worker pool,
/// which parallelizes the exact DP's per-budget row sweeps and the
/// oracles' O(n |V|) prefix-table preprocessing.
///
/// BuildBatch serves many requests against ONE input: histogram requests
/// with identical oracle requirements (metric, sanity constant where the
/// metric uses one, SSE variant, workload) share a single preprocessed
/// oracle, and exact-DP requests in such a group share one DP solved to the
/// largest budget — the whole cost-vs-B curve of the paper's Figure 2 then
/// costs one DP run instead of |batch|. Across groups, MAE (or MARE)
/// requests with the same sanity constant share one PointErrorTables
/// build, O(n + sum of support sizes), whatever their workloads, and all
/// exact DPs in a batch run through one leased DpWorkspace, so repeated
/// batches allocate nothing in steady state.
///
/// The engine is the library's one construction entry point: no one-shot
/// histogram builder sits beside it. Every path's output is bit-identical
/// to running its solver directly over the same oracle (HistogramBuilder,
/// SolveApproxHistogramDp, StreamingHistogramBuilder::PushBatch, the
/// wavelet solvers; the engine parity tests pin it down); the engine adds
/// routing, sharing, parallelism, and timing — never a different answer.
/// The single deliberate exception is the sharded route
/// (see RequestSharding): it trades the global optimality guarantee for
/// scale under a documented accuracy contract, which is why kOptimal
/// requests are never auto-sharded — only Mode::kOn opts them in, while
/// kApprox requests (already approximate) auto-shard above
/// Options::shard_auto_domain, where the unsharded solvers stop being
/// feasible at all.
class SynopsisEngine {
 public:
  struct Options {
    /// Total parallel lanes (the calling thread included). 0 = auto
    /// (ThreadPool::DefaultThreadCount(), overridable via the
    /// PROBSYN_THREADS environment variable); 1 = fully sequential.
    std::size_t parallelism = 0;
    /// Domains smaller than this run sequentially even when a pool
    /// exists: fork-join overhead beats the win on tiny inputs.
    std::size_t min_parallel_domain = 256;
    /// kApprox histogram requests with RequestSharding::Mode::kAuto route
    /// to the sharded backend at domains at least this large (the regime
    /// where the unsharded approximate DP's candidate count makes single
    /// solves take minutes). kOptimal never auto-shards.
    std::size_t shard_auto_domain = 1u << 16;
    /// Upper bound on the solver-workspace bytes one request may pin at
    /// once (the restricted wavelet DP's O(n^2 B) arena, the sharded exact
    /// fan-out's per-shard tables). Exceeding it yields kResourceExhausted
    /// up front — or a degraded route under RequestFallback::kDegrade —
    /// instead of an allocation storm. 0 = uncapped.
    std::size_t max_workspace_bytes = 0;
  };

  SynopsisEngine() : SynopsisEngine(Options{}) {}
  explicit SynopsisEngine(Options options);
  ~SynopsisEngine();

  SynopsisEngine(SynopsisEngine&&) noexcept;
  SynopsisEngine& operator=(SynopsisEngine&&) noexcept;

  /// Resolved lane count (>= 1).
  std::size_t parallelism() const;

  /// Lease accounting of the engine's DP-workspace pool. `outstanding`
  /// returns to zero whenever no build is in flight — failed, cancelled,
  /// and deadline-stopped builds included — which the robustness tests
  /// assert (no lease leaks on any unwind path).
  DpWorkspacePool::Stats workspace_pool_stats() const;

  StatusOr<SynopsisResult> Build(const ValuePdfInput& input,
                                 const SynopsisRequest& request) const;
  StatusOr<SynopsisResult> Build(const TuplePdfInput& input,
                                 const SynopsisRequest& request) const;

  /// Serves all requests against one input, sharing oracles and exact DPs
  /// where requests allow (see class comment). All-or-nothing: the first
  /// failing request fails the batch. Results are positionally aligned
  /// with `requests`.
  StatusOr<std::vector<SynopsisResult>> BuildBatch(
      const ValuePdfInput& input,
      std::span<const SynopsisRequest> requests) const;
  StatusOr<std::vector<SynopsisResult>> BuildBatch(
      const TuplePdfInput& input,
      std::span<const SynopsisRequest> requests) const;

  /// Persists build results as one synopsis store file (the serving tier's
  /// on-disk format; see serve/synopsis_store.h): each result is encoded
  /// as a checksummed codec blob under its name. Fails without writing on
  /// an invalid synopsis, a duplicate or empty name, or I/O errors —
  /// build -> Store -> Serve is the engine's end-to-end pipeline.
  Status Store(const std::string& path,
               std::span<const NamedSynopsis> synopses) const;

  /// Opens a store written by Store (or SynopsisStoreWriter) and stands up
  /// the query tier over it. Every blob is decoded and checksum-verified
  /// before the server is returned.
  StatusOr<SynopsisServer> Serve(const std::string& path) const;

  /// Stands up the concurrent ingest tier (stream/ingest_coordinator.h)
  /// over this engine's worker pool and workspace pool: each opened stream
  /// leases its own DpWorkspace (warm chain-store capacity across
  /// coordinator generations), and DrainAll fans out one pool lane per
  /// stream. Validates `options` (kInvalidArgument on a zero budget or
  /// capacity, non-positive epsilon). The engine must outlive the returned
  /// coordinator.
  StatusOr<std::unique_ptr<IngestCoordinator>> OpenIngest(
      const IngestOptions& options) const;

 private:
  template <typename Input>
  StatusOr<std::vector<SynopsisResult>> BuildBatchImpl(
      const Input& input, std::span<const SynopsisRequest> requests) const;

  /// The pool to hand a solver working on `domain_size` items; null when
  /// the engine is sequential or the input is below the parallel cutoff.
  ThreadPool* PoolFor(std::size_t domain_size) const;

  Options options_;
  std::unique_ptr<ThreadPool> pool_;  // null when parallelism() == 1
  /// Leased per BuildBatch call: exact-DP err/choice/rep layers and cost
  /// columns are reused across batches (zero steady-state allocation) while
  /// concurrent callers of the const entry points each get their own arena.
  std::unique_ptr<DpWorkspacePool> workspaces_;
};

/// Stable display name of a synopsis kind ("histogram", "wavelet").
const char* SynopsisKindName(SynopsisKind kind);
/// Stable display name of a histogram route ("optimal", "approx", ...).
const char* HistogramMethodName(HistogramMethod method);
/// Stable display name of a wavelet route ("auto", "greedy", ...).
const char* WaveletMethodName(WaveletMethod method);
/// Inverse of HistogramMethodName; InvalidArgument on unknown names.
StatusOr<HistogramMethod> ParseHistogramMethod(const std::string& name);
/// Inverse of WaveletMethodName; InvalidArgument on unknown names.
StatusOr<WaveletMethod> ParseWaveletMethod(const std::string& name);

}  // namespace probsyn

#endif  // PROBSYN_ENGINE_SYNOPSIS_ENGINE_H_
