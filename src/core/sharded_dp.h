#ifndef PROBSYN_CORE_SHARDED_DP_H_
#define PROBSYN_CORE_SHARDED_DP_H_

#include <cstddef>
#include <vector>

#include "core/histogram.h"
#include "core/histogram_dp.h"
#include "core/metrics.h"
#include "model/value_pdf.h"
#include "util/deadline.h"
#include "util/status.h"

namespace probsyn {

class ThreadPool;
class DpWorkspacePool;

/// One contiguous domain shard [begin, end) of a sharded construction
/// plan. Shards partition the ordered domain, so concatenating per-shard
/// histograms (bucket indices offset by `begin`) yields a valid histogram
/// of the whole input.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Near-equal contiguous partition of [0, n) into `shards` ranges with
/// boundaries at floor(s * n / shards). Requires 1 <= shards <= n; every
/// shard is non-empty and widths differ by at most one.
std::vector<ShardRange> PlanShards(std::size_t n, std::size_t shards);

/// Resolves the shard count S: `requested` when nonzero, else ~n/8192
/// clamped to [2, 64]; the result is always clamped to [1, min(n, budget)]
/// so every shard can receive at least one bucket.
std::size_t ResolveShardCount(std::size_t n, std::size_t budget,
                              std::size_t requested);

/// Resolves the per-shard bucket cap (the largest budget any single shard
/// may be assigned, and thus the size of each per-shard DP). Requires
/// 1 <= shards <= budget. `requested` when nonzero, else
/// max(8, 4 * ceil(budget / shards)); either way clamped to
/// [ceil(budget / shards), budget - shards + 1] — the lower bound keeps a
/// full allocation feasible, the upper bound is what one shard can get
/// when every other shard takes exactly one bucket.
std::size_t ResolveMaxShardBudget(std::size_t budget, std::size_t shards,
                                  std::size_t requested);

/// Which solver runs inside each shard.
enum class ShardSolver {
  kExact,   ///< Exact DP (paper equation (2)); any metric.
  kApprox,  ///< (1+eps) DP (Theorem 5); cumulative metrics only.
};

/// Knobs of BuildShardedHistogram.
struct ShardedDpOptions {
  /// Shard count; 0 = auto (see ResolveShardCount).
  std::size_t shards = 0;
  /// Per-shard bucket cap; 0 = auto (see ResolveMaxShardBudget).
  std::size_t max_shard_budget = 0;
  /// Per-shard solver.
  ShardSolver solver = ShardSolver::kExact;
  /// Approximation slack of ShardSolver::kApprox; must be > 0 there.
  double epsilon = 0.1;
  /// Runs the per-shard solves concurrently when non-null (one fork-join
  /// over the shards; solvers inside a shard see no pool — nested
  /// ParallelFor calls run inline).
  ThreadPool* pool = nullptr;
  /// Exact per-shard DPs lease their workspaces here when non-null (zero
  /// steady-state allocation across repeated builds); a local pool is used
  /// otherwise.
  DpWorkspacePool* workspaces = nullptr;
  /// Optional deadline/cancellation context: polled at every shard-solve
  /// entry, inside each shard's DP, per merge-fold row, and at every
  /// extraction; a stop returns kDeadlineExceeded/kCancelled with the
  /// shard-level progress, and every leased workspace is released on
  /// unwind. Null = unbounded build.
  const ExecContext* context = nullptr;
  /// Upper bound on the bytes of exact-DP workspace the fan-out may pin at
  /// once (all shard leases are live simultaneously). When non-zero and the
  /// estimate exceeds it the build fails up front with kResourceExhausted
  /// instead of thrashing or OOM-ing. 0 = uncapped.
  std::size_t max_workspace_bytes = 0;
};

/// Output of a sharded construction.
struct ShardedDpResult {
  /// Concatenation of the per-shard optimal histograms under the merge
  /// DP's budget allocation; a valid partition of the full domain with at
  /// most `budget` buckets.
  Histogram histogram;
  /// Cost of `histogram`: the per-shard solver costs combined left to
  /// right (sum or max per the metric), deterministically associated so
  /// repeated builds with one shard plan are bit-identical.
  double cost = 0.0;
  /// Resolved shard count S.
  std::size_t shards = 0;
  /// Parallel lanes the shard solves actually used (1 without a pool).
  std::size_t lanes = 0;
  /// Resolved per-shard bucket cap.
  std::size_t max_shard_budget = 0;
  /// The DP kernel the per-shard solves ran with.
  DpKernelKind kernel = DpKernelKind::kGeneric;
  /// Buckets the merge DP assigned each shard (sums to <= budget).
  std::vector<std::size_t> shard_budgets;
  /// Total bucket-oracle evaluations (kApprox shard solves only).
  std::size_t oracle_evaluations = 0;
};

/// Domain-sharded histogram construction: partitions the domain into S
/// contiguous shards (PlanShards), solves each shard's histogram DP
/// independently — concurrently when a pool is given — up to the per-shard
/// cap, then assigns each shard its bucket count with a cross-shard
/// budget-allocation DP (a left fold over per-shard cost-vs-budget curves
/// through the MinBudgetSplit kernels: chunked min-plus reduction for
/// cumulative metrics, monotone bisection for max metrics) and
/// concatenates the per-shard tracebacks.
///
/// Accuracy contract: per-bucket costs depend only on the items inside the
/// bucket, so the sharded cost is NEVER below the unsharded optimum, and
/// equals it exactly (for ShardSolver::kExact) whenever some optimal
/// B-bucket histogram (a) has a bucket boundary at every shard boundary
/// and (b) places at most max_shard_budget buckets in each shard — the
/// merge DP then recovers that solution's per-shard allocation and each
/// shard solves its sub-problem optimally. Otherwise the gap is
/// input-dependent; tests/sharded_dp_test.cc sweeps seeded inputs and pins
/// the measured error envelope. For ShardSolver::kApprox each shard is
/// solved once, to the cap: every point of its curve is within (1 + eps)
/// of that shard's optimum at that budget. The merge allocates budgets over
/// those curves, and each shard's histogram is traced back at its assigned
/// budget from the same solve, so the cost is the merge fold's value up to
/// rounding (the buckets are re-costed through the oracle): never below
/// the unsharded optimum, and at most (1 + eps) times the kExact cost on
/// the same shard plan, since the fold is at most the sum of the approx
/// curves at the kExact allocation.
///
/// Determinism: for a fixed shard plan (S, cap) and SIMD path the result
/// is bit-identical across thread counts — shard solves are independent,
/// and the merge and concatenation are sequential folds in shard order.
StatusOr<ShardedDpResult> BuildShardedHistogram(const ValuePdfInput& input,
                                                std::size_t budget,
                                                const SynopsisOptions& options,
                                                const ShardedDpOptions& sharded);

}  // namespace probsyn

#endif  // PROBSYN_CORE_SHARDED_DP_H_
