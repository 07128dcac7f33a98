#include "core/sharded_dp.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "core/dp_kernels.h"
#include "core/oracle_factory.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace probsyn {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Everything one shard's solve leaves behind for the merge and extraction
// phases. The exact path keeps the leased workspace alive because the
// HistogramDpResult only borrows its storage; the approx path keeps its
// traceback rows, and the oracle bundle (and the sub-input its prefix
// tables span) for re-costing the histogram traced at the assigned budget.
struct ShardSlot {
  Status status;
  ValuePdfInput sub;
  OracleBundle bundle;
  std::optional<DpWorkspacePool::Lease> lease;
  HistogramDpResult dp;          // exact solver only
  ApproxHistogramResult approx;  // approx solver only
  // curve[b]: best shard cost with at most b buckets, b = 0..shard cap;
  // curve[0] = +inf (every shard needs at least one bucket). Exactly
  // non-increasing for b >= 1 — see the merge DP below.
  std::vector<double> curve;
  DpKernelKind kernel = DpKernelKind::kGeneric;  // of the shard solve
  std::size_t evaluations = 0;
  CostedHistogram extracted;
};

}  // namespace

std::vector<ShardRange> PlanShards(std::size_t n, std::size_t shards) {
  std::vector<ShardRange> plan(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    plan[s] = {s * n / shards, (s + 1) * n / shards};
  }
  return plan;
}

std::size_t ResolveShardCount(std::size_t n, std::size_t budget,
                              std::size_t requested) {
  std::size_t s = requested != 0
                      ? requested
                      : std::clamp<std::size_t>(n / 8192, 2, 64);
  return std::clamp<std::size_t>(s, 1, std::min(n, budget));
}

std::size_t ResolveMaxShardBudget(std::size_t budget, std::size_t shards,
                                  std::size_t requested) {
  const std::size_t floor_cap = (budget + shards - 1) / shards;
  const std::size_t ceil_cap = budget - shards + 1;
  const std::size_t cap =
      requested != 0 ? requested : std::max<std::size_t>(8, 4 * floor_cap);
  return std::clamp(cap, floor_cap, ceil_cap);
}

StatusOr<ShardedDpResult> BuildShardedHistogram(
    const ValuePdfInput& input, std::size_t budget,
    const SynopsisOptions& options, const ShardedDpOptions& sharded) {
  const std::size_t n = input.domain_size();
  if (n == 0) return Status::InvalidArgument("empty domain");
  if (budget < 1) {
    return Status::InvalidArgument("synopsis budget must be >= 1");
  }
  PROBSYN_RETURN_IF_ERROR(options.Validate());
  if (sharded.solver == ShardSolver::kApprox) {
    if (!(sharded.epsilon > 0.0)) {
      return Status::InvalidArgument("epsilon must be positive");
    }
    if (!IsCumulativeMetric(options.metric)) {
      return Status::InvalidArgument(
          "approximate shard solves support cumulative metrics only "
          "(Theorem 5)");
    }
  }
  if (options.HasWorkload() && options.workload.size() != n) {
    return Status::InvalidArgument("workload size must match the domain");
  }
  PROBSYN_RETURN_IF_ERROR(input.Validate());

  const std::size_t total_budget = std::min(budget, n);
  const std::size_t num_shards =
      ResolveShardCount(n, total_budget, sharded.shards);
  const std::size_t shard_cap =
      ResolveMaxShardBudget(total_budget, num_shards, sharded.max_shard_budget);
  const std::vector<ShardRange> plan = PlanShards(n, num_shards);
  const DpCombiner combiner = IsCumulativeMetric(options.metric)
                                  ? DpCombiner::kSum
                                  : DpCombiner::kMax;

  const ExecContext* ctx = sharded.context;
  if (StopRequested(ctx)) {
    return ctx->StopStatus("sharded-dp", "shard", 0, num_shards);
  }

  ThreadPool* pool = (sharded.pool != nullptr &&
                      sharded.pool->num_threads() > 0 && num_shards > 1)
                         ? sharded.pool
                         : nullptr;
  const std::size_t lanes =
      pool != nullptr ? std::min(num_shards, pool->num_threads() + 1) : 1;

  // The exact fan-out pins every shard's DP tables at once (the merge and
  // extraction phases read them); refuse up front when that footprint
  // exceeds the caller's byte budget. err/rep are doubles and choice is
  // int64, all cap_s x ns.
  if (sharded.solver == ShardSolver::kExact &&
      sharded.max_workspace_bytes != 0) {
    std::size_t bytes = 0;
    for (const ShardRange& range : plan) {
      const std::size_t ns = range.end - range.begin;
      bytes += std::min(shard_cap, ns) * ns *
               (2 * sizeof(double) + sizeof(std::int64_t));
    }
    if (bytes > sharded.max_workspace_bytes) {
      return Status::ResourceExhausted(
          "sharded exact DP would pin " + std::to_string(bytes) +
          " workspace bytes across " + std::to_string(num_shards) +
          " shards, exceeding max_workspace_bytes (" +
          std::to_string(sharded.max_workspace_bytes) + ")");
    }
  }

  // Declared before the slots so shard leases release back into it before
  // it is destroyed when no external workspace pool was provided.
  DpWorkspacePool local_workspaces;
  DpWorkspacePool* workspaces = sharded.workspaces != nullptr
                                    ? sharded.workspaces
                                    : &local_workspaces;

  // Phase A: independent per-shard solves, one fork-join over the shards.
  // Each slot is written by exactly one task; solvers get no pool (nested
  // ParallelFor calls inside a worker run inline anyway).
  std::vector<ShardSlot> slots(num_shards);
  auto solve_shard = [&](std::size_t s) {
    ShardSlot& slot = slots[s];
    if (StopRequested(ctx)) {
      slot.status = ctx->StopStatus("sharded-dp", "shard", s, num_shards);
      return;
    }
    const ShardRange range = plan[s];
    const std::size_t ns = range.end - range.begin;
    const std::size_t cap_s = std::min(shard_cap, ns);
    slot.sub = ValuePdfInput(std::vector<ValuePdf>(
        input.items().begin() + static_cast<std::ptrdiff_t>(range.begin),
        input.items().begin() + static_cast<std::ptrdiff_t>(range.end)));
    SynopsisOptions shard_options = options;
    if (options.HasWorkload()) {
      shard_options.workload.assign(
          options.workload.begin() + static_cast<std::ptrdiff_t>(range.begin),
          options.workload.begin() + static_cast<std::ptrdiff_t>(range.end));
    }
    // The whole problem was validated above; a slice alone need not pass
    // (its workload slice may be all zero).
    auto bundle = oracle_factory_internal::BuildBucketOracle(
        slot.sub, shard_options, /*pool=*/nullptr, /*tables_cache=*/nullptr);
    if (!bundle.ok()) {
      slot.status = bundle.status();
      return;
    }
    slot.bundle = std::move(bundle).value();
    slot.curve.assign(cap_s + 1, kInf);
    if (sharded.solver == ShardSolver::kExact) {
      slot.status = MaybeInjectFault(FaultSite::kWorkspaceAlloc);
      if (!slot.status.ok()) return;
      slot.lease.emplace(workspaces->Acquire());
      slot.dp = SolveHistogramDp(
          *slot.bundle.oracle, cap_s, combiner,
          {.workspace = slot.lease->get(), .context = ctx});
      if (!slot.dp.status().ok()) {
        slot.status = slot.dp.status();
        return;
      }
      slot.kernel = slot.dp.kernel();
      for (std::size_t b = 1; b <= cap_s; ++b) {
        slot.curve[b] = slot.dp.OptimalCost(b);
      }
    } else {
      auto approx = SolveApproxHistogramDp(
          *slot.bundle.oracle, cap_s, sharded.epsilon,
          {.context = ctx, .keep_choices = true});
      if (!approx.ok()) {
        slot.status = approx.status();
        return;
      }
      slot.approx = std::move(approx).value();
      slot.kernel = slot.approx.kernel;
      slot.evaluations = slot.approx.oracle_evaluations;
      for (std::size_t b = 1; b <= cap_s; ++b) {
        slot.curve[b] = slot.approx.cost_curve[b - 1];
      }
    }
  };
  if (pool != nullptr) {
    PROBSYN_RETURN_IF_ERROR(
        pool->ParallelFor(0, num_shards, [&](std::size_t sb, std::size_t se) {
          for (std::size_t s = sb; s < se; ++s) solve_shard(s);
        }));
  } else {
    for (std::size_t s = 0; s < num_shards; ++s) solve_shard(s);
  }
  for (const ShardSlot& slot : slots) {
    if (!slot.status.ok()) return slot.status;
  }

  // Phase B: cross-shard budget allocation. fold[j] after absorbing shard
  // k = best combined cost of shards 0..k under at most j buckets total
  // (at least one per shard), computed by MinBudgetSplit over the running
  // fold and shard k's curve. Every curve is exactly non-increasing past
  // its +inf prefix — OptimalCost(b) by "at most b" semantics, the approx
  // cost_curve by its inherit seeding — and +/max of non-increasing
  // sequences is non-increasing, so the fold stays monotone and the fast
  // split kernels (min-plus reduction for kSum, bisection for kMax) remain
  // exact at every step. O(S B log B) total for kMax, O(S B^2 / simd)
  // for kSum — noise next to the shard solves.
  const std::size_t B = total_budget;
  std::vector<double> fold(slots[0].curve);
  fold.resize(B + 1, fold.back());
  std::vector<double> next_fold(B + 1, kInf);
  // choice[(k-1) * (B+1) + j]: buckets the fold kept left of shard k on
  // the path to fold value j.
  std::vector<std::uint32_t> choice(
      num_shards > 1 ? (num_shards - 1) * (B + 1) : 0, 0);
  for (std::size_t k = 1; k < num_shards; ++k) {
    if (StopRequested(ctx)) {
      return ctx->StopStatus("sharded-dp", "merge shard", k, num_shards);
    }
    const std::vector<double>& right = slots[k].curve;
    const std::size_t cap_k = right.size() - 1;
    for (std::size_t j = 0; j <= B; ++j) {
      if (j < k + 1) {
        next_fold[j] = kInf;  // k+1 shards need at least k+1 buckets
        continue;
      }
      const BudgetSplit split =
          MinBudgetSplit(combiner, fold.data(), j - 1, right.data(), cap_k, j);
      next_fold[j] = split.value;
      choice[(k - 1) * (B + 1) + j] =
          static_cast<std::uint32_t>(split.left_budget);
    }
    fold.swap(next_fold);
  }
  if (!(fold[B] < kInf)) {
    return Status::Internal("sharded merge DP found no feasible allocation");
  }

  // Traceback: walk the choice rows right to left. Finite fold values
  // imply the left budget covers at least one bucket per remaining shard.
  std::vector<std::size_t> alloc(num_shards);
  {
    std::size_t j = B;
    for (std::size_t k = num_shards; k-- > 1;) {
      const std::size_t bl = choice[(k - 1) * (B + 1) + j];
      alloc[k] = std::min(j - bl, slots[k].curve.size() - 1);
      j = bl;
    }
    alloc[0] = std::min(j, slots[0].curve.size() - 1);
  }

  // Phase C: per-shard extraction at the assigned budgets, read from the
  // Phase-A solves: exact shards from their DP tables, approx shards by
  // tracing their kept rows back from the layer of the assigned budget —
  // the curve entry the allocation used, which the solve to the shard cap
  // already holds within (1 + eps) (its per-layer slack is the cap's, finer
  // than a solve at the smaller budget would use). O(n + B) in all.
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (StopRequested(ctx)) {
      return ctx->StopStatus("sharded-dp", "extract shard", s, num_shards);
    }
    ShardSlot& slot = slots[s];
    if (sharded.solver == ShardSolver::kExact) {
      slot.extracted = {slot.dp.ExtractHistogram(alloc[s]),
                        slot.dp.OptimalCost(alloc[s])};
    } else {
      slot.extracted =
          TraceApproxHistogram(*slot.bundle.oracle, slot.approx, alloc[s]);
    }
  }

  ShardedDpResult result;
  result.shards = num_shards;
  result.lanes = lanes;
  result.max_shard_budget = shard_cap;
  result.kernel = slots[0].kernel;
  result.shard_budgets = alloc;

  std::vector<HistogramBucket> buckets;
  buckets.reserve(B);
  double total = 0.0;
  for (std::size_t s = 0; s < num_shards; ++s) {
    const ShardSlot& slot = slots[s];
    for (const HistogramBucket& b : slot.extracted.histogram.buckets()) {
      buckets.push_back({b.start + plan[s].begin, b.end + plan[s].begin,
                         b.representative});
    }
    const double cost = slot.extracted.cost;
    total = s == 0 ? cost
                   : (combiner == DpCombiner::kSum ? total + cost
                                                   : std::max(total, cost));
    result.oracle_evaluations += slot.evaluations;
  }
  result.histogram = Histogram(std::move(buckets));
  result.cost = total;
  return result;
}

}  // namespace probsyn
