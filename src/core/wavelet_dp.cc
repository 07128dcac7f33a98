#include "core/wavelet_dp.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "core/haar.h"
#include "core/point_error.h"
#include "util/deadline.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/math.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace probsyn {

namespace {

// Grow-only resize with pool-stats accounting: once a leased arena has
// served a solve of a given shape, later solves of that shape (or smaller)
// perform zero allocations — WaveletDpArena::grow_events stays flat, which
// the zero-allocation tests assert. Every solve rewrites its buffers in
// full, so a growth drops the old contents instead of copying them.
template <typename T>
void GrowTo(std::vector<T>& v, std::size_t size, std::size_t& grow_events) {
  if (size > v.capacity()) {
    ++grow_events;
    v.clear();
  }
  v.resize(size);
}

// The O(n^2 B) state buffers grow without touching their elements (see
// arena_internal::UninitializedBuffer): the level fill writes every entry
// before it is read.
template <typename T>
void GrowTo(arena_internal::UninitializedBuffer<T>& buffer, std::size_t size,
            std::size_t& grow_events) {
  if (buffer.Reserve(size)) ++grow_events;
}

// Iterative bottom-up solver for the restricted coefficient-tree DP.
//
// State space: detail node j (1 <= j < n) at tree level d = floor(log2 j),
// crossed with the 2^(d+1) ancestor-decision masks (bit d = the scaling
// coefficient c0, bit s-1 = the decision of ancestor j >> s). Every mask is
// reachable (both keep branches of every ancestor are explored), so the
// space is dense and a state's tables live at a directly computed arena
// offset:
//
//   level_base[d] + ((j - 2^d) * 2^(d+1) + mask) * stride(d)
//
// with stride(d) = min(B, n/2^d - 1) + 1 entries per state (the budget cap
// of a level-d subtree). Levels are filled deepest-first — a topological
// order of the child dependencies computed once from the tree shape — so
// child `best` spans are complete, stable arena memory by the time a parent
// reads them. This replaces the old recursive solver's hash-map memo, whose
// per-state heap vectors and rehash-unstable references (the historical
// "copy the child vector" workaround) dominated the solve.
//
// The partial-reconstruction value v of a state is a pure function of
// (j, mask): the signed contributions of its kept ancestors, accumulated
// root-downward in the exact order the recursive solver added them — only
// leaf-level states consume v, so it is materialized on the fly there.
class WaveletDpSolver {
 public:
  WaveletDpSolver(const ValuePdfInput& input, std::size_t num_coefficients,
                  const SynopsisOptions& options, WaveletDpArena* arena,
                  ThreadPool* pool, const ExecContext* context,
                  std::size_t max_workspace_bytes)
      : input_(input),
        n_(NextPowerOfTwo(input.domain_size())),
        levels_(n_ > 1 ? FloorLog2(n_) : 0),
        budget_(num_coefficients),
        metric_(options.metric),
        sanity_c_(options.sanity_c),
        cumulative_(IsCumulativeMetric(options.metric)),
        arena_(arena),
        pool_(pool != nullptr && pool->num_threads() > 0 ? pool : nullptr),
        ctx_(context),
        max_workspace_bytes_(max_workspace_bytes),
        mu_(HaarTransform(PadToPowerOfTwo(input.ExpectedFrequencies()))) {
    if (options.HasWorkload()) {
      weights_ = options.workload;
      weights_.resize(n_, 0.0);  // padded items carry zero workload
    }
  }

  std::size_t lanes() const {
    return pool_ == nullptr ? 1 : pool_->num_threads() + 1;
  }

  // Seconds spent building the point-error tables.
  double preprocess_seconds() const { return preprocess_seconds_; }

  StatusOr<WaveletDpResult> Solve() {
    std::vector<WaveletCoefficient> kept;
    double best_cost;
    if (n_ == 1) {
      PROBSYN_RETURN_IF_ERROR(BuildTables());
      // Only the scaling coefficient exists.
      double with = LeafError(0, mu_[0] * LeafContributionScale(0, 1));
      double without = LeafError(0, 0.0);
      if (budget_ >= 1 && with <= without) {
        kept.push_back({0, mu_[0]});
        best_cost = with;
      } else {
        best_cost = without;
      }
      return WaveletDpResult{WaveletSynopsis(n_, n_, std::move(kept)),
                             best_cost};
    }

    PROBSYN_RETURN_IF_ERROR(LayoutArena());
    FillContributions();
    for (std::size_t d = levels_; d-- > 0;) {
      PROBSYN_RETURN_IF_ERROR(FillLevel(d));
    }
    ++arena_->solves;

    // Root choice: keep or drop the scaling coefficient c0.
    const std::size_t root_cap = n_ - 1;  // subtree cap of node 1
    double cost_keep = std::numeric_limits<double>::infinity();
    if (budget_ >= 1) {
      cost_keep = BestTable(0, 1, 1)[std::min(budget_ - 1, root_cap)];
    }
    double cost_drop = BestTable(0, 1, 0)[std::min(budget_, root_cap)];

    bool keep0 = cost_keep < cost_drop;
    best_cost = keep0 ? cost_keep : cost_drop;
    if (keep0) kept.push_back({0, mu_[0]});
    std::size_t b_root = std::min(budget_ - (keep0 ? 1 : 0), root_cap);
    Trace(1, keep0 ? 1 : 0, b_root, kept);

    return WaveletDpResult{WaveletSynopsis(n_, n_, std::move(kept)),
                           best_cost};
  }

 private:
  // Budget cap of one level-d subtree: the number of detail coefficients it
  // contains, n / 2^d - 1, clamped by the global budget.
  std::size_t CapAt(std::size_t d) const {
    return std::min(budget_, (n_ >> d) - 1);
  }

  std::size_t Stride(std::size_t d) const { return CapAt(d) + 1; }

  std::size_t StateSlot(std::size_t d, std::size_t j,
                        std::uint64_t mask) const {
    return ((j - (std::size_t{1} << d)) << (d + 1)) | mask;
  }

  double* BestTable(std::size_t d, std::size_t j, std::uint64_t mask) const {
    return arena_->best.data() + arena_->level_base[d] +
           StateSlot(d, j, mask) * Stride(d);
  }

  WaveletDpDecision* DecisionTable(std::size_t d, std::size_t j,
                                   std::uint64_t mask) const {
    return arena_->decision.data() + arena_->level_base[d] +
           StateSlot(d, j, mask) * Stride(d);
  }

  Status LayoutArena() {
    GrowTo(arena_->level_base, levels_, arena_->grow_events);
    std::size_t total = 0;
    for (std::size_t d = 0; d < levels_; ++d) {
      arena_->level_base[d] = total;
      // 2^d nodes x 2^(d+1) masks per level, Stride(d) entries per state.
      total += (std::size_t{1} << (2 * d + 1)) * Stride(d);
    }
    // Honor the caller's byte budget before allocating anything that
    // grows with the input: the O(n^2 B) arena, by far the larger part
    // unless items carry about n B support points each, plus the
    // point-error tables, O(n + sum of support sizes). An injected
    // allocation failure surfaces at the same point.
    const std::size_t arena_bytes =
        total * (sizeof(double) + sizeof(WaveletDpDecision)) +
        n_ * sizeof(double) + levels_ * sizeof(std::size_t);
    const std::size_t table_bytes =
        PointErrorTables::BuildBytes(input_, metric_, n_);
    if (max_workspace_bytes_ != 0 &&
        arena_bytes + table_bytes > max_workspace_bytes_) {
      return Status::ResourceExhausted(
          "restricted wavelet DP arena (" + std::to_string(arena_bytes) +
          " bytes) and point-error tables (" + std::to_string(table_bytes) +
          " bytes) exceed max_workspace_bytes (" +
          std::to_string(max_workspace_bytes_) + ")");
    }
    PROBSYN_RETURN_IF_ERROR(MaybeInjectFault(FaultSite::kWorkspaceAlloc));
    PROBSYN_RETURN_IF_ERROR(BuildTables());
    GrowTo(arena_->best, total, arena_->grow_events);
    GrowTo(arena_->decision, total, arena_->grow_events);
    return Status::OK();
  }

  // Builds the leaf errors' point-error tables over the padded domain,
  // polling the context per block of items.
  Status BuildTables() {
    Stopwatch watch;
    tables_.emplace(input_, sanity_c_, metric_, n_, /*pool=*/nullptr, ctx_);
    preprocess_seconds_ = watch.ElapsedSeconds();
    return tables_->preprocess_status();
  }

  void FillContributions() {
    GrowTo(arena_->contribution, n_, arena_->grow_events);
    for (std::size_t j = 0; j < n_; ++j) {
      arena_->contribution[j] = mu_[j] * LeafContributionScale(j, n_);
    }
  }

  double LeafError(std::size_t item, double v) const {
    double err = tables_->ExpectedPointError(metric_, item, v);
    return weights_.empty() ? err : weights_[item] * err;
  }

  double Combine(double a, double b) const {
    return cumulative_ ? a + b : std::max(a, b);
  }

  // Partial reconstruction entering state (j, mask): signed contributions
  // of the kept ancestors, applied root-downward — one add/subtract per
  // level, in the identical order (and with the identical operands) the
  // recursive formulation accumulated them, so the value is bit-equal.
  double StateV(std::size_t d, std::size_t j, std::uint64_t mask) const {
    const double* contribution = arena_->contribution.data();
    double v = ((mask >> d) & 1) ? contribution[0] : 0.0;
    for (std::size_t s = d; s >= 1; --s) {
      if ((mask >> (s - 1)) & 1) {
        const double c = contribution[j >> s];
        v = ((j >> (s - 1)) & 1) ? v - c : v + c;
      }
    }
    return v;
  }

  // One level is an embarrassingly parallel sweep: its states read only the
  // completed level below (stable arena memory) and write disjoint spans of
  // their own level, so the range splits into contiguous chunks dispatched
  // across the pool with identical per-state computation — the parallel
  // fill is bit-identical to the sequential one at every thread count.
  Status FillLevel(std::size_t d) {
    if (StopRequested(ctx_)) {
      return ctx_->StopStatus("wavelet-dp", "level", levels_ - 1 - d,
                              levels_);
    }
    const std::size_t states = std::size_t{1} << (2 * d + 1);
    // Below the cutoff the fork-join handshake costs more than the level;
    // the top of the tree (2, 8, 32 states) always runs on the caller.
    constexpr std::size_t kMinParallelStates = 64;
    if (pool_ != nullptr && states >= kMinParallelStates) {
      PROBSYN_RETURN_IF_ERROR(
          pool_->ParallelFor(0, states, [this, d](std::size_t begin,
                                                  std::size_t end) {
            FillStates(d, begin, end);
          }));
    } else {
      FillStates(d, 0, states);
    }
    // A stop inside a chunk leaves partially filled spans; polling again
    // here turns that into a stop status before any partial table is read.
    if (StopRequested(ctx_)) {
      return ctx_->StopStatus("wavelet-dp", "level", levels_ - 1 - d,
                              levels_);
    }
    return Status::OK();
  }

  // Fills the contiguous state range [state_begin, state_end) of level d.
  // The flat state index s enumerates (node, mask) exactly like the arena
  // layout — s == StateSlot(d, j, mask) — so a range's writes are one
  // disjoint arena span.
  void FillStates(std::size_t d, std::size_t state_begin,
                  std::size_t state_end) {
    const bool leaf_children = d == levels_ - 1;  // 2j >= n for the level
    const std::size_t cap = CapAt(d);
    const std::size_t node0 = std::size_t{1} << d;
    const std::size_t masks = std::size_t{1} << (d + 1);
    const std::size_t cap_child = leaf_children ? 0 : CapAt(d + 1);
    const DpCombiner combiner =
        cumulative_ ? DpCombiner::kSum : DpCombiner::kMax;
    const double* contribution = arena_->contribution.data();

    for (std::size_t s = state_begin; s < state_end; ++s) {
      if (((s - state_begin) & 63u) == 0 && StopRequested(ctx_)) return;
      const std::size_t j = node0 + (s >> (d + 1));
      const std::uint64_t mask = s & (masks - 1);
      double* best = BestTable(d, j, mask);
      WaveletDpDecision* decision = DecisionTable(d, j, mask);

      if (leaf_children) {
        const double v = StateV(d, j, mask);
        const std::size_t left_item = 2 * j - n_;
        // keep == 0 initializes every budget; keep == 1 (b >= 1)
        // overwrites where strictly better — the reference tie-break.
        const double err0 =
            Combine(LeafError(left_item, v), LeafError(left_item + 1, v));
        for (std::size_t b = 0; b <= cap; ++b) {
          best[b] = err0;
          decision[b] = {false, 0, 0};
        }
        if (cap >= 1) {
          const double c = contribution[j];
          const double err1 = Combine(LeafError(left_item, v + c),
                                      LeafError(left_item + 1, v - c));
          for (std::size_t b = 1; b <= cap; ++b) {
            if (err1 < best[b]) {
              best[b] = err1;
              decision[b] = {true, 0, 0};
            }
          }
        }
        continue;
      }

      for (std::size_t keep = 0; keep <= 1 && keep <= cap; ++keep) {
        const std::uint64_t child_mask = (mask << 1) | keep;
        const double* left = BestTable(d + 1, 2 * j, child_mask);
        const double* right = BestTable(d + 1, 2 * j + 1, child_mask);
        for (std::size_t b = keep; b <= cap; ++b) {
          const std::size_t rem = b - keep;
          // The split minimization runs through the kernel layer; the
          // keep passes preserve the ascending-scan tie-break (keep == 0
          // assigns unconditionally, keep == 1 wins only strictly).
          BudgetSplit split = MinBudgetSplit(
              combiner, left, std::min(rem, cap_child), right, cap_child, rem);
          if (keep == 0 || split.value < best[b]) {
            const std::size_t br =
                std::min(rem - split.left_budget, cap_child);
            best[b] = split.value;
            decision[b] = {keep == 1,
                           static_cast<std::uint16_t>(split.left_budget),
                           static_cast<std::uint16_t>(br)};
          }
        }
      }
    }
  }

  // Replays the stored decisions, collecting kept coefficients.
  void Trace(std::size_t j, std::uint64_t mask, std::size_t b,
             std::vector<WaveletCoefficient>& out) const {
    const std::size_t d = FloorLog2(j);
    b = std::min(b, CapAt(d));
    const WaveletDpDecision decision = DecisionTable(d, j, mask)[b];
    if (decision.keep) out.push_back({j, mu_[j]});
    if (2 * j >= n_) return;  // children are data leaves
    const std::uint64_t child_mask = (mask << 1) | (decision.keep ? 1 : 0);
    Trace(2 * j, child_mask, decision.left_budget, out);
    Trace(2 * j + 1, child_mask, decision.right_budget, out);
  }

  const ValuePdfInput& input_;
  std::size_t n_;       // padded (power-of-two) domain
  std::size_t levels_;  // log2(n); tree levels 0 .. levels_-1
  std::size_t budget_;
  ErrorMetric metric_;
  double sanity_c_;
  bool cumulative_;
  WaveletDpArena* arena_;
  ThreadPool* pool_;        // null = sequential fill
  const ExecContext* ctx_;  // null = unbounded solve
  std::size_t max_workspace_bytes_;  // 0 = uncapped
  std::optional<PointErrorTables> tables_;  // built once the budget admits it
  double preprocess_seconds_ = 0.0;
  std::vector<double> mu_;
  std::vector<double> weights_;  // empty = uniform
};

}  // namespace

StatusOr<WaveletDpResult> BuildRestrictedWaveletDp(
    const ValuePdfInput& input, std::size_t num_coefficients,
    const SynopsisOptions& options, std::size_t max_domain,
    DpWorkspace* workspace, ThreadPool* pool,
    const ExecContext* context, std::size_t max_workspace_bytes) {
  PROBSYN_RETURN_IF_ERROR(options.Validate());
  PROBSYN_RETURN_IF_ERROR(input.Validate());
  if (input.domain_size() == 0) {
    return Status::InvalidArgument("empty domain");
  }
  if (options.HasWorkload() &&
      options.workload.size() != input.domain_size()) {
    return Status::InvalidArgument("workload size must equal the domain size");
  }
  std::size_t padded_n = NextPowerOfTwo(input.domain_size());
  if (padded_n > max_domain) {
    return Status::OutOfRange(
        "restricted wavelet DP state table would exceed max_domain; "
        "raise max_domain explicitly for large inputs");
  }
  if (padded_n > (std::size_t{1} << 16)) {
    // WaveletDpDecision packs child budgets as uint16; the O(n^2 B) state
    // arena is far past practical memory by this point anyway.
    return Status::OutOfRange(
        "restricted wavelet DP supports padded domains up to 65536");
  }

  WaveletDpArena local_arena;
  WaveletDpArena* arena =
      workspace != nullptr ? &workspace->wavelet_arena() : &local_arena;
  WaveletDpSolver solver(input, num_coefficients, options, arena, pool,
                         context, max_workspace_bytes);
  PROBSYN_ASSIGN_OR_RETURN(WaveletDpResult result, solver.Solve());
  result.lanes = solver.lanes();
  result.preprocess_seconds = solver.preprocess_seconds();
  // Report the synopsis against the caller's (unpadded) domain.
  result.synopsis = WaveletSynopsis(
      input.domain_size(), padded_n,
      std::vector<WaveletCoefficient>(result.synopsis.coefficients()));
  return result;
}

}  // namespace probsyn
