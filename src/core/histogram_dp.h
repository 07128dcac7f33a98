#ifndef PROBSYN_CORE_HISTOGRAM_DP_H_
#define PROBSYN_CORE_HISTOGRAM_DP_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/bucket_oracle.h"
#include "core/histogram.h"
#include "util/status.h"

namespace probsyn {

class ExecContext;
class ThreadPool;
// Declared in core/dp_kernels.h.
class DpWorkspace;
// Defined below, next to SolveHistogramDp.
struct DpKernelOptions;

/// How per-bucket errors aggregate into the histogram error: the paper's
/// h(x, y) — sum for cumulative objectives, max for maximum objectives
/// (equation (2)).
enum class DpCombiner { kSum, kMax };

/// Which inner-loop implementation a histogram DP ran with. The solvers pick
/// it from the oracle's dynamic type alone: every oracle class the library
/// ships has a specialized kernel (core/dp_kernels.cc) that hoists its raw
/// prefix-sum tables into flat spans in place of the virtual Cost/Extend
/// call per DP cell; oracle types defined elsewhere run kGeneric. All kinds
/// share the fast cells — a vectorizable min-reduction (kSum) or a
/// monotone-split bisection (kMax) — and are bit-identical to the textbook
/// scan of equation (2) in costs, traceback choices, and representatives,
/// which the dp_kernel_parity tests pin down.
enum class DpKernelKind {
  kGeneric,        ///< Any other oracle type: virtual StartSweep()/Cost().
  kSseMoment,      ///< SseMomentOracle: flat mean/second/variance spans.
  kSsre,           ///< SsreOracle: flat X/Y/Z spans.
  kAbsCumulative,  ///< AbsCumulativeOracle: inlined U/D ternary search.
  kMaxError,       ///< MaxErrorOracle: devirtualized envelope costs.
  kTupleSse,       ///< SseTupleWorldMeanOracle: concrete FlatSweep.
};

/// Stable display name ("generic", "sse-moment", ...).
const char* DpKernelKindName(DpKernelKind kind);

/// Output of the exact DP: the whole optimal-cost curve over bucket
/// budgets, plus enough trace information to extract the optimal histogram
/// for ANY budget b <= max_buckets (the quality experiments of Figure 2
/// plot entire curves from one DP run).
///
/// Budgets are interpreted as "at most b buckets": OptimalCost(b) is
/// non-increasing in b. (Splitting a bucket never increases either a
/// cumulative or a maximum objective, so this matches "exactly b" whenever
/// b <= n.)
///
/// The DP tables (errors, traceback choices, and cached bucket
/// representatives) live in a DpWorkspace. When the solver was handed an
/// external workspace the result only BORROWS that storage: it must not be
/// read after the workspace is reused for another solve or destroyed.
/// Without an external workspace the result owns its storage and has no
/// lifetime constraints. Representatives are cached during the DP's cost
/// sweeps, so ExtractHistogram never calls back into the oracle.
class HistogramDpResult {
 public:
  /// Outcome of the solve. OK for every unbounded solve; when the solver
  /// ran under an ExecContext (DpKernelOptions::context) and was stopped,
  /// this carries kDeadlineExceeded/kCancelled (or the fan-out's failure)
  /// and the DP tables are PARTIAL — callers must check status() before
  /// reading any cost, row, or histogram.
  const Status& status() const { return status_; }

  /// Optimal expected error with at most `num_buckets` buckets.
  double OptimalCost(std::size_t num_buckets) const;

  /// Extracts an optimal histogram (boundaries + optimal representatives)
  /// for the given budget. O(B) — representatives come from the DP's
  /// cached per-cell BucketCost, not from fresh oracle calls. When
  /// status() is not OK the traceback tables are unusable and this returns
  /// an empty histogram rather than walking them; an empty domain (n = 0)
  /// likewise normalizes to the empty histogram — the unique partition of
  /// nothing, and the one Histogram that Validate(0) accepts.
  Histogram ExtractHistogram(std::size_t num_buckets) const;

  std::size_t max_buckets() const { return max_buckets_; }
  std::size_t domain_size() const { return n_; }
  /// Number of materialized DP layers: min(max_buckets, domain_size).
  std::size_t table_layers() const { return cap_; }
  /// The inner-loop implementation that produced this result.
  DpKernelKind kernel() const { return kernel_; }

  /// Raw DP rows for layer `num_buckets` (1-based, <= table_layers()):
  /// errors err[b-1][j], traceback choices choice[b-1][j], and the cached
  /// representative of the bucket ending at j under that choice (0.0 for
  /// kInheritChoice cells, whose representative is never read). Exposed for
  /// the kernel parity tests and for observability.
  std::span<const double> ErrorRow(std::size_t num_buckets) const;
  std::span<const std::int64_t> ChoiceRow(std::size_t num_buckets) const;
  std::span<const double> RepresentativeRow(std::size_t num_buckets) const;

  // Traceback markers shared with the approximate DP: kInheritChoice means
  // "the (b-1)-bucket solution was already optimal"; kWholePrefix encodes a
  // single bucket [0, j].
  static constexpr std::int64_t kInheritChoice = -2;
  static constexpr std::int64_t kWholePrefix = -1;

 private:
  friend HistogramDpResult SolveHistogramDp(const BucketCostOracle&,
                                            std::size_t, DpCombiner,
                                            const DpKernelOptions&);

  // err_[(b-1) * n_ + j]: optimal cost of covering prefix [0..j] with <= b
  // buckets. choice_: split l (last bucket is [l+1, j]). rep_: cached
  // representative of that last bucket.

  std::size_t n_ = 0;
  std::size_t max_buckets_ = 0;
  std::size_t cap_ = 0;
  Status status_;
  DpKernelKind kernel_ = DpKernelKind::kGeneric;
  const double* err_ = nullptr;
  const std::int64_t* choice_ = nullptr;
  const double* rep_ = nullptr;
  std::shared_ptr<DpWorkspace> owned_;  // null when borrowing a caller's
                                        // workspace
};

/// Knobs of the exact DP. The defaults solve sequentially into storage the
/// result owns, without stopping.
struct DpKernelOptions {
  /// Non-null runs the blocked data-parallel DP (bit-identical output).
  ThreadPool* pool = nullptr;
  /// Non-null reuses the given arena; the result then only borrows its
  /// storage (see HistogramDpResult lifetime note).
  DpWorkspace* workspace = nullptr;
  /// Non-null arms cooperative stopping: the solver polls per column /
  /// layer batch (work units far above the poll cost, so overhead stays
  /// under the engine's 2% budget) and on a hit abandons the fill and
  /// returns a result whose status() is kDeadlineExceeded/kCancelled. The
  /// workspace stays reusable — every buffer is fully overwritten by the
  /// next solve.
  const ExecContext* context = nullptr;
};

/// Solves the optimal-histogram DP (paper equation (2)) for every budget
/// 1..max_buckets in one pass.
///
/// Complexity: O(n) sweeps totalling O(n^2) bucket-cost extensions (done
/// once, independent of B) + O(B n^2) constant-time DP transitions — the
/// paper's O(m + B n^2) for the O(1) oracles (Theorems 1 and 2), with the
/// oracle's per-bucket factor multiplying the n^2 term otherwise. For max
/// combiners the specialized kernels cut the transition term to
/// O(B n log n) by bisecting for the monotone split crossing.
///
/// The principle of optimality holds for probabilistic data because
/// expectation distributes over the per-bucket sum/max (section 3, opening).
///
/// The kernel follows from the oracle's dynamic type alone (see
/// DpKernelKind); every kernel, lane count, and SIMD path is bit-identical
/// in costs, traceback choices, and representatives to the textbook scan of
/// equation (2) — the kernels (core/dp_kernels.cc) only change how fast the
/// table is filled:
///
///  * column fills run devirtualized — each concrete oracle's prefix-sum
///    tables are hoisted into flat spans (SSE/SSRE), its ternary search is
///    inlined over the raw U/D banks (SAE/SARE), or its concrete sweep is
///    driven directly (tuple SSE) — instead of one virtual
///    Cost()/Extend() call per cell; oracle types defined outside the
///    library fill through their virtual StartSweep() (kGeneric);
///  * kSum transitions use a chunked branch-free min-reduction that
///    auto-vectorizes, then resolve the textbook tie-break (first index
///    attaining the minimum, inherit wins ties) inside the winning chunk;
///  * kMax transitions exploit that prefix errors are non-decreasing and
///    bucket costs non-increasing in the split point: the optimal split is
///    bisected at the crossing in O(log j) instead of scanned in O(j),
///    with the same first-attaining-index tie-break.
///
/// With DpKernelOptions::pool set the DP runs in a blocked data-parallel
/// form: columns are processed in blocks, each block's bucket-cost column
/// fills run in one fan-out, then the block's budget layers run either
/// sequentially on the caller (max-combiner fast cells, whose O(log n)
/// bisections are cheaper than any fan-out) or through a staggered
/// diagonal schedule that fuses layer batches into a handful of fork-joins
/// (sum combiners). Every cell is produced by the same per-cell computation
/// on the same inputs as the sequential solver, so the result (costs AND
/// traceback choices) is bit-identical.
HistogramDpResult SolveHistogramDp(const BucketCostOracle& oracle,
                                   std::size_t max_buckets,
                                   DpCombiner combiner,
                                   const DpKernelOptions& options = {});

/// Result of the approximate DP: the histogram and its (exact) cost under
/// the oracle, guaranteed within (1 + epsilon) of the optimum.
struct ApproxHistogramResult {
  Histogram histogram;
  double cost = 0.0;
  /// Bucket-cost oracle evaluations performed (the complexity currency of
  /// the paper's Theorem 5).
  std::size_t oracle_evaluations = 0;
  /// The point-cost implementation the solve ran with: a specialized
  /// kernel evaluates each candidate bucket cost inline over the oracle's
  /// raw prefix tables instead of through the virtual Cost().
  DpKernelKind kernel = DpKernelKind::kGeneric;
  /// cost_curve[b-1]: the approximate DP's layer-(b) value at the full
  /// domain — the (1 + epsilon)-optimal cost of covering [0, n) with at
  /// most b buckets, for b = 1..min(max_buckets, n). Exactly non-increasing
  /// in b (every layer seeds each cell with the previous layer's value), a
  /// property the sharded merge DP's MinBudgetSplit fast paths rely on.
  /// Note: cost_curve.back() is the DP's internal value of the returned
  /// histogram; `cost` re-costs the extracted buckets through the oracle
  /// and may differ in the last ulps.
  std::vector<double> cost_curve;
  /// The traceback rows of budgets 2..cost_curve.size(), flat: entry
  /// (b - 2) * n + j is the split chosen for prefix [0, j] under b buckets.
  /// Empty unless the solve kept them (ApproxDpKernelOptions::keep_choices);
  /// TraceApproxHistogram (core/dp_kernels.h) reads them.
  std::vector<std::int32_t> choices;
};

/// Knobs of the approximate DP. The defaults solve without stopping and
/// keep no traceback rows.
struct ApproxDpKernelOptions {
  /// Non-null arms cooperative stopping (poll per budget layer and every
  /// 256 columns); the solve then fails with kDeadlineExceeded/kCancelled.
  const ExecContext* context = nullptr;
  /// Keep the traceback rows in ApproxHistogramResult::choices (4 bytes
  /// per cell) so TraceApproxHistogram can extract the histogram of any
  /// budget up to the solved one without solving again.
  bool keep_choices = false;
};

/// (1 + epsilon)-approximate histogram construction in the style of Guha,
/// Koudas & Shim [13, 14] (paper section 3.5, Theorem 5): instead of
/// minimizing over every split point l, each DP layer keeps only the
/// rightmost split of each geometric error class of the previous layer
/// (classes are contiguous because prefix error curves are monotone in j).
/// Candidate splits per transition: O((B/eps) log(error range)), so the
/// total work is O((B^2/eps) n log n) oracle calls instead of O(B n^2).
///
/// Cumulative (sum-combiner) metrics only, matching Theorem 5's scope.
///
/// Unlike the exact DP — whose kernels fill whole bucket-cost columns —
/// the approximate DP evaluates a SPARSE set of candidate buckets, so its
/// kernels are devirtualized point-cost evaluators: each candidate's
/// Cost(s, e) arithmetic is inlined over the oracle's raw prefix-sum spans
/// (SSE/SSRE), run through the cold convex search with the probe lambda
/// inlined (SAE/SARE — cold rather than warm-started, because the
/// oracle's own Cost() searches cold and plateau rounding can make a
/// warm-accepted optimum land on a different grid index), or issued as a
/// concrete `final`-class call (MAE/MARE, tuple-SSE) — never a virtual
/// dispatch per candidate. Oracle types defined outside the library are
/// evaluated through their virtual Cost() (kGeneric).
///
/// Every kernel is bit-identical to the generic path in the returned
/// histogram, cost, and oracle_evaluations count (the driver is shared;
/// only the cost evaluation is specialized), pinned by
/// tests/dp_kernel_parity_test.cc.
StatusOr<ApproxHistogramResult> SolveApproxHistogramDp(
    const BucketCostOracle& oracle, std::size_t max_buckets, double epsilon,
    const ApproxDpKernelOptions& options = {});

}  // namespace probsyn

#endif  // PROBSYN_CORE_HISTOGRAM_DP_H_
