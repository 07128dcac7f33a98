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

class ThreadPool;
// Declared in core/dp_kernels.h.
class DpWorkspace;
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
  friend HistogramDpResult SolveHistogramDpWithKernel(const BucketCostOracle&,
                                                      std::size_t,
                                                      DpCombiner,
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
/// The kernel follows from the oracle's concrete type (see DpKernelKind);
/// results are bit-identical to the textbook scalar scan in every
/// configuration. When `pool` is
/// non-null the DP runs in a blocked data-parallel form: columns are
/// processed in blocks, each block's bucket-cost column fills run in one
/// fan-out, then the block's budget layers run either sequentially on the
/// caller (max-combiner fast cells, whose O(log n) bisections are cheaper
/// than any fan-out) or through a staggered diagonal schedule that fuses
/// layer batches into a handful of fork-joins (sum combiners). Every cell
/// is produced by the same per-cell
/// computation on the same inputs as the sequential solver, so the result
/// (costs AND traceback choices) is bit-identical.
///
/// For zero-allocation workspace reuse or cooperative stopping, use
/// SolveHistogramDpWithKernel (core/dp_kernels.h).
HistogramDpResult SolveHistogramDp(const BucketCostOracle& oracle,
                                   std::size_t max_buckets,
                                   DpCombiner combiner,
                                   ThreadPool* pool = nullptr);

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
  /// Empty unless the solve kept them (ApproxDpKernelOptions::keep_choices
  /// in core/dp_kernels.h); TraceApproxHistogram reads them.
  std::vector<std::int32_t> choices;
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
/// The point-cost kernel follows from the oracle's concrete type and is
/// bit-identical to the generic virtual-dispatch path in histogram, cost,
/// and evaluation count (pinned by the dp_kernel_parity tests). For
/// cooperative stopping use SolveApproxHistogramDpWithKernel
/// (core/dp_kernels.h).
StatusOr<ApproxHistogramResult> SolveApproxHistogramDp(
    const BucketCostOracle& oracle, std::size_t max_buckets, double epsilon);

}  // namespace probsyn

#endif  // PROBSYN_CORE_HISTOGRAM_DP_H_
