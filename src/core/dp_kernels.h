#ifndef PROBSYN_CORE_DP_KERNELS_H_
#define PROBSYN_CORE_DP_KERNELS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/bucket_oracle.h"
#include "core/histogram_dp.h"
#include "util/deadline.h"
#include "util/logging.h"
#include "util/status.h"

namespace probsyn {

class ThreadPool;

// ---------------------------------------------------------------------------
// Runtime-dispatched SIMD min-reductions. Every chunked kSum/kMax
// min-reduction in the kernel layer (exact-DP cells, wavelet budget
// splits, the approximate DP's candidate minimization, the streaming
// merge and 2-D split scans) funnels through the primitives below, which
// resolve once at runtime to the widest instruction set the CPU offers.

/// Which explicit-SIMD implementation the min-reduction primitives run
/// with. Floating-point min/max are exact in any accumulation order, so
/// every path returns the same value (operator==; a tie between +0.0 and
/// -0.0 may surface either sign) for NaN-free inputs — the bit-parity
/// contract of the DP kernels is SIMD-path independent, pinned by
/// tests/simd_dispatch_test.cc. Resolution order: a test override
/// (ForceSimdPath), then the PROBSYN_SIMD environment variable
/// ("scalar" / "avx2" / "avx512" / "auto"), then CPUID feature detection;
/// requests the CPU or build cannot honor clamp down to the widest
/// supported path.
enum class SimdPath {
  kScalar,  ///< Four-accumulator scalar loops (the auto-vectorized baseline).
  kAvx2,    ///< 256-bit vminpd reductions (4 lanes x 4 accumulators).
  kAvx512,  ///< 512-bit vminpd reductions (8 lanes x 4 accumulators).
};

/// Stable display name ("scalar", "avx2", "avx512") — the engine records it
/// as `simd=` in DP-route solver strings.
const char* SimdPathName(SimdPath path);

/// The path the primitives currently dispatch to (after override, env var,
/// and CPUID clamping).
SimdPath ActiveSimdPath();

/// Test hook: force the dispatch onto `path` (clamped to what the CPU and
/// build support) and return the path actually in effect. Call with the
/// previous value to restore; not thread-safe against concurrent solves.
SimdPath ForceSimdPath(SimdPath path);

/// min over i in [0, n) of a[i] + add; +infinity when n == 0.
double SimdMinPlusConst(const double* a, std::size_t n, double add);

/// min over i in [0, n) of a[i] + b[i]; +infinity when n == 0.
double SimdMinPlusPairs(const double* a, const double* b, std::size_t n);

/// min over i in [0, n) of a[i] + b[-i] (b walks DOWNWARD from its base:
/// the budget-split form left[lo + i] + right[hi - i]); +infinity when
/// n == 0.
double SimdMinPlusReverse(const double* a, const double* b, std::size_t n);

/// min over i in [0, n) of max(a[i], b[i]); +infinity when n == 0.
double SimdMinMaxPairs(const double* a, const double* b, std::size_t n);

/// min over i in [0, n) of a[i]; +infinity when n == 0.
double SimdMinArray(const double* a, std::size_t n);

/// Fused approximate-DP candidate column for the quadratic oracles
/// (SSE/SSRE point-cost kernels): over per-layer GATHERED candidate
/// columns computes, bit-for-bit like the scalar point evaluators,
///
///   sum_c = c_hi - c[i]
///   esos  = (b_hi - b[i])^2  (+ v_hi - v[i] when v != nullptr)
///   cost  = sum_c <= 0 ? 0
///                      : clamp_tiny_negative((a_hi - a[i]) - esos / sum_c,
///                                            1e-6)
///   values[i] = prev[i] + cost
///
/// writes values[0..n), and returns their minimum (+infinity when n == 0).
/// For SSE: a/b/c/v = second/mean/weight/variance prefix rows; for SSRE:
/// a/b/c = X/Y/Z and v = nullptr.
double SimdApproxQuadColumn(const double* prev, const double* a,
                            const double* b, const double* c, const double* v,
                            std::size_t n, double a_hi, double b_hi,
                            double c_hi, double v_hi, double* values);

/// Fused streaming-merge point-cost column (one push of a partial group in
/// SimdStreamingBatchSweep): for each committed breakpoint i computes
///
///   cost_i  = clamp_tiny_negative(second_i - mean_i^2 / width_i, 1e-6)
///   values[i] = position[i] >= count ? +inf : error[i] + cost_i
///
/// with width_i = count - position[i], mean_i = total_mean - sum_mean[i],
/// second_i = total_second - sum_second[i], writes values[0..n), and
/// returns their minimum. Elementwise arithmetic (IEEE divide included) is
/// identical on every SIMD path, so the column and its minimum are
/// bit-identical to the scalar loop. Positions are carried as doubles
/// (exact for any realistic stream length).
double SimdStreamingMergeColumn(const double* error, const double* sum_mean,
                                const double* sum_second,
                                const double* position, std::size_t n,
                                double count, double total_mean,
                                double total_second, double* values);

/// Batched streaming-merge sweep (StreamingHistogramBuilder::PushBatch).
/// For each of `num_pushes` CONSECUTIVE stream
/// positions count0, count0+1, ..., count0+num_pushes-1 (lane j's running
/// totals are total_mean[j] / total_second[j]) it computes, over the same
/// committed-breakpoint columns,
///
///   best[j]       = min_i error[i] + cost(i, j)
///   best_index[j] = FIRST i attaining best[j]   (-1 when n == 0)
///   cost(i, j)    = clamp_tiny_negative(second_ij - mean_ij^2 / width_ij)
///
/// with width_ij = (count0 + j) - position[i]. Preconditions: every
/// position[i] < count0 (the caller's visibility timeline guarantees all
/// candidates strictly precede the batch group, so the >= count guard of
/// the single-push column is dead); neg_position[i] == -position[i]
/// (int64, the vector paths' reciprocal-table index column); and
/// recips[w] == 1.0/w for every width 1 <= w <= count0 + num_pushes - 1.
///
/// Bit-parity contract, pinned by the PushBatch differential tests: every
/// dispatch path returns exactly what num_pushes single-push column scans
/// would. The scalar and AVX2 paths use the reference divide + clamp
/// elementwise; the AVX-512 path runs one push per lane with the division
/// recovered from the reciprocal table by a Markstein fused step (y =
/// RN(1/w) exact, q0 = RN(a*y), q = RN(fma(fma(-w, q0, a), y, q0)) =
/// RN(a/w) — correctly rounded, hence bit-identical) and drops the
/// tiny-negative clamp from the hot loop; a per-lane min-cost detector
/// re-sweeps any lane whose column produced a negative cost through the
/// exact scalar path, so clamp-sensitive columns still match the
/// reference bit-for-bit. The vector paths score the pushes left over
/// after their last full 4- or 8-lane group one at a time, through the
/// merge column (into `scratch`, n doubles) and a first-index scan.
void SimdStreamingBatchSweep(const double* error, const double* sum_mean,
                             const double* sum_second, const double* position,
                             const std::int64_t* neg_position, std::size_t n,
                             const double* total_mean,
                             const double* total_second, std::size_t count0,
                             const double* recips, std::size_t num_pushes,
                             double* best, std::int64_t* best_index,
                             double* scratch);

/// Packed traceback decision of one restricted-wavelet-DP cell: the keep
/// flag for the node's coefficient plus the budgets granted to its two
/// children. uint16 budgets cap the padded domain at 65536, matching the
/// solver's own state-key limits. No member initializers: the arena leaves
/// new entries unwritten, and the level fill writes each before it is read.
struct WaveletDpDecision {
  bool keep;
  std::uint16_t left_budget;
  std::uint16_t right_budget;
};

/// Persistent shared-suffix store of streaming boundary chains
/// (stream/streaming_histogram.cc): each node is one bucket boundary (a
/// prefix-moment snapshot) plus a parent pointer to the chain of the
/// boundaries before it, so extending a winner's chain by one boundary is
/// O(1) and chains sharing a suffix share its nodes physically. Nodes are
/// hash-consed — Extend() returns the existing node when an identical
/// (parent, position) chain is already live — and refcounted: every chain
/// head held by a breakpoint owns one reference, every node owns one on
/// its parent, and Release() returns zero-refcount nodes (and, cascading,
/// their newly unreferenced ancestors) to an internal free list.
///
/// Storage is arena-pooled like WaveletDpArena: the node pool, hash
/// table, and free list grow geometrically but never shrink, so a store
/// leased across streams (via DpWorkspace::stream_chains()) performs zero
/// steady-state allocations — `Stats::grow_events` counts capacity
/// growths and `Stats::live` must return to zero once every holder has
/// released (the leak tests in tests/streaming_test.cc assert both).
///
/// The store is NOT thread-safe; like the rest of a DpWorkspace it serves
/// one solve/stream at a time.
class StreamChainStore {
 public:
  /// Handle of a chain head inside the store; kNil is the empty chain.
  using Ref = std::uint32_t;

  /// Sentinel: the empty chain / no parent.
  static constexpr Ref kNil = 0xFFFFFFFFu;

  /// Observability counters (monotone except `live`).
  struct Stats {
    std::size_t created = 0;      ///< Nodes physically taken from the pool.
    std::size_t consed = 0;       ///< Extend() calls served by an existing node.
    std::size_t freed = 0;        ///< Nodes returned to the free list.
    std::size_t grow_events = 0;  ///< Capacity growths (node pool or table).
    std::size_t live = 0;         ///< Currently allocated nodes.
  };

  /// The chain `parent` extended by one boundary snapshot. Returns an
  /// owned reference: the existing node when (parent, position) is already
  /// live (their moment sums are then necessarily equal — snapshots of one
  /// stream at one position are unique), else a fresh node referencing
  /// `parent`.
  Ref Extend(Ref parent, double sum_mean, double sum_second,
             std::size_t position);

  /// Takes one additional owned reference on `node` (O(1) chain sharing).
  void AddRef(Ref node);

  /// Drops one owned reference; frees the node and cascades up the parent
  /// chain while refcounts hit zero. Release(kNil) is a no-op.
  void Release(Ref node);

  /// Payload accessors of a live node (extraction walks parents once).
  double sum_mean(Ref node) const { return nodes_[node].sum_mean; }
  /// Running second-moment sum at the boundary.
  double sum_second(Ref node) const { return nodes_[node].sum_second; }
  /// Stream position of the boundary (items before the cut).
  std::size_t position(Ref node) const { return nodes_[node].position; }
  /// The chain of the boundaries before this one (kNil at the root).
  Ref parent(Ref node) const { return nodes_[node].parent; }

  /// Counter snapshot (see Stats).
  const Stats& stats() const { return stats_; }

 private:
  struct Node {
    double sum_mean = 0.0;
    double sum_second = 0.0;
    std::size_t position = 0;
    Ref parent = kNil;
    Ref hash_next = kNil;
    std::uint32_t refcount = 0;  // 0 = free slot
  };

  std::size_t BucketOf(Ref parent, std::size_t position) const;
  void Rehash();

  std::vector<Node> nodes_;
  std::vector<Ref> buckets_;  // power-of-two; kNil-terminated chains
  std::vector<Ref> free_;
  Stats stats_;
};

namespace arena_internal {

// Grow-only storage that leaves new elements unwritten. Growing allocates
// once and touches nothing: std::vector::resize would zero-fill the new
// elements, or for default-initialized ones still run one (no-op)
// construct call per element, a pass that costs real time in unoptimized
// builds on the O(n^2 B) wavelet arena. Contents do not survive a growth.
template <typename T>
class UninitializedBuffer {
 public:
  T* data() const { return data_.get(); }

  // Makes room for `size` elements; true when that took an allocation.
  bool Reserve(std::size_t size) {
    if (size <= capacity_) return false;
    data_.reset();  // free first: the old contents are dropped anyway
    capacity_ = 0;  // stays consistent if the allocation throws
    data_ = std::make_unique_for_overwrite<T[]>(size);
    capacity_ = size;
    return true;
  }

 private:
  std::unique_ptr<T[]> data_;
  std::size_t capacity_ = 0;
};

}  // namespace arena_internal

/// Flat arena of the restricted wavelet DP (core/wavelet_dp.cc): per-state
/// `best` tables and traceback decisions stored contiguously, indexed
/// directly by (level, node, ancestor-decision mask) — no hash memo, no
/// per-state vectors, no rehash-unstable references. Buffers grow but
/// never shrink, so repeated solves through one arena allocate nothing in
/// steady state; `grow_events` counts capacity growths (a pool-stats hook
/// the zero-allocation tests assert on). `best` and `decision` grow
/// without any per-element pass: their pages are first touched by the
/// polled, parallel level fill, so a cancel is seen while they fault in.
struct WaveletDpArena {
  /// Concatenated best tables.
  arena_internal::UninitializedBuffer<double> best;
  /// Parallel to `best`.
  arena_internal::UninitializedBuffer<WaveletDpDecision> decision;
  std::vector<std::size_t> level_base;       ///< Arena offset per tree level.
  std::vector<double> contribution;          ///< mu[j] * leaf scale, per node.
  std::size_t grow_events = 0;  ///< Buffer growths since construction.
  std::size_t solves = 0;       ///< Solves served (observability only).
};

/// Reusable storage arena for the exact-DP solver: the err/choice/rep
/// layers plus the bucket-cost column buffers of the sequential and blocked
/// parallel paths. Repeated solves through the same workspace reach zero
/// steady-state allocation — buffers grow but never shrink — and every
/// element is written before it is read within a solve, so they grow
/// without any per-element pass (arena_internal::UninitializedBuffer): a
/// fresh workspace's pages are first touched by the polled fill, so a
/// cancel is seen while they fault in.
///
/// The workspace also hosts the restricted wavelet DP's flat arena
/// (wavelet_arena()) and the streaming builder's boundary-chain store
/// (stream_chains()), so an engine batch leases ONE workspace and serves
/// exact-DP, wavelet, and streaming requests from the same recycled
/// storage.
///
/// A workspace serves ONE solve at a time; results borrow its storage (see
/// HistogramDpResult), so reuse only after the previous result is consumed.
/// The solver's internal parallelism is fine — a workspace is not tied to a
/// thread — but two concurrent solves need two workspaces (DpWorkspacePool).
class DpWorkspace {
 public:
  DpWorkspace() = default;

  DpWorkspace(const DpWorkspace&) = delete;
  DpWorkspace& operator=(const DpWorkspace&) = delete;

  /// The restricted wavelet DP's reusable flat arena (see WaveletDpArena);
  /// serves one solve at a time, like the histogram buffers.
  WaveletDpArena& wavelet_arena() { return wavelet_arena_; }

  /// The streaming builder's reusable boundary-chain store (see
  /// StreamChainStore); serves one stream at a time.
  StreamChainStore& stream_chains() { return stream_chains_; }

 private:
  friend HistogramDpResult SolveHistogramDp(const BucketCostOracle&,
                                            std::size_t, DpCombiner,
                                            const DpKernelOptions&);

  template <typename T>
  using Buffer = arena_internal::UninitializedBuffer<T>;

  Buffer<double> err_;            // cap x n, row-major
  Buffer<std::int64_t> choice_;   // cap x n
  Buffer<double> rep_;            // cap x n
  Buffer<double> cost_cols_;      // n (sequential) or block x n
  Buffer<double> rep_cols_;       // same shape as cost_cols_
  // Chunk-minimum bound tables of the fast kMax cell (see dp_kernels.cc):
  // per-layer minima of the err rows and per-column minima of the cost
  // columns, at 512-split granularity.
  Buffer<double> layer_cmin_;     // cap x ceil(n/512)
  Buffer<double> cost_cmin_;      // ceil(n/512) or block x ceil(n/512)

  WaveletDpArena wavelet_arena_;
  StreamChainStore stream_chains_;
};

/// Mutex-guarded free list of DpWorkspaces for engines whose const entry
/// points may run on many user threads at once: each solve leases a
/// workspace (creating one only when the list is empty) and returns it on
/// destruction of the lease, so steady-state batches allocate nothing.
class DpWorkspacePool {
 public:
  /// Lease accounting, exposed so robustness tests can assert that failed
  /// solves leak no lease: `outstanding` must return to zero once every
  /// in-flight build — successful or not — has unwound.
  struct Stats {
    std::size_t created = 0;      ///< Workspaces ever constructed.
    std::size_t outstanding = 0;  ///< Leases currently held.
  };

  class Lease {
   public:
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), workspace_(std::move(other.workspace_)) {}
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        Release();  // return the current workspace, don't destroy it
        pool_ = other.pool_;
        workspace_ = std::move(other.workspace_);
      }
      return *this;
    }
    ~Lease() { Release(); }

    DpWorkspace* get() const { return workspace_.get(); }

   private:
    friend class DpWorkspacePool;
    Lease(DpWorkspacePool* pool, std::unique_ptr<DpWorkspace> workspace)
        : pool_(pool), workspace_(std::move(workspace)) {}

    void Release();

    DpWorkspacePool* pool_;
    std::unique_ptr<DpWorkspace> workspace_;
  };

  Lease Acquire();

  /// Counter snapshot (see Stats).
  Stats stats() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<DpWorkspace>> free_;
  Stats stats_;
};

/// A histogram and its exact cost under the oracle it was built on.
struct CostedHistogram {
  Histogram histogram;
  double cost = 0.0;
};

/// The histogram of an approximate solve at `budget` buckets
/// (1 <= budget <= solved.cost_curve.size()): traced back through the kept
/// rows of `solved` (a solve with keep_choices) from the layer whose value
/// is cost_curve[budget - 1], then re-costed bucket by bucket through
/// `oracle`, the oracle the solve ran on. Every layer of a solve to a
/// larger budget carries the (1 + epsilon) guarantee at its own budget,
/// since the per-layer slack shrinks as the solved budget grows. At the
/// solved budget this is the solve's own histogram and cost. O(n + budget)
/// plus `budget` oracle calls.
CostedHistogram TraceApproxHistogram(const BucketCostOracle& oracle,
                                     const ApproxHistogramResult& solved,
                                     std::size_t budget);

/// One budget-split minimization: over bl = 0..bl_max, with
/// br = min(rem - bl, cap_right), minimize Combine(left[bl], right[br])
/// where Combine is + (kSum) or max (kMax). Returns the minimum value and
/// the FIRST bl attaining it — the wavelet DPs' ascending-scan tie-break.
/// Both coefficient-tree DPs (core/wavelet_dp.cc,
/// core/wavelet_unrestricted.cc) and the sharded merge DP spend their time
/// in these minimizations.
struct BudgetSplit {
  double value = 0.0;
  std::size_t left_budget = 0;
};

// Implementation detail of MinBudgetSplit below; defined inline (like the
// templated search in util/search.h) so the wavelet solvers' hot loops
// inline the split machinery instead of paying a cross-TU call per split.
namespace budget_split_internal {

inline BudgetSplit Reference(DpCombiner combiner, const double* left,
                             std::size_t bl_max, const double* right,
                             std::size_t cap_right, std::size_t rem) {
  double best = std::numeric_limits<double>::infinity();
  std::size_t best_bl = 0;
  for (std::size_t bl = 0; bl <= bl_max; ++bl) {
    const std::size_t br = std::min(rem - bl, cap_right);
    const double v = combiner == DpCombiner::kSum
                         ? left[bl] + right[br]
                         : std::max(left[bl], right[br]);
    if (v < best) {
      best = v;
      best_bl = bl;
    }
  }
  return {best, best_bl};
}

// kSum: two constant-stride segments (br pinned at cap_right, then
// br = rem - bl), each reduced through the runtime-dispatched SIMD
// min-reduction primitives (exact in any order), then the first split
// attaining the minimum located in whichever segment owns it — the
// reference ascending-scan tie-break.
inline BudgetSplit SumFast(const double* left, std::size_t bl_max,
                           const double* right, std::size_t cap_right,
                           std::size_t rem) {
  // Segment 1: bl in [0, seg1_end) has rem - bl >= cap_right.
  const std::size_t seg1_end =
      rem >= cap_right ? std::min(bl_max + 1, rem - cap_right + 1) : 0;
  const double rc = right[cap_right];

  const double m1 = SimdMinPlusConst(left, seg1_end, rc);
  // Guard the pointer arithmetic: when segment 2 is empty, rem - seg1_end
  // may underflow (seg1_end can reach rem + 1).
  const std::size_t seg2_count = bl_max + 1 - seg1_end;
  const double m2 =
      seg2_count == 0
          ? std::numeric_limits<double>::infinity()
          : SimdMinPlusReverse(left + seg1_end, right + (rem - seg1_end),
                               seg2_count);

  // First-attaining split: segment 1's indices precede segment 2's, so a
  // tie between the segment minima resolves into segment 1. A segment's
  // exact minimum is always attained inside it, so one scan returns.
  if (m1 <= m2) {
    for (std::size_t bl = 0; bl < seg1_end; ++bl) {
      if (left[bl] + rc == m1) return {m1, bl};
    }
  }
  for (std::size_t bl = seg1_end; bl <= bl_max; ++bl) {
    if (left[bl] + right[rem - bl] == m2) return {m2, bl};
  }
  return {m2, bl_max};  // unreachable: the minimum is attained above
}

// kMax: v(bl) = max(F, R) with F(bl) = left[bl] exactly non-increasing and
// R(bl) = right[min(rem - bl, cap_right)] exactly non-decreasing, so v
// falls until the first crossing (first bl with R > F) and rises after it.
// Everything reduces to two exact binary searches on monotone predicates:
// locate the crossing c, then the first split attaining
// min(F(c - 1), R(c)).
inline BudgetSplit MaxFast(const double* left, std::size_t bl_max,
                           const double* right, std::size_t cap_right,
                           std::size_t rem) {
  auto value_at = [&](std::size_t bl) {
    return std::max(left[bl], right[std::min(rem - bl, cap_right)]);
  };
  // c = first bl in [0, bl_max] with R(bl) > F(bl); bl_max + 1 if none.
  std::size_t lo = 0;
  std::size_t hi = bl_max + 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (right[std::min(rem - mid, cap_right)] > left[mid]) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const std::size_t c = lo;
  if (c == 0) {
    // v is non-decreasing on the whole range: bl = 0 is first-attaining.
    return {value_at(0), 0};
  }

  // On [0, c) R <= F, so v = F there and the prefix minimum is F(c - 1).
  const double prefix_min = left[c - 1];
  const double suffix_min =
      c <= bl_max ? right[std::min(rem - c, cap_right)]
                  : std::numeric_limits<double>::infinity();
  if (prefix_min <= suffix_min) {
    // First bl with F(bl) <= prefix_min (F non-increasing => monotone
    // predicate); F(bl) >= F(c - 1) on the prefix makes it the first
    // attaining split overall.
    std::size_t flo = 0;
    std::size_t fhi = c - 1;
    while (flo < fhi) {
      const std::size_t mid = flo + (fhi - flo) / 2;
      if (left[mid] <= prefix_min) {
        fhi = mid;
      } else {
        flo = mid + 1;
      }
    }
    return {value_at(flo), flo};
  }
  // The prefix values all exceed R(c), and v = R is non-decreasing from c.
  return {value_at(c), c};
}

}  // namespace budget_split_internal

/// Candidate-count cutoff of MinBudgetSplit: below it the scalar scan wins
/// on sheer simplicity (one predictable pass beats reduction or bisection
/// set-up), so the asymptotic machinery engages only where it pays.
inline constexpr std::size_t kSmallBudgetSplit = 32;

/// Runs one budget-split minimization. Requires bl_max <= rem. At
/// kSmallBudgetSplit candidates and above it runs a chunked SIMD
/// min-reduction (kSum) or an exact bisection (kMax); both rely on `left`
/// and `right` being non-increasing in the budget index — true by
/// construction for the wavelet DPs' optimal-error tables, exactly (not
/// just mathematically): granting a child one more coefficient
/// re-minimizes over a pointwise-<= candidate set, and FP min/max/+ are
/// monotone, so the computed tables inherit monotonicity bit-for-bit. That
/// makes the kMax bisection exact (no verification sweep needed, unlike
/// the histogram kMax cell whose cost columns can be non-monotone by
/// rounding). Debug builds check every fast result — value and first
/// attaining split — against the ascending scan.
inline BudgetSplit MinBudgetSplit(DpCombiner combiner, const double* left,
                                  std::size_t bl_max, const double* right,
                                  std::size_t cap_right, std::size_t rem) {
  namespace bsi = budget_split_internal;
  if (bl_max < kSmallBudgetSplit) {
    return bsi::Reference(combiner, left, bl_max, right, cap_right, rem);
  }
  const BudgetSplit fast =
      combiner == DpCombiner::kSum
          ? bsi::SumFast(left, bl_max, right, cap_right, rem)
          : bsi::MaxFast(left, bl_max, right, cap_right, rem);
#ifndef NDEBUG
  const BudgetSplit scan =
      bsi::Reference(combiner, left, bl_max, right, cap_right, rem);
  PROBSYN_CHECK(fast.value == scan.value &&
                fast.left_budget == scan.left_budget);
#endif
  return fast;
}

}  // namespace probsyn

#endif  // PROBSYN_CORE_DP_KERNELS_H_
