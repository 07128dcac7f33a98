#ifndef PROBSYN_STREAM_STREAMING_HISTOGRAM_H_
#define PROBSYN_STREAM_STREAMING_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/dp_kernels.h"
#include "core/histogram.h"
#include "core/metrics.h"
#include "model/value_pdf.h"
#include "util/status.h"

namespace probsyn {

/// One-pass (1+epsilon)-approximate histogram construction over a stream
/// of per-item frequency pdfs arriving in domain order — the streaming
/// counterpart of SolveApproxHistogramDp, in the style of Guha, Koudas &
/// Shim's AHIST ([13, 14], which the paper's section 3.5 builds on).
///
/// Unlike the offline builders, this never materializes the input: each
/// layer b keeps only geometric *breakpoints* of its prefix-error curve
/// E_b(t), and each breakpoint stores an O(1) snapshot of the running
/// moment sums, from which the cost of any bucket starting right after the
/// breakpoint is recovered in O(1). Memory is O(B * breakpoints) =
/// O((B^2/eps) log(error range)) — independent of the stream length.
///
/// Supported objective: expected SSE with fixed representatives (the
/// snapshot is three running sums; other quadratic metrics would slot in
/// the same way, absolute metrics would need mergeable quantile sketches
/// and are out of scope, as in the original AHIST work).
///
/// Each Push hoists every layer's committed-breakpoint snapshots into flat
/// parallel columns, materializes the candidate extension costs with the
/// identical arithmetic, minimizes through the runtime-dispatched SIMD
/// min-reduction (core/dp_kernels.h), and records the winning boundary
/// chain as an O(1) persistent-chain reference (StreamChainStore:
/// hash-consed parent pointers with refcounts). Every result is
/// bit-identical to the textbook scan that copies the full winner chain
/// per improving candidate (kept in tests/reference; streaming_test.cc
/// compares).
///
/// Usage:
///     StreamingHistogramBuilder builder(B, epsilon);
///     for (each item pdf in domain order) builder.Push(pdf);
///     StatusOr<StreamingResult> r = builder.Finish();
class StreamingHistogramBuilder {
 public:
  struct Result {
    Histogram histogram;
    /// Expected SSE of `histogram` (exact for the returned buckets).
    double cost = 0.0;
    /// Peak number of breakpoints retained across all layers (the memory
    /// footprint driver).
    std::size_t peak_breakpoints = 0;
  };

  /// `max_buckets` >= 1; epsilon > 0 (the approximation slack). A
  /// non-null `chain_store` (e.g. DpWorkspace::stream_chains(), as the
  /// engine passes) hosts the boundary-chain nodes so repeated streams
  /// reuse its warm capacity; null lets the builder own a private store.
  /// The builder releases every chain reference on destruction, returning
  /// the store's live-node count to what it was at construction.
  StreamingHistogramBuilder(std::size_t max_buckets, double epsilon,
                            StreamChainStore* chain_store = nullptr);
  ~StreamingHistogramBuilder();

  StreamingHistogramBuilder(const StreamingHistogramBuilder&) = delete;
  StreamingHistogramBuilder& operator=(const StreamingHistogramBuilder&) =
      delete;

  /// The boundary-chain store (the builder's own unless one was injected).
  /// Stats expose the O(1)-chain-work and zero-allocation counters the
  /// tests assert on.
  const StreamChainStore* chain_store() const { return chain_store_; }

  /// Appends the next item's frequency pdf (domain position = arrival
  /// order).
  void Push(const ValuePdf& pdf);
  /// Convenience: deterministic item.
  void PushDeterministic(double frequency) {
    Push(ValuePdf::PointMass(frequency));
  }

  /// Appends a block of consecutive items — BIT-IDENTICAL to calling
  /// Push(pdfs[0]), Push(pdfs[1]), ... in order (every committed
  /// breakpoint, error, chain, cost, and peak count; pinned by a seeded
  /// differential sweep in tests/ingest_test.cc), but amortizing the
  /// per-push work across the block: prefix snapshots and the
  /// reciprocal-of-width table extend once per block, each layer's
  /// committed columns are swept once for up to 8 pushes per SIMD register
  /// (SimdStreamingBatchSweep, lane-per-push), and chain-store commits
  /// replay in one pass per layer. Internally processes kBatchWidth-item
  /// blocks layer-major, with a per-push visibility timeline reproducing
  /// exactly the candidate set each sequential push would have seen.
  /// Arbitrary interleaving with single Push calls is allowed.
  void PushBatch(std::span<const ValuePdf> pdfs);

  /// Number of items consumed so far.
  std::size_t items_seen() const { return count_; }

  /// Current number of retained breakpoints across layers.
  std::size_t breakpoints() const;

  /// Completes the pass and extracts the histogram. Fails on an empty
  /// stream (FailedPrecondition) and with InvalidArgument when the cost is
  /// not finite (moments that overflow, or non-finite input). The builder
  /// can keep consuming afterwards (Finish is non-destructive), supporting
  /// periodic synopsis refresh.
  StatusOr<Result> Finish() const;

 private:
  // Running prefix moments at a cut position: sums over the first
  // `position` items.
  struct Snapshot {
    double sum_mean = 0.0;
    double sum_second = 0.0;
    std::size_t position = 0;
  };

  // A retained position of a layer's prefix-error curve: the prefix state,
  // the approximate error there, and the boundary chain (split snapshots)
  // of the solution achieving it — carrying the chain makes traceback
  // self-contained (no dangling parent indices when pendings rotate). The
  // chain is one owned StreamChainStore reference (shared-suffix, O(1) to
  // extend or hand over).
  struct Breakpoint {
    Snapshot at;
    double error = 0.0;
    StreamChainStore::Ref chain = StreamChainStore::kNil;
  };

  // Per-layer state: committed breakpoints are the LAST position of each
  // geometric error class; `pending` tracks the most recent position. The
  // cand_* vectors are hoisted columns of `committed` (error, snapshot
  // moments, position, kept in lockstep) that each Push scans
  // contiguously instead of striding through the breakpoint structs.
  // Positions are carried as doubles (exact below 2^53) so the fused SIMD
  // column kernel can guard and subtract them in vector lanes.
  struct Layer {
    std::vector<Breakpoint> committed;
    std::vector<double> cand_error;
    std::vector<double> cand_sum_mean;
    std::vector<double> cand_sum_second;
    std::vector<double> cand_position;
    // Negated integer positions (kept in lockstep with cand_position): the
    // batched sweep's AVX-512 path indexes its reciprocal table at
    // recips + count + neg_position[i], turning 8 consecutive widths into
    // one contiguous load.
    std::vector<std::int64_t> cand_neg_position;
    Breakpoint pending;
    bool has_pending = false;
    double class_base = 0.0;
  };

  // Expected-SSE cost of the bucket spanning (from.position, to.position]:
  // prefix-moment differences, best fixed representative.
  static double BucketCost(const Snapshot& from, const Snapshot& to);
  static double Representative(const Snapshot& from, const Snapshot& to);

  // Per-layer evaluation of the current position: the approximate prefix
  // error and the owned reference to the boundary chain achieving it.
  struct Eval {
    double error;  // initialized to +infinity by Push
    StreamChainStore::Ref chain = StreamChainStore::kNil;
  };

  // One <= kBatchWidth block of the batched path: layer-major replay of
  // the sequential recurrence (see PushBatch).
  void PushBatchBlock(std::span<const ValuePdf> pdfs);

  // Push's commit/update step: applies the geometric last-position-of-class
  // rule to every layer from this push's evaluations (evals_), keeping the
  // hoisted candidate columns in lockstep with `committed`, and transfers
  // each evaluation's owned chain reference into the pending slot (O(1)).
  void CommitLayers();

  std::size_t max_buckets_;
  double delta_;  // per-layer geometric slack
  std::size_t count_ = 0;
  Snapshot running_;
  std::vector<Layer> layers_;
  // Push scratch, recycled across pushes (capacity-preserving clears keep
  // the steady-state Push allocation-free).
  std::vector<double> candidate_values_;
  std::vector<Eval> evals_;
  std::size_t peak_breakpoints_ = 0;
  // Chain-node backing: the injected store, or the builder's own.
  std::unique_ptr<StreamChainStore> owned_chain_store_;
  StreamChainStore* chain_store_;

  // --- Batched-push (PushBatch) state. --------------------------------
  // Internal block size: 4 full AVX-512 lane groups per layer sweep —
  // measured knee of the amortization curve (larger blocks stopped
  // helping; see docs/benchmarks.md).
  static constexpr std::size_t kBatchWidth = 32;
  // recips_[w] == 1.0 / w for every bucket width seen so far; extended
  // once per block, consumed by the batched sweep's Markstein division.
  std::vector<double> recips_;
  // Per-block scratch, flat [layer * kBatchWidth + push] where it is
  // two-dimensional; capacities stick across blocks so steady-state
  // batches allocate nothing (beyond the shared chain store / committed
  // columns single pushes grow too).
  std::vector<Snapshot> batch_snapshots_;            // running_ after push k
  std::vector<double> batch_errors_;                 // eval errors, B x KB
  std::vector<StreamChainStore::Ref> batch_chains_;  // eval chains, B x KB
  std::vector<std::uint32_t> batch_visible_;  // committed size visible to
                                              // push k, B x (KB + 1)
  // Pre-block pendings, captured (with a chain reference held to block
  // end) before each layer's commit pass overwrites the pending slot: the
  // k = 0 column of the next layer's pending-candidate timeline.
  std::vector<Snapshot> batch_pend0_at_;
  std::vector<double> batch_pend0_error_;
  std::vector<StreamChainStore::Ref> batch_pend0_chain_;
  std::vector<unsigned char> batch_pend0_has_;
};

}  // namespace probsyn

#endif  // PROBSYN_STREAM_STREAMING_HISTOGRAM_H_
