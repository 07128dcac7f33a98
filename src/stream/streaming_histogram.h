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
/// Each layer's committed-breakpoint snapshots are hoisted into flat
/// parallel columns, scored through the runtime-dispatched SIMD sweep
/// (core/dp_kernels.h); each winning boundary chain is an O(1)
/// persistent-chain reference (StreamChainStore: hash-consed parent
/// pointers with refcounts). Every result is bit-identical to the textbook
/// scan that copies the full winner chain per improving candidate
/// (reference::StreamingBuilder in tests/reference).
///
/// Usage:
///     StreamingHistogramBuilder builder(B, epsilon);
///     builder.PushBatch(items);  // any split: one call, blocks, one item
///     StatusOr<Result> r = builder.Finish();
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

  /// Appends consecutive items (domain position = arrival order). Any
  /// split of a stream into calls gives the same bits (pinned by seeded
  /// differential sweeps in tests/ingest_test.cc). A block amortizes the
  /// per-item work: prefix snapshots and the reciprocal-of-width table
  /// extend once per block, each layer's committed columns are swept once
  /// for up to 8 items per SIMD register (SimdStreamingBatchSweep), and
  /// chain-store commits replay in one pass per layer. Internally
  /// processes kBatchWidth-item blocks layer-major, with a per-item
  /// visibility timeline reproducing exactly the candidate set each item
  /// would have seen one at a time.
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
  // moments, position, kept in lockstep) that the sweep scans
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

  // One <= kBatchWidth block: layer-major replay of the one-item-at-a-time
  // recurrence (see PushBatch).
  void PushBatchBlock(std::span<const ValuePdf> pdfs);

  std::size_t max_buckets_;
  double delta_;  // per-layer geometric slack
  std::size_t count_ = 0;
  Snapshot running_;
  std::vector<Layer> layers_;
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
  // batches allocate nothing (beyond the shared chain store and the
  // committed columns, which grow with the breakpoints).
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
  // The sweep's scratch column (one double per committed candidate of the
  // layer being scored), for the vector paths' partial-group pushes.
  std::vector<double> candidate_values_;
};

}  // namespace probsyn

#endif  // PROBSYN_STREAM_STREAMING_HISTOGRAM_H_
