#ifndef PROBSYN_CORE_WAVELET_DP_H_
#define PROBSYN_CORE_WAVELET_DP_H_

#include <cstddef>

#include "core/dp_kernels.h"
#include "core/metrics.h"
#include "core/wavelet.h"
#include "model/value_pdf.h"
#include "util/status.h"

namespace probsyn {

class ThreadPool;

/// Output of the restricted coefficient-tree DP.
struct WaveletDpResult {
  WaveletSynopsis synopsis;
  /// Optimal expected error (cumulative: E_W[sum err]; maximum:
  /// max_i E_W[err]) achieved by the synopsis.
  double cost = 0.0;
  /// Memo layout of the solve: the iterative bottom-up solver indexes its
  /// per-state tables directly in a flat arena by (level, node,
  /// ancestor-decision mask) — recorded for observability (the engine puts
  /// it in solver strings as `memo=`).
  const char* memo = "dense-arena";
  /// Parallel lanes the arena fill ran with (calling thread included; 1 =
  /// sequential) — recorded for observability (the engine puts it in
  /// solver strings as `par=`). The fill is bit-identical at every lane
  /// count.
  std::size_t lanes = 1;
  /// Seconds spent building the point-error tables behind the leaf errors
  /// (the route's preprocess; the engine reports it as such).
  double preprocess_seconds = 0.0;
};

/// Optimal *restricted* B-term wavelet synopsis for non-SSE error metrics
/// over probabilistic data (paper section 4.2, Theorem 8).
///
/// "Restricted" (paper section 2.2): retained coefficients take their fixed
/// standard values — here the expected normalized Haar coefficients mu_ci,
/// as required for expected-error minimization. The DP is the classic
/// coefficient-tree recurrence OPTW[j, b, v] where v is the partial
/// reconstruction contributed by kept proper ancestors; v ranges over the
/// subsets of j's O(log n) ancestors, giving O(n^2 B^2)-ish work and O(n^2 B)
/// state — fine for the moderate n this synopsis targets. Expected leaf
/// errors E_W[err(g_i, v)] come from PointErrorTables built for the one
/// metric, in O(1) (squared metrics) or O(log |support of g_i|).
///
/// Supports all six metrics (the paper needs non-SSE; kSse is accepted too
/// and must agree with the greedy builder — a property we test). The domain
/// is zero-padded to a power of two with deterministic zero-frequency items.
///
/// Fails with InvalidArgument on empty input and with OutOfRange when the
/// padded domain exceeds `max_domain` (the O(n^2 B) state table would not
/// fit; callers opting into big inputs can raise the cap).
///
/// The solve is an iterative bottom-up pass over the coefficient tree:
/// states are enumerated leaf-level first in a topological order computed
/// once, and every state's `best` table is a span into one flat arena
/// (WaveletDpArena, core/dp_kernels.h) indexed directly by (level, node,
/// ancestor-decision mask). No hash memo, no per-state vectors, no
/// steady-state allocation: pass `workspace` (e.g. a DpWorkspacePool
/// lease, as the engine does) to reuse the arena across solves — repeat
/// solves then allocate nothing for DP state, which
/// WaveletDpArena::grow_events lets callers assert.
///
/// The child budget-split minimizations run through the kernel layer
/// (MinBudgetSplit, core/dp_kernels.h), whose kSum reductions ride the
/// runtime-dispatched SIMD primitives. Every SIMD path is bit-identical in
/// cost and kept coefficients (tested), and Debug builds check each split
/// against the ascending scan.
///
/// A non-null `pool` fans each level's state sweep out across the workers
/// (util/thread_pool.h): states within a level are independent, chunks
/// write disjoint arena spans, and every state runs the identical scalar
/// computation, so the parallel fill is bit-identical to the sequential
/// one at every thread count and SIMD path (pinned by
/// tests/wavelet_parallel_test.cc). The lane count lands in
/// WaveletDpResult::lanes.
///
/// A non-null `context` is polled cooperatively (once per block of items
/// while the point-error tables are built, then once per tree level plus
/// every 64 states inside a level sweep); a deadline or cancellation stops
/// the solve with kDeadlineExceeded/kCancelled, leaving the arena reusable.
/// When `max_workspace_bytes` is non-zero and the O(n^2 B) arena plus the
/// point-error tables (PointErrorTables::BuildBytes) would exceed it, the
/// solve fails up front with kResourceExhausted before allocating either.
StatusOr<WaveletDpResult> BuildRestrictedWaveletDp(
    const ValuePdfInput& input, std::size_t num_coefficients,
    const SynopsisOptions& options, std::size_t max_domain = 2048,
    DpWorkspace* workspace = nullptr, ThreadPool* pool = nullptr,
    const ExecContext* context = nullptr, std::size_t max_workspace_bytes = 0);

}  // namespace probsyn

#endif  // PROBSYN_CORE_WAVELET_DP_H_
