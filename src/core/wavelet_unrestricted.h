#ifndef PROBSYN_CORE_WAVELET_UNRESTRICTED_H_
#define PROBSYN_CORE_WAVELET_UNRESTRICTED_H_

#include <cstddef>

#include "core/metrics.h"
#include "core/wavelet.h"
#include "model/value_pdf.h"
#include "util/deadline.h"
#include "util/status.h"

namespace probsyn {

/// Options for the unrestricted (free-coefficient-value) wavelet DP.
struct UnrestrictedWaveletOptions {
  /// Number of grid points per unit... more precisely: the reconstruction
  /// grid has `grid_points` uniformly spaced values spanning
  /// [min V - padding, max V + padding]. Larger grids are slower
  /// (O(n q^2 B^2) work) but can only improve the synopsis.
  std::size_t grid_points = 33;
  /// Extra head-room added on both ends of the value range, as a fraction
  /// of the range (pessimistic coefficient-range estimate, paper
  /// section 4.2's first option).
  double range_padding = 0.125;
  /// Optional deadline/cancellation context, polled once per block of
  /// items while the point-error tables are built, then once per node and
  /// every few grid rows inside a node solve; a stop yields
  /// kDeadlineExceeded/kCancelled. Null = unbounded solve.
  const ExecContext* context = nullptr;
};

/// Output of the unrestricted coefficient-tree DP.
struct UnrestrictedWaveletResult {
  /// The retained coefficients, with freely chosen values.
  WaveletSynopsis synopsis;
  /// Expected error of the synopsis (exact for the returned coefficient
  /// values; optimal over the quantized policy class described below).
  double cost = 0.0;
  /// Seconds spent building the point-error tables behind the leaf errors
  /// (the route's preprocess; the engine reports it as such).
  double preprocess_seconds = 0.0;
};

/// Optimal *unrestricted* B-term wavelet synopsis over a quantized
/// coefficient space — the extension the paper sketches and defers
/// (section 4.2, final paragraph): retained coefficient values are chosen
/// freely to minimize the target expected error, with the value range
/// bounded pessimistically and quantized.
///
/// Formulation: the DP state is (node j, incoming partial reconstruction
/// v, budget b) with v restricted to a uniform grid G over the padded
/// frequency-value range. Keeping node j with coefficient value
/// c = k * step / scale_j moves the children's incoming values to
/// v +- k * step — exactly grid points again, so the DP is *internally
/// exact*: the reported cost equals the true expected error of the
/// returned synopsis, and the synopsis is optimal among all synopses whose
/// leaf reconstructions stay on G. Refining the grid approaches the true
/// unrestricted optimum (the paper's [12] quantization argument).
///
/// Unlike the restricted DP's O(n^2) ancestor-subset state, the grid
/// state is O(n |G| B), so this handles larger domains.
///
/// Supports all six metrics; for kSse note that the unrestricted optimum
/// coincides with Theorem 7's greedy solution as the grid refines.
StatusOr<UnrestrictedWaveletResult> BuildUnrestrictedWaveletDp(
    const ValuePdfInput& input, std::size_t num_coefficients,
    const SynopsisOptions& options,
    const UnrestrictedWaveletOptions& dp_options = {});

}  // namespace probsyn

#endif  // PROBSYN_CORE_WAVELET_UNRESTRICTED_H_
