#ifndef PROBSYN_CORE_POINT_ERROR_H_
#define PROBSYN_CORE_POINT_ERROR_H_

#include <cstddef>
#include <vector>

#include "core/metrics.h"
#include "model/value_pdf.h"
#include "util/deadline.h"
#include "util/envelope.h"
#include "util/status.h"

namespace probsyn {

class ThreadPool;

/// Precomputed per-item tables for evaluating expected point errors
/// E_W[err(g_i, v)] for arbitrary estimates v in O(1) / O(log |support|).
///
/// This is the machinery behind three parts of the paper:
///  * the MAE/MARE bucket oracle (section 3.6), which needs per-item error
///    curves f_i(bhat) and their linear pieces;
///  * the expected leaf errors OPTW[i, 0, v] of the wavelet DP
///    (section 4.2);
///  * evaluation of arbitrary synopses under every metric (section 5's
///    quality experiments re-cost baseline synopses under the true
///    distribution).
///
/// Layout: the tables hold only what the metrics they answer read.
///  * Squared metrics expand to per-item quadratic forms in v: SSE reads
///    E[g] and E[g^2], SSRE three weighted moments. O(n) space and time.
///  * For the absolute metrics the curve f_i(v) = sum_j w_ij |v_j - v| is
///    convex piecewise-linear with breakpoints at the item's support
///    points; on the segment of the global value grid V that starts at
///    grid point u it equals
///        v * (2 CW_i(u) - TW_i) + (TWV_i - 2 CWV_i(u))
///    where CW/CWV are the item's weight and weight*value sums over its
///    support points <= u. Each item stores those sums once per support
///    point, after a leading zero, in one flat array addressed by per-item
///    offsets; a lookup is a binary search of u (or of the estimate v)
///    over the item's own support. SAE/MAE and SARE/MARE (the 1/max(c, g)
///    weight folded in) each keep their own sums. O(n + sum of support
///    sizes) space and time, against O(n |V|) for grid-indexed tables.
///  * The global value grid itself is built only for the MAE/MARE oracle,
///    which probes it (grid(), SegmentOf, AbsoluteErrorLine).
///
/// Why the answers keep the bits of grid-indexed tables: a grid-indexed
/// accumulator walks V and adds an item's term only at the item's support
/// points, in support order, so its value at any grid point equals the
/// support-indexed sum at the last support point at or below it (or the
/// leading zero). The same sums in the same order give the same doubles,
/// and every answer is then the same expression over them.
class PointErrorTables {
 public:
  /// Builds only what `metric` reads (its point errors, which its
  /// cumulative or maximum twin shares, and for MAE/MARE the value grid)
  /// over `domain_size` items: the input's items, then deterministic
  /// zero-frequency items up to `domain_size` (the power-of-two transform
  /// domain of the wavelet routes). Cost: O(n + sum of support sizes) time
  /// and space. A non-null `pool` fans the per-item fills out across
  /// workers (items are independent); results are identical to the
  /// sequential build. `context` is polled before every block of items; a
  /// stop lands in preprocess_status(). Requires
  /// domain_size >= input.domain_size().
  PointErrorTables(const ValuePdfInput& input, double sanity_c,
                   ErrorMetric metric, std::size_t domain_size,
                   ThreadPool* pool = nullptr,
                   const ExecContext* context = nullptr);

  /// The heap bytes the metric-scoped build above allocates, computed
  /// without building: the moments, offsets, support values and sums, and
  /// any value grid at its size before duplicates are removed. What the
  /// restricted wavelet DP counts against max_workspace_bytes.
  static std::size_t BuildBytes(const ValuePdfInput& input, ErrorMetric metric,
                                std::size_t domain_size);

  /// Number of items the tables answer for.
  std::size_t domain_size() const { return n_; }
  /// The sanity constant c of the relative metrics.
  double sanity_c() const { return c_; }
  /// True when the tables answer `metric`'s point errors
  /// (ExpectedPointError and the per-metric accessors below).
  bool Covers(ErrorMetric metric) const;

  /// Outcome of the build: non-OK when a stop was requested through the
  /// context or the parallel fill failed (an injected thread-pool fault) —
  /// the tables are then incomplete and must not be served. Checked by
  /// MakeBucketOracle and the wavelet DPs.
  const Status& preprocess_status() const { return preprocess_status_; }

  /// The global sorted value grid V (always contains 0). Built for MAE and
  /// MARE, whose oracle probes it; empty otherwise.
  /// SegmentOf and AbsoluteErrorLine need it.
  const std::vector<double>& grid() const { return grid_; }

  /// E_W[err(g_i, v)] for the point error underlying `metric`.
  /// (For kSse this is E[(g_i - v)^2]; for kMae it is E[|g_i - v|]; etc. —
  /// max vs sum aggregation is the caller's concern.)
  double ExpectedPointError(ErrorMetric metric, std::size_t i, double v) const;

  /// E[(g_i - v)^2].
  double SquaredError(std::size_t i, double v) const;
  /// E[(g_i - v)^2 / max(c, g_i)^2].
  double SquaredRelativeError(std::size_t i, double v) const;
  /// E[|g_i - v|].
  double AbsoluteError(std::size_t i, double v) const;
  /// E[|g_i - v| / max(c, g_i)].
  double AbsoluteRelativeError(std::size_t i, double v) const;

  /// Index l of the grid segment containing v: largest l with grid[l] <= v,
  /// or size_t(-1) if v < grid[0]. O(log |V|).
  std::size_t SegmentOf(double v) const;

  /// The linear piece of f_i on segment [grid[l], grid[l+1]] for the
  /// absolute error (relative == true applies the 1/max(c, g) weight).
  /// l == size_t(-1) (left of the grid) and l == |V|-1 (right of it) give
  /// the outer rays. Used by the max-error oracle's envelope step.
  Line AbsoluteErrorLine(std::size_t i, std::size_t l, bool relative) const;

 private:
  // One support point's running sums: weight and weight * value.
  struct PrefixSums {
    double w = 0.0;
    double wv = 0.0;
  };

  // The parts a build fills, one bit each.
  enum Part : unsigned {
    kMoments = 1,          // E[g], E[g^2] (SSE)
    kRelativeMoments = 2,  // the SSRE quadratic form
    kAbsoluteSums = 4,     // SAE, MAE
    kRelativeSums = 8,     // SARE, MARE
    kValueGrid = 16,       // the grid the MAE/MARE oracle probes
  };
  // The parts `metric`'s point errors read.
  static unsigned ErrorPartsOf(ErrorMetric metric);
  // The parts a build for `metric` fills.
  static unsigned BuildPartsOf(ErrorMetric metric);

  PointErrorTables(const ValuePdfInput& input, double sanity_c,
                   unsigned parts, std::size_t domain_size, ThreadPool* pool,
                   const ExecContext* context);
  void FillItems(const ValuePdfInput& input, std::size_t begin,
                 std::size_t end);
  // The linear piece of f_i on the grid segment that starts at or below
  // u, from the sums through the item's support points <= u; the left
  // ray when u < 0, where the grid starts.
  Line LineAt(std::size_t i, double u, bool relative) const;
  double AbsErrorImpl(std::size_t i, double v, bool relative) const;

  std::size_t n_ = 0;
  double c_ = 1.0;
  unsigned parts_ = 0;
  std::vector<double> grid_;
  Status preprocess_status_;

  // Quadratic-form coefficients: E[(g-v)^2] = m2_[i] - 2 v m1_[i] + v^2,
  // and the weighted variant with w2(g) = 1/max(c,g)^2:
  // E[w2(g)(g-v)^2] = x_[i] - 2 v y_[i] + v^2 z_[i].
  std::vector<double> m1_, m2_;
  std::vector<double> x_, y_, z_;

  // Support-indexed sums. Item i's support values are
  // values_[offsets_[i] .. offsets_[i + 1]); its sums are the
  // offsets_[i + 1] - offsets_[i] + 1 entries from offsets_[i] + i on:
  // a leading zero, then the running sums through each support point.
  // abs_ holds Pr[g_i = v_j] and Pr[g_i = v_j] * v_j; rel_ the same with
  // the 1/max(c, v_j) weight folded in.
  std::vector<std::size_t> offsets_;
  std::vector<double> values_;
  std::vector<PrefixSums> abs_, rel_;
};

}  // namespace probsyn

#endif  // PROBSYN_CORE_POINT_ERROR_H_
