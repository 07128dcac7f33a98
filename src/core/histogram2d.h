#ifndef PROBSYN_CORE_HISTOGRAM2D_H_
#define PROBSYN_CORE_HISTOGRAM2D_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "model/value_pdf.h"
#include "util/status.h"

namespace probsyn {

/// Two-dimensional probabilistic data: a width x height grid of independent
/// frequency pdfs (the value-pdf model lifted to 2-D) — the
/// multi-dimensional generalization the paper's concluding remarks call
/// for. Cells are addressed (x, y) with x the fast dimension.
class ProbGrid2D {
 public:
  ProbGrid2D() = default;

  /// `cells` is row-major: cells[y * width + x]. Fails when sizes disagree
  /// or any pdf is empty.
  static StatusOr<ProbGrid2D> Create(std::size_t width, std::size_t height,
                                     std::vector<ValuePdf> cells);

  std::size_t width() const { return width_; }
  std::size_t height() const { return height_; }
  std::size_t num_cells() const { return width_ * height_; }
  const ValuePdf& cell(std::size_t x, std::size_t y) const {
    return cells_[y * width_ + x];
  }
  const std::vector<ValuePdf>& cells() const { return cells_; }

  /// Per-cell expected frequencies, row-major.
  std::vector<double> ExpectedFrequencies() const;

 private:
  std::size_t width_ = 0;
  std::size_t height_ = 0;
  std::vector<ValuePdf> cells_;
};

/// An axis-aligned inclusive cell rectangle [x0, x1] x [y0, y1].
struct Rect {
  std::size_t x0 = 0, y0 = 0, x1 = 0, y1 = 0;

  std::size_t width() const { return x1 - x0 + 1; }
  std::size_t height() const { return y1 - y0 + 1; }
  std::size_t area() const { return width() * height(); }

  friend bool operator==(const Rect&, const Rect&) = default;
};

/// One 2-D bucket: a rectangle approximated by a single representative.
struct Bucket2D {
  Rect rect;
  double representative = 0.0;

  friend bool operator==(const Bucket2D&, const Bucket2D&) = default;
};

/// A 2-D histogram synopsis: rectangles tiling the grid exactly.
class Histogram2D {
 public:
  Histogram2D() = default;
  explicit Histogram2D(std::vector<Bucket2D> buckets)
      : buckets_(std::move(buckets)) {}

  const std::vector<Bucket2D>& buckets() const { return buckets_; }
  std::size_t num_buckets() const { return buckets_.size(); }

  /// Checks that the buckets tile a width x height grid exactly.
  Status Validate(std::size_t width, std::size_t height) const;

  /// ghat at cell (x, y). O(B).
  double Estimate(std::size_t x, std::size_t y) const;

  /// Estimate of the expected count inside a query rectangle. O(B).
  double EstimateRangeSum(const Rect& query) const;

  std::string ToString() const;

 private:
  std::vector<Bucket2D> buckets_;
};

/// O(1) expected-error cost of any rectangle bucket, from 2-D prefix sums
/// of per-cell moments — the 2-D analogue of the paper's precomputed-array
/// technique. Supports the quadratic metrics (SSE with fixed
/// representative, SSRE); the absolute/maximum metrics would need 2-D
/// value-indexed banks and are left to future work, like the paper's own
/// 1-D-first treatment.
class RectCostOracle2D {
 public:
  /// metric must be kSse (kFixedRepresentative semantics) or kSsre.
  static StatusOr<RectCostOracle2D> Create(const ProbGrid2D& grid,
                                           const SynopsisOptions& options);

  std::size_t width() const { return width_; }
  std::size_t height() const { return height_; }

  struct Cost2D {
    double representative = 0.0;
    double cost = 0.0;
  };
  /// Optimal representative and expected error for the rectangle. O(1).
  Cost2D Cost(const Rect& rect) const;

 private:
  RectCostOracle2D() = default;

  double RectSum(const std::vector<double>& table, const Rect& rect) const;

  std::size_t width_ = 0;
  std::size_t height_ = 0;
  // (width+1) x (height+1) inclusive 2-D prefix tables of the quadratic
  // form: cost = X - Y^2 / Z with per-cell
  //   SSE:  x = E[g^2],      y = E[g],        z = 1
  //   SSRE: x = E[w2 g^2],   y = E[w2 g],     z = E[w2]
  std::vector<double> x_, y_, z_;
};

/// Output of the 2-D histogram builders.
struct Histogram2DResult {
  /// Rectangles tiling the grid.
  Histogram2D histogram;
  /// Expected error of `histogram` under the builder's metric.
  double cost = 0.0;
};

/// Exact optimal *guillotine* 2-D histogram: the best recursive
/// binary-split partition into at most `num_buckets` rectangles, by DP over
/// (rectangle, budget) states. The classic 2-D counterpart of equation (2);
/// exponential-free but heavy — O(W^2 H^2) rectangles x budget x splits —
/// so intended for small grids (the `max_cells` guard, default 4096 state
/// cells, rejects larger inputs).
///
/// The solver memoizes each rectangle's WHOLE optimal-cost vector over
/// budgets (one map probe per rectangle instead of one per (rectangle,
/// budget)) and minimizes every cut's budget split with the chunked SIMD
/// min-reduction of the kernel layer (SimdMinPlusReverse,
/// core/dp_kernels.h) — the same recipe as the wavelet budget splits. Its
/// costs and tiling (cut, orientation, and budget-split ties) are
/// bit-identical to the per-(rectangle, budget) recursive scan kept in
/// tests/reference, which histogram2d_test.cc compares against.
StatusOr<Histogram2DResult> BuildOptimalGuillotineHistogram2D(
    const ProbGrid2D& grid, const SynopsisOptions& options,
    std::size_t num_buckets, std::size_t max_cells = 4096);

/// Scalable MHIST-style greedy 2-D histogram: repeatedly split the bucket
/// whose best single split yields the largest error reduction. No
/// optimality guarantee (2-D arbitrary-tiling optimization is NP-hard),
/// but near-guillotine quality in practice; O(B (W + H) log B + B W H)
/// after O(WH) preprocessing.
StatusOr<Histogram2DResult> BuildGreedyHistogram2D(
    const ProbGrid2D& grid, const SynopsisOptions& options,
    std::size_t num_buckets);

/// Exact expected error of a 2-D histogram under the oracle's metric.
StatusOr<double> EvaluateHistogram2D(const ProbGrid2D& grid,
                                     const Histogram2D& histogram,
                                     const SynopsisOptions& options);

}  // namespace probsyn

#endif  // PROBSYN_CORE_HISTOGRAM2D_H_
