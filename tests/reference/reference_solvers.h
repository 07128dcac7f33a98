#ifndef PROBSYN_TESTS_REFERENCE_REFERENCE_SOLVERS_H_
#define PROBSYN_TESTS_REFERENCE_REFERENCE_SOLVERS_H_

// Parity baselines: the textbook form of each solver whose library version
// is a faster, bit-identical rewrite. Only the tests and the benches link
// this target (probsyn_reference); the library never does.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/bucket_oracle.h"
#include "core/histogram.h"
#include "core/histogram2d.h"
#include "core/histogram_dp.h"
#include "core/metrics.h"
#include "core/wavelet.h"
#include "model/value_pdf.h"
#include "stream/streaming_histogram.h"
#include "util/envelope.h"
#include "util/status.h"

namespace probsyn::reference {

/// The exact DP's tables, laid out like HistogramDpResult's rows.
struct ExactDpTables {
  std::size_t n = 0;
  std::size_t layers = 0;  ///< min(max_buckets, n)
  std::vector<double> err;
  std::vector<std::int64_t> choice;
  std::vector<double> rep;

  std::span<const double> ErrorRow(std::size_t b) const {
    return {err.data() + (b - 1) * n, n};
  }
  std::span<const std::int64_t> ChoiceRow(std::size_t b) const {
    return {choice.data() + (b - 1) * n, n};
  }
  std::span<const double> RepresentativeRow(std::size_t b) const {
    return {rep.data() + (b - 1) * n, n};
  }
};

/// Textbook exact DP of equation (2): one virtual StartSweep() fill per
/// column, then a scalar scan per cell that keeps the FIRST split attaining
/// the minimum, with the inherit transition winning ties. The library's
/// kernels must match these rows bit for bit.
ExactDpTables SolveExactDp(const BucketCostOracle& oracle,
                           std::size_t max_buckets, DpCombiner combiner);

/// Forwards every call to a wrapped oracle. Its type has no specialized
/// kernel, so both histogram DPs run their generic path over it.
class ForwardingOracle final : public BucketCostOracle {
 public:
  explicit ForwardingOracle(const BucketCostOracle& inner) : inner_(inner) {}

  std::size_t domain_size() const override { return inner_.domain_size(); }
  BucketCost Cost(std::size_t s, std::size_t e) const override {
    return inner_.Cost(s, e);
  }
  std::unique_ptr<Sweep> StartSweep(std::size_t e) const override {
    return inner_.StartSweep(e);
  }

 private:
  const BucketCostOracle& inner_;
};

/// The one-pass streaming builder as first written: one compare per
/// candidate, copying the winner's whole boundary chain on every
/// improvement. StreamingHistogramBuilder must match it bit for bit.
class StreamingBuilder {
 public:
  StreamingBuilder(std::size_t max_buckets, double epsilon);

  void Push(const ValuePdf& pdf);
  std::size_t breakpoints() const;
  StatusOr<StreamingHistogramBuilder::Result> Finish() const;

 private:
  struct Snapshot {
    double sum_mean = 0.0;
    double sum_second = 0.0;
    std::size_t position = 0;
  };
  struct Breakpoint {
    Snapshot at;
    double error = 0.0;
    std::vector<Snapshot> boundaries;
  };
  struct Layer {
    std::vector<Breakpoint> committed;
    Breakpoint pending;
    bool has_pending = false;
    double class_base = 0.0;
  };

  static double BucketCost(const Snapshot& from, const Snapshot& to);

  std::size_t max_buckets_;
  double delta_;
  std::size_t count_ = 0;
  Snapshot running_;
  std::vector<Layer> layers_;
  std::size_t peak_breakpoints_ = 0;
};

/// Exact guillotine DP by memoized recursion over (rectangle, budget)
/// states with a scalar budget-split scan: cuts in order (vertical
/// ascending, then horizontal), a split winning only strictly, and the
/// first left budget attaining a cut's minimum.
StatusOr<Histogram2DResult> BuildGuillotineHistogram2D(
    const ProbGrid2D& grid, const SynopsisOptions& options,
    std::size_t num_buckets);

/// Sparse Haar point reconstruction as first written: a root-to-leaf walk
/// over coefficients given as parallel arrays sorted by index, with one
/// binary search and one LeafContributionScale call per level. The
/// library's SparseHaar::Point and SparseHaarPoint must match it bit for
/// bit.
double ReconstructPointSparse(std::span<const std::size_t> indices,
                              std::span<const double> values, std::size_t i,
                              std::size_t n);

/// PointErrorTables as first written: for every item, four dense
/// grid-indexed prefix tables over the whole value grid V (weight and
/// weight*value, plain and with the 1/max(c, g) weight), filled by walking
/// V and the item's support in lockstep, plus the five quadratic-form
/// moments. O(n |V|) time and space. A non-zero `domain_size` first pads
/// the input with deterministic zero-frequency items to that many items
/// (the wavelet routes' transform domain). The library's support-indexed
/// tables must answer bit for bit like these.
class DensePointErrorTables {
 public:
  DensePointErrorTables(const ValuePdfInput& input, double sanity_c,
                        std::size_t domain_size = 0);

  std::size_t domain_size() const { return n_; }
  const std::vector<double>& grid() const { return grid_; }

  double ExpectedPointError(ErrorMetric metric, std::size_t i, double v) const;
  std::size_t SegmentOf(double v) const;
  Line AbsoluteErrorLine(std::size_t i, std::size_t l, bool relative) const;

 private:
  double AbsErrorImpl(std::size_t i, double v, bool relative) const;

  std::size_t n_ = 0;
  double c_ = 1.0;
  std::vector<double> grid_;
  std::size_t grid_size_ = 0;
  std::vector<double> m1_, m2_, x_, y_, z_;
  std::vector<double> cw_abs_, cwv_abs_, cw_rel_, cwv_rel_;  // [i * K + l]
};

/// EvaluateHistogram's per-item loop over the dense tables: Kahan sum of
/// the (weighted) point errors for cumulative metrics, their max otherwise.
double EvaluateHistogramDense(const DensePointErrorTables& tables,
                              const Histogram& h, ErrorMetric metric,
                              std::span<const double> weights = {});

/// EvaluateWavelet as first written: the input copied and padded with zero
/// items to the transform domain, dense tables over the copy, and the
/// reconstruction from one inverse transform; padded items carry zero
/// workload. Expects a valid synopsis over the input's domain.
double EvaluateWaveletDense(const ValuePdfInput& input,
                            const WaveletSynopsis& synopsis,
                            const SynopsisOptions& options);

}  // namespace probsyn::reference

#endif  // PROBSYN_TESTS_REFERENCE_REFERENCE_SOLVERS_H_
