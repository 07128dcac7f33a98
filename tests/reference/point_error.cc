#include <algorithm>

#include "core/haar.h"
#include "reference/reference_solvers.h"
#include "util/logging.h"
#include "util/math.h"

namespace probsyn::reference {

namespace {

ValuePdfInput PaddedWithZeros(const ValuePdfInput& input, std::size_t size) {
  std::vector<ValuePdf> items = input.items();
  if (items.size() < size) items.resize(size, ValuePdf::PointMass(0.0));
  return ValuePdfInput(std::move(items));
}

}  // namespace

DensePointErrorTables::DensePointErrorTables(const ValuePdfInput& unpadded,
                                             double sanity_c,
                                             std::size_t domain_size)
    : c_(sanity_c) {
  const ValuePdfInput input = PaddedWithZeros(unpadded, domain_size);
  n_ = input.domain_size();
  grid_ = input.ValueGrid();
  grid_size_ = grid_.size();
  m1_.resize(n_);
  m2_.resize(n_);
  x_.resize(n_);
  y_.resize(n_);
  z_.resize(n_);
  cw_abs_.assign(n_ * grid_size_, 0.0);
  cwv_abs_.assign(n_ * grid_size_, 0.0);
  cw_rel_.assign(n_ * grid_size_, 0.0);
  cwv_rel_.assign(n_ * grid_size_, 0.0);

  for (std::size_t i = 0; i < n_; ++i) {
    const ValuePdf& pdf = input.item(i);
    m1_[i] = pdf.Mean();
    m2_[i] = pdf.SecondMoment();
    KahanSum x, y, z;
    for (const ValueProb& e : pdf.entries()) {
      double w2 = SquaredRelativeWeight(e.value, c_);
      x.Add(e.probability * w2 * e.value * e.value);
      y.Add(e.probability * w2 * e.value);
      z.Add(e.probability * w2);
    }
    x_[i] = x.value();
    y_[i] = y.value();
    z_[i] = z.value();

    // The item's support is a subset of the grid; walk both in lockstep.
    double* cw_abs = &cw_abs_[i * grid_size_];
    double* cwv_abs = &cwv_abs_[i * grid_size_];
    double* cw_rel = &cw_rel_[i * grid_size_];
    double* cwv_rel = &cwv_rel_[i * grid_size_];
    std::size_t entry = 0;
    double acc_w = 0.0, acc_wv = 0.0, acc_rw = 0.0, acc_rwv = 0.0;
    for (std::size_t l = 0; l < grid_size_; ++l) {
      if (entry < pdf.size() && pdf.entries()[entry].value == grid_[l]) {
        const ValueProb& e = pdf.entries()[entry];
        double rw = RelativeWeight(e.value, c_);
        acc_w += e.probability;
        acc_wv += e.probability * e.value;
        acc_rw += e.probability * rw;
        acc_rwv += e.probability * rw * e.value;
        ++entry;
      }
      cw_abs[l] = acc_w;
      cwv_abs[l] = acc_wv;
      cw_rel[l] = acc_rw;
      cwv_rel[l] = acc_rwv;
    }
    PROBSYN_CHECK(entry == pdf.size());
  }
}

std::size_t DensePointErrorTables::SegmentOf(double v) const {
  auto it = std::upper_bound(grid_.begin(), grid_.end(), v);
  if (it == grid_.begin()) return static_cast<std::size_t>(-1);
  return static_cast<std::size_t>(it - grid_.begin()) - 1;
}

Line DensePointErrorTables::AbsoluteErrorLine(std::size_t i, std::size_t l,
                                              bool relative) const {
  const double* cw =
      relative ? &cw_rel_[i * grid_size_] : &cw_abs_[i * grid_size_];
  const double* cwv =
      relative ? &cwv_rel_[i * grid_size_] : &cwv_abs_[i * grid_size_];
  double tw = cw[grid_size_ - 1];
  double twv = cwv[grid_size_ - 1];
  if (l == static_cast<std::size_t>(-1)) return Line{-tw, twv};
  PROBSYN_CHECK(l < grid_size_);
  return Line{2.0 * cw[l] - tw, twv - 2.0 * cwv[l]};
}

double DensePointErrorTables::AbsErrorImpl(std::size_t i, double v,
                                           bool relative) const {
  Line line = AbsoluteErrorLine(i, SegmentOf(v), relative);
  return std::max(0.0, line.At(v));
}

double DensePointErrorTables::ExpectedPointError(ErrorMetric metric,
                                                 std::size_t i,
                                                 double v) const {
  switch (metric) {
    case ErrorMetric::kSse:
      return ClampTinyNegative(m2_[i] - 2.0 * v * m1_[i] + v * v);
    case ErrorMetric::kSsre:
      return ClampTinyNegative(x_[i] - 2.0 * v * y_[i] + v * v * z_[i]);
    case ErrorMetric::kSae:
    case ErrorMetric::kMae:
      return AbsErrorImpl(i, v, /*relative=*/false);
    case ErrorMetric::kSare:
    case ErrorMetric::kMare:
      return AbsErrorImpl(i, v, /*relative=*/true);
  }
  return 0.0;
}

double EvaluateHistogramDense(const DensePointErrorTables& tables,
                              const Histogram& h, ErrorMetric metric,
                              std::span<const double> weights) {
  PROBSYN_CHECK(h.domain_size() == tables.domain_size());
  const bool cumulative = IsCumulativeMetric(metric);
  KahanSum sum;
  double worst = 0.0;
  for (const HistogramBucket& b : h.buckets()) {
    for (std::size_t i = b.start; i <= b.end; ++i) {
      double err = tables.ExpectedPointError(metric, i, b.representative);
      if (!weights.empty()) err *= weights[i];
      if (cumulative) {
        sum.Add(err);
      } else {
        worst = std::max(worst, err);
      }
    }
  }
  return cumulative ? sum.value() : worst;
}

double EvaluateWaveletDense(const ValuePdfInput& input,
                            const WaveletSynopsis& synopsis,
                            const SynopsisOptions& options) {
  const DensePointErrorTables tables(input, options.sanity_c,
                                     synopsis.transform_size());
  std::vector<double> dense(synopsis.transform_size(), 0.0);
  for (const WaveletCoefficient& c : synopsis.coefficients()) {
    dense[c.index] = c.value;
  }
  const std::vector<double> ghat = HaarInverse(dense);
  const bool cumulative = IsCumulativeMetric(options.metric);
  KahanSum sum;
  double worst = 0.0;
  for (std::size_t i = 0; i < tables.domain_size(); ++i) {
    double err = tables.ExpectedPointError(options.metric, i, ghat[i]);
    if (options.HasWorkload()) {
      err *= i < options.workload.size() ? options.workload[i] : 0.0;
    }
    if (cumulative) {
      sum.Add(err);
    } else {
      worst = std::max(worst, err);
    }
  }
  return cumulative ? sum.value() : worst;
}

}  // namespace probsyn::reference
