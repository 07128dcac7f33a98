#include "core/point_error.h"

#include <algorithm>
#include <atomic>

#include "util/logging.h"
#include "util/math.h"
#include "util/thread_pool.h"

namespace probsyn {

namespace {

// Items filled between two polls of the build's context.
constexpr std::size_t kPollBlock = 1024;

// Item i of a build over `input` padded to any domain size.
const ValuePdf& ItemOrZero(const ValuePdfInput& input, std::size_t i) {
  static const ValuePdf zero = ValuePdf::PointMass(0.0);
  return i < input.domain_size() ? input.item(i) : zero;
}

}  // namespace

unsigned PointErrorTables::ErrorPartsOf(ErrorMetric metric) {
  switch (metric) {
    case ErrorMetric::kSse:
      return kMoments;
    case ErrorMetric::kSsre:
      return kRelativeMoments;
    case ErrorMetric::kSae:
    case ErrorMetric::kMae:
      return kAbsoluteSums;
    case ErrorMetric::kSare:
    case ErrorMetric::kMare:
      return kRelativeSums;
  }
  return 0;
}

unsigned PointErrorTables::BuildPartsOf(ErrorMetric metric) {
  return ErrorPartsOf(metric) |
         (IsCumulativeMetric(metric) ? 0u : unsigned{kValueGrid});
}

PointErrorTables::PointErrorTables(const ValuePdfInput& input, double sanity_c,
                                   ErrorMetric metric, std::size_t domain_size,
                                   ThreadPool* pool, const ExecContext* context)
    : PointErrorTables(input, sanity_c, BuildPartsOf(metric), domain_size,
                       pool, context) {}

PointErrorTables::PointErrorTables(const ValuePdfInput& input, double sanity_c,
                                   unsigned parts, std::size_t domain_size,
                                   ThreadPool* pool, const ExecContext* context)
    : n_(domain_size), c_(sanity_c), parts_(parts) {
  PROBSYN_CHECK(n_ >= input.domain_size());
  if (parts_ & kMoments) {
    m1_.resize(n_);
    m2_.resize(n_);
  }
  if (parts_ & kRelativeMoments) {
    x_.resize(n_);
    y_.resize(n_);
    z_.resize(n_);
  }
  if (parts_ & kValueGrid) {
    grid_ = input.ValueGrid();
    grid_.shrink_to_fit();
  }
  if (parts_ & (kAbsoluteSums | kRelativeSums)) {
    offsets_.resize(n_ + 1);
    for (std::size_t i = 0; i < n_; ++i) {
      offsets_[i + 1] = offsets_[i] + ItemOrZero(input, i).size();
    }
    values_.resize(offsets_[n_]);
    // One leading zero per item before its running sums.
    if (parts_ & kAbsoluteSums) abs_.resize(offsets_[n_] + n_);
    if (parts_ & kRelativeSums) rel_.resize(offsets_[n_] + n_);
  }

  // Items fill disjoint slots, so the fill is a clean parallel-for; each
  // chunk polls the context once per block and abandons the rest on a
  // stop, which the check after the join reports.
  std::atomic<std::size_t> filled{0};
  auto fill = [&](std::size_t begin, std::size_t end) {
    for (std::size_t block = begin; block < end; block += kPollBlock) {
      if (StopRequested(context)) return;
      const std::size_t block_end = std::min(end, block + kPollBlock);
      FillItems(input, block, block_end);
      filled.fetch_add(block_end - block, std::memory_order_relaxed);
    }
  };
  if (pool != nullptr) {
    preprocess_status_ = pool->ParallelFor(0, n_, fill);
  } else {
    fill(0, n_);
  }
  if (preprocess_status_.ok() && StopRequested(context)) {
    preprocess_status_ = context->StopStatus("point-error-tables", "item",
                                             filled.load(), n_);
  }
}

void PointErrorTables::FillItems(const ValuePdfInput& input, std::size_t begin,
                                 std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    const ValuePdf& pdf = ItemOrZero(input, i);
    if (parts_ & kMoments) {
      m1_[i] = pdf.Mean();
      m2_[i] = pdf.SecondMoment();
    }
    if (parts_ & kRelativeMoments) {
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
    }
    if (!(parts_ & (kAbsoluteSums | kRelativeSums))) continue;

    // The running sums over the item's support, in support order; slot 0
    // keeps the zero the sums start from.
    const std::vector<ValueProb>& entries = pdf.entries();
    for (std::size_t k = 0; k < entries.size(); ++k) {
      values_[offsets_[i] + k] = entries[k].value;
    }
    if (parts_ & kAbsoluteSums) {
      PrefixSums* sums = abs_.data() + offsets_[i] + i;
      double w = 0.0, wv = 0.0;
      for (std::size_t k = 0; k < entries.size(); ++k) {
        w += entries[k].probability;
        wv += entries[k].probability * entries[k].value;
        sums[k + 1] = {w, wv};
      }
    }
    if (parts_ & kRelativeSums) {
      PrefixSums* sums = rel_.data() + offsets_[i] + i;
      double w = 0.0, wv = 0.0;
      for (std::size_t k = 0; k < entries.size(); ++k) {
        const ValueProb& e = entries[k];
        double rw = RelativeWeight(e.value, c_);
        w += e.probability * rw;
        wv += e.probability * rw * e.value;
        sums[k + 1] = {w, wv};
      }
    }
  }
}

std::size_t PointErrorTables::BuildBytes(const ValuePdfInput& input,
                                         ErrorMetric metric,
                                         std::size_t domain_size) {
  const unsigned parts = BuildPartsOf(metric);
  const std::size_t pairs = input.total_pairs();
  std::size_t bytes = 0;
  if (parts & kMoments) bytes += 2 * domain_size * sizeof(double);
  if (parts & kRelativeMoments) bytes += 3 * domain_size * sizeof(double);
  if (parts & kValueGrid) bytes += (pairs + 1) * sizeof(double);
  if (parts & (kAbsoluteSums | kRelativeSums)) {
    const std::size_t support = pairs + (domain_size - input.domain_size());
    bytes += (domain_size + 1) * sizeof(std::size_t);     // offsets
    bytes += support * sizeof(double);                    // support values
    bytes += (support + domain_size) * sizeof(PrefixSums);  // one sum family
  }
  return bytes;
}

bool PointErrorTables::Covers(ErrorMetric metric) const {
  return (parts_ & ErrorPartsOf(metric)) == ErrorPartsOf(metric);
}

std::size_t PointErrorTables::SegmentOf(double v) const {
  // Largest l with grid_[l] <= v.
  auto it = std::upper_bound(grid_.begin(), grid_.end(), v);
  if (it == grid_.begin()) return static_cast<std::size_t>(-1);
  return static_cast<std::size_t>(it - grid_.begin()) - 1;
}

double PointErrorTables::SquaredError(std::size_t i, double v) const {
  return ClampTinyNegative(m2_[i] - 2.0 * v * m1_[i] + v * v);
}

double PointErrorTables::SquaredRelativeError(std::size_t i, double v) const {
  return ClampTinyNegative(x_[i] - 2.0 * v * y_[i] + v * v * z_[i]);
}

Line PointErrorTables::LineAt(std::size_t i, double u, bool relative) const {
  const double* support = values_.data() + offsets_[i];
  const std::size_t size = offsets_[i + 1] - offsets_[i];
  const PrefixSums* sums = (relative ? rel_ : abs_).data() + offsets_[i] + i;
  const PrefixSums& total = sums[size];
  if (u < 0.0) return Line{-total.w, total.wv};  // left of the whole grid
  // A binary search over the item's own support, not the global grid.
  const PrefixSums& below =
      sums[std::upper_bound(support, support + size, u) - support];
  return Line{2.0 * below.w - total.w, total.wv - 2.0 * below.wv};
}

double PointErrorTables::AbsErrorImpl(std::size_t i, double v,
                                      bool relative) const {
  PROBSYN_DCHECK(Covers(relative ? ErrorMetric::kSare : ErrorMetric::kSae));
  return std::max(0.0, LineAt(i, v, relative).At(v));
}

double PointErrorTables::AbsoluteError(std::size_t i, double v) const {
  return AbsErrorImpl(i, v, /*relative=*/false);
}

double PointErrorTables::AbsoluteRelativeError(std::size_t i, double v) const {
  return AbsErrorImpl(i, v, /*relative=*/true);
}

Line PointErrorTables::AbsoluteErrorLine(std::size_t i, std::size_t l,
                                         bool relative) const {
  PROBSYN_DCHECK(Covers(relative ? ErrorMetric::kSare : ErrorMetric::kSae));
  PROBSYN_DCHECK(parts_ & kValueGrid);
  PROBSYN_DCHECK(l == static_cast<std::size_t>(-1) || l < grid_.size());
  // Left of the grid (l = -1) is the ray f_i(v) = twv - v * tw; segment l
  // (or the ray past the last grid point when l = K-1) reads the sums
  // through the support points <= grid[l].
  return LineAt(i, l == static_cast<std::size_t>(-1) ? -1.0 : grid_[l],
                relative);
}

double PointErrorTables::ExpectedPointError(ErrorMetric metric, std::size_t i,
                                            double v) const {
  PROBSYN_DCHECK(Covers(metric));
  switch (metric) {
    case ErrorMetric::kSse:
      return SquaredError(i, v);
    case ErrorMetric::kSsre:
      return SquaredRelativeError(i, v);
    case ErrorMetric::kSae:
    case ErrorMetric::kMae:
      return AbsoluteError(i, v);
    case ErrorMetric::kSare:
    case ErrorMetric::kMare:
      return AbsoluteRelativeError(i, v);
  }
  return 0.0;
}

}  // namespace probsyn
