#include "core/wavelet_unrestricted.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/dp_kernels.h"
#include "core/haar.h"
#include "core/point_error.h"
#include "util/logging.h"
#include "util/math.h"
#include "util/timer.h"

namespace probsyn {

namespace {

// Per-(state, budget) traceback record.
struct Decision {
  bool keep = false;
  std::int32_t offset = 0;  // grid-index offset k; children get g +- k
  std::uint16_t left_budget = 0;
  std::uint16_t right_budget = 0;
};

class UnrestrictedSolver {
 public:
  UnrestrictedSolver(const ValuePdfInput& input, std::size_t budget,
                     const SynopsisOptions& options,
                     const UnrestrictedWaveletOptions& dp_options)
      : input_(input),
        n_(NextPowerOfTwo(input.domain_size())),
        budget_(budget),
        metric_(options.metric),
        sanity_c_(options.sanity_c),
        cumulative_(IsCumulativeMetric(options.metric)),
        ctx_(dp_options.context) {
    if (options.HasWorkload()) {
      weights_ = options.workload;
      weights_.resize(n_, 0.0);  // padded items carry zero workload
    }
    BuildGrid(dp_options);
  }

  // Seconds spent building the point-error tables.
  double preprocess_seconds() const { return preprocess_seconds_; }

  StatusOr<UnrestrictedWaveletResult> Solve() {
    PROBSYN_RETURN_IF_ERROR(PrecomputeLeafErrors());
    if (n_ == 1) return SolveSingleton();

    node_cost_.assign(n_, {});
    node_decision_.assign(n_, {});
    // Bottom-up over detail nodes; children of j are 2j / 2j+1.
    for (std::size_t j = n_ - 1; j >= 1; --j) {
      if (StopRequested(ctx_)) {
        return ctx_->StopStatus("unrestricted-wavelet-dp", "node",
                                n_ - 1 - j, n_ - 1);
      }
      SolveNode(j);
    }
    if (StopRequested(ctx_)) {
      return ctx_->StopStatus("unrestricted-wavelet-dp", "node", n_ - 1,
                              n_ - 1);
    }

    // Root: optionally spend one coefficient on c0 = value * sqrt(n).
    const std::size_t cap1 = Cap(1);
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_g = zero_index_;
    bool best_keep0 = false;
    {
      std::size_t b1 = std::min(budget_, cap1);
      double drop = NodeBest(1, zero_index_, b1);
      best = drop;
    }
    if (budget_ >= 1) {
      std::size_t b1 = std::min(budget_ - 1, cap1);
      for (std::size_t g = 0; g < grid_.size(); ++g) {
        double err = NodeBest(1, g, b1);
        if (err < best) {
          best = err;
          best_g = g;
          best_keep0 = true;
        }
      }
    }

    std::vector<WaveletCoefficient> kept;
    if (best_keep0) {
      kept.push_back({0, grid_[best_g] * std::sqrt(static_cast<double>(n_))});
    }
    std::size_t b1 = std::min(budget_ - (best_keep0 ? 1 : 0), cap1);
    Trace(1, best_g, b1, kept);
    return UnrestrictedWaveletResult{WaveletSynopsis(n_, n_, std::move(kept)),
                                     best};
  }

 private:
  // The padded items' zeros add no value: the grid always holds 0.
  void BuildGrid(const UnrestrictedWaveletOptions& dp_options) {
    std::vector<double> values = input_.ValueGrid();
    double lo = values.front(), hi = values.back();
    if (hi <= lo) hi = lo + 1.0;
    double pad = dp_options.range_padding * (hi - lo);
    lo = std::min(0.0, lo - pad);
    hi = hi + pad;
    std::size_t q = std::max<std::size_t>(3, dp_options.grid_points);
    step_ = (hi - lo) / static_cast<double>(q - 1);
    // Align so that 0 is exactly a grid point (the "drop everything"
    // reconstruction must be representable).
    zero_index_ = static_cast<std::size_t>(std::llround((0.0 - lo) / step_));
    zero_index_ = std::min(zero_index_, q - 1);
    grid_.resize(q);
    for (std::size_t g = 0; g < q; ++g) {
      grid_[g] =
          (static_cast<double>(g) - static_cast<double>(zero_index_)) * step_;
    }
  }

  // The point-error tables over the padded domain (built for the one
  // metric, polling the context per block of items) are read only here.
  Status PrecomputeLeafErrors() {
    Stopwatch watch;
    const PointErrorTables tables(input_, sanity_c_, metric_, n_,
                                  /*pool=*/nullptr, ctx_);
    preprocess_seconds_ = watch.ElapsedSeconds();
    PROBSYN_RETURN_IF_ERROR(tables.preprocess_status());
    const std::size_t q = grid_.size();
    leaf_error_.assign(n_ * q, 0.0);
    for (std::size_t i = 0; i < n_; ++i) {
      double phi = weights_.empty() ? 1.0 : weights_[i];
      for (std::size_t g = 0; g < q; ++g) {
        leaf_error_[i * q + g] =
            phi * tables.ExpectedPointError(metric_, i, grid_[g]);
      }
    }
    return Status::OK();
  }

  UnrestrictedWaveletResult SolveSingleton() {
    double best = leaf_error_[zero_index_];
    std::size_t best_g = zero_index_;
    if (budget_ >= 1) {
      for (std::size_t g = 0; g < grid_.size(); ++g) {
        if (leaf_error_[g] < best) {
          best = leaf_error_[g];
          best_g = g;
        }
      }
    }
    std::vector<WaveletCoefficient> kept;
    if (budget_ >= 1 && grid_[best_g] != 0.0) {
      kept.push_back({0, grid_[best_g]});
    }
    return {WaveletSynopsis(1, 1, std::move(kept)), best};
  }

  std::size_t Cap(std::size_t j) const {
    SupportRange r = CoefficientSupport(j, n_);
    return std::min(budget_, (r.hi - r.lo) - 1);
  }

  double NodeBest(std::size_t j, std::size_t g, std::size_t b) const {
    return node_cost_[j][g * (Cap(j) + 1) + std::min(b, Cap(j))];
  }

  // Child row for incoming grid index g: a solved node table (indexed by
  // budget) or the single budget-independent leaf-error cell (cap 0) —
  // flat spans for the budget-split kernel.
  const double* ChildRow(std::size_t child, std::size_t child_cap,
                         std::size_t g) const {
    if (child >= n_) return &leaf_error_[(child - n_) * grid_.size() + g];
    return node_cost_[child].data() + g * (child_cap + 1);
  }

  void SolveNode(std::size_t j) {
    const std::size_t q = grid_.size();
    const std::size_t cap = Cap(j);
    node_cost_[j].assign(q * (cap + 1),
                         std::numeric_limits<double>::infinity());
    node_decision_[j].assign(q * (cap + 1), {});
    const std::size_t left = 2 * j, right = 2 * j + 1;
    const std::size_t cap_left = left < n_ ? Cap(left) : 0;
    const std::size_t cap_right = right < n_ ? Cap(right) : 0;
    const DpCombiner combiner =
        cumulative_ ? DpCombiner::kSum : DpCombiner::kMax;

    for (std::size_t g = 0; g < q; ++g) {
      if ((g & 7u) == 0 && StopRequested(ctx_)) return;  // tables abandoned
      double* row = &node_cost_[j][g * (cap + 1)];
      Decision* dec = &node_decision_[j][g * (cap + 1)];
      for (std::size_t b = 0; b <= cap; ++b) {
        // Option 1: drop c_j; children inherit g. The budget split runs
        // through the kernel layer (first-attaining tie-break preserved).
        BudgetSplit split = MinBudgetSplit(
            combiner, ChildRow(left, cap_left, g), std::min(b, cap_left),
            ChildRow(right, cap_right, g), cap_right, b);
        double best = split.value;
        Decision choice{
            false, 0, static_cast<std::uint16_t>(split.left_budget),
            static_cast<std::uint16_t>(
                std::min(b - split.left_budget, cap_right))};
        // Option 2: keep c_j = k * step / scale_j; children land on grid
        // points g + k and g - k. k stays a scalar loop (each offset pair
        // is a fresh split); ascending k keeps the reference tie order.
        if (b >= 1) {
          std::size_t rem = b - 1;
          std::int64_t max_off = static_cast<std::int64_t>(
              std::min(g, q - 1 - g));
          for (std::int64_t k = -max_off; k <= max_off; ++k) {
            if (k == 0) continue;  // identical to dropping, wastes budget
            std::size_t gl = static_cast<std::size_t>(
                static_cast<std::int64_t>(g) + k);
            std::size_t gr = static_cast<std::size_t>(
                static_cast<std::int64_t>(g) - k);
            BudgetSplit ks = MinBudgetSplit(
                combiner, ChildRow(left, cap_left, gl),
                std::min(rem, cap_left), ChildRow(right, cap_right, gr),
                cap_right, rem);
            if (ks.value < best) {
              best = ks.value;
              choice = {true, static_cast<std::int32_t>(k),
                        static_cast<std::uint16_t>(ks.left_budget),
                        static_cast<std::uint16_t>(
                            std::min(rem - ks.left_budget, cap_right))};
            }
          }
        }
        row[b] = best;
        dec[b] = choice;
      }
    }
  }

  void Trace(std::size_t j, std::size_t g, std::size_t b,
             std::vector<WaveletCoefficient>& out) const {
    if (j >= n_) return;
    const std::size_t cap = Cap(j);
    b = std::min(b, cap);
    const Decision& d = node_decision_[j][g * (cap + 1) + b];
    std::size_t gl = g, gr = g;
    if (d.keep) {
      double scale = LeafContributionScale(j, n_);
      out.push_back({j, static_cast<double>(d.offset) * step_ / scale});
      gl = static_cast<std::size_t>(static_cast<std::int64_t>(g) + d.offset);
      gr = static_cast<std::size_t>(static_cast<std::int64_t>(g) - d.offset);
    }
    Trace(2 * j, gl, d.left_budget, out);
    Trace(2 * j + 1, gr, d.right_budget, out);
  }

  const ValuePdfInput& input_;
  std::size_t n_;  // padded (power-of-two) domain
  std::size_t budget_;
  ErrorMetric metric_;
  double sanity_c_;
  bool cumulative_;
  const ExecContext* ctx_;  // null = unbounded solve
  double preprocess_seconds_ = 0.0;

  std::vector<double> grid_;
  double step_ = 1.0;
  std::size_t zero_index_ = 0;
  std::vector<double> weights_;     // empty = uniform
  std::vector<double> leaf_error_;  // [item * q + g]

  // Per node j: cost/decision indexed by [g * (cap_j + 1) + b].
  std::vector<std::vector<double>> node_cost_;
  std::vector<std::vector<Decision>> node_decision_;
};

}  // namespace

StatusOr<UnrestrictedWaveletResult> BuildUnrestrictedWaveletDp(
    const ValuePdfInput& input, std::size_t num_coefficients,
    const SynopsisOptions& options,
    const UnrestrictedWaveletOptions& dp_options) {
  PROBSYN_RETURN_IF_ERROR(options.Validate());
  PROBSYN_RETURN_IF_ERROR(input.Validate());
  if (input.domain_size() == 0) {
    return Status::InvalidArgument("empty domain");
  }
  if (options.HasWorkload() &&
      options.workload.size() != input.domain_size()) {
    return Status::InvalidArgument("workload size must equal the domain size");
  }
  if (dp_options.grid_points < 3) {
    return Status::InvalidArgument("need at least 3 grid points");
  }
  if (!(dp_options.range_padding >= 0.0)) {
    return Status::InvalidArgument("range padding must be nonnegative");
  }

  UnrestrictedSolver solver(input, num_coefficients, options, dp_options);
  PROBSYN_ASSIGN_OR_RETURN(UnrestrictedWaveletResult result, solver.Solve());
  result.preprocess_seconds = solver.preprocess_seconds();
  result.synopsis = WaveletSynopsis(
      input.domain_size(), NextPowerOfTwo(input.domain_size()),
      std::vector<WaveletCoefficient>(result.synopsis.coefficients()));
  return result;
}

}  // namespace probsyn
