#include "core/histogram2d.h"

#include <algorithm>
#include <limits>
#include <map>
#include <queue>
#include <sstream>

#include "core/dp_kernels.h"
#include "util/logging.h"
#include "util/math.h"

namespace probsyn {

StatusOr<ProbGrid2D> ProbGrid2D::Create(std::size_t width, std::size_t height,
                                        std::vector<ValuePdf> cells) {
  if (width == 0 || height == 0) {
    return Status::InvalidArgument("grid dimensions must be positive");
  }
  if (cells.size() != width * height) {
    return Status::InvalidArgument("cell count does not match dimensions");
  }
  for (const ValuePdf& pdf : cells) {
    if (pdf.empty()) return Status::InvalidArgument("empty cell pdf");
  }
  ProbGrid2D grid;
  grid.width_ = width;
  grid.height_ = height;
  grid.cells_ = std::move(cells);
  return grid;
}

std::vector<double> ProbGrid2D::ExpectedFrequencies() const {
  std::vector<double> out(cells_.size());
  for (std::size_t i = 0; i < cells_.size(); ++i) out[i] = cells_[i].Mean();
  return out;
}

Status Histogram2D::Validate(std::size_t width, std::size_t height) const {
  if (buckets_.empty()) {
    return Status::InvalidArgument("empty 2-D histogram");
  }
  // Exact tiling: total area matches and no two rectangles overlap.
  std::size_t area = 0;
  for (const Bucket2D& b : buckets_) {
    if (b.rect.x1 < b.rect.x0 || b.rect.y1 < b.rect.y0 ||
        b.rect.x1 >= width || b.rect.y1 >= height) {
      return Status::InvalidArgument("bucket rectangle out of bounds");
    }
    area += b.rect.area();
  }
  if (area != width * height) {
    return Status::InvalidArgument("buckets do not cover the grid exactly");
  }
  for (std::size_t a = 0; a < buckets_.size(); ++a) {
    for (std::size_t b = a + 1; b < buckets_.size(); ++b) {
      const Rect& r = buckets_[a].rect;
      const Rect& s = buckets_[b].rect;
      bool disjoint = r.x1 < s.x0 || s.x1 < r.x0 || r.y1 < s.y0 || s.y1 < r.y0;
      if (!disjoint) return Status::InvalidArgument("buckets overlap");
    }
  }
  return Status::OK();
}

double Histogram2D::Estimate(std::size_t x, std::size_t y) const {
  for (const Bucket2D& b : buckets_) {
    if (x >= b.rect.x0 && x <= b.rect.x1 && y >= b.rect.y0 && y <= b.rect.y1) {
      return b.representative;
    }
  }
  PROBSYN_CHECK(false);  // Validate() guarantees coverage.
  return 0.0;
}

double Histogram2D::EstimateRangeSum(const Rect& query) const {
  double total = 0.0;
  for (const Bucket2D& b : buckets_) {
    std::size_t x0 = std::max(query.x0, b.rect.x0);
    std::size_t x1 = std::min(query.x1, b.rect.x1);
    std::size_t y0 = std::max(query.y0, b.rect.y0);
    std::size_t y1 = std::min(query.y1, b.rect.y1);
    if (x0 <= x1 && y0 <= y1) {
      total += static_cast<double>((x1 - x0 + 1) * (y1 - y0 + 1)) *
               b.representative;
    }
  }
  return total;
}

std::string Histogram2D::ToString() const {
  std::ostringstream os;
  for (const Bucket2D& b : buckets_) {
    os << "[" << b.rect.x0 << ".." << b.rect.x1 << "] x [" << b.rect.y0
       << ".." << b.rect.y1 << "] -> " << b.representative << "\n";
  }
  return os.str();
}

// ---------------------------------------------------------------------------

StatusOr<RectCostOracle2D> RectCostOracle2D::Create(
    const ProbGrid2D& grid, const SynopsisOptions& options) {
  PROBSYN_RETURN_IF_ERROR(options.Validate());
  if (options.metric != ErrorMetric::kSse &&
      options.metric != ErrorMetric::kSsre) {
    return Status::Unimplemented(
        "2-D rectangle oracle supports the quadratic metrics (SSE fixed-"
        "representative, SSRE)");
  }
  if (options.metric == ErrorMetric::kSse &&
      options.sse_variant != SseVariant::kFixedRepresentative) {
    return Status::Unimplemented(
        "2-D SSE uses fixed representatives; the world-mean variant is 1-D "
        "only");
  }
  if (options.HasWorkload()) {
    return Status::Unimplemented("2-D workload weights not supported yet");
  }

  RectCostOracle2D oracle;
  oracle.width_ = grid.width();
  oracle.height_ = grid.height();
  const std::size_t w = grid.width(), h = grid.height();
  oracle.x_.assign((w + 1) * (h + 1), 0.0);
  oracle.y_.assign((w + 1) * (h + 1), 0.0);
  oracle.z_.assign((w + 1) * (h + 1), 0.0);

  auto at = [w](std::vector<double>& t, std::size_t x, std::size_t y)
      -> double& { return t[y * (w + 1) + x]; };

  for (std::size_t y = 1; y <= h; ++y) {
    for (std::size_t x = 1; x <= w; ++x) {
      const ValuePdf& pdf = grid.cell(x - 1, y - 1);
      double cx, cy, cz;
      if (options.metric == ErrorMetric::kSse) {
        cx = pdf.SecondMoment();
        cy = pdf.Mean();
        cz = 1.0;
      } else {
        KahanSum sx, sy, sz;
        for (const ValueProb& e : pdf.entries()) {
          double w2 = SquaredRelativeWeight(e.value, options.sanity_c);
          sx.Add(e.probability * w2 * e.value * e.value);
          sy.Add(e.probability * w2 * e.value);
          sz.Add(e.probability * w2);
        }
        cx = sx.value();
        cy = sy.value();
        cz = sz.value();
      }
      at(oracle.x_, x, y) = cx + at(oracle.x_, x - 1, y) +
                            at(oracle.x_, x, y - 1) -
                            at(oracle.x_, x - 1, y - 1);
      at(oracle.y_, x, y) = cy + at(oracle.y_, x - 1, y) +
                            at(oracle.y_, x, y - 1) -
                            at(oracle.y_, x - 1, y - 1);
      at(oracle.z_, x, y) = cz + at(oracle.z_, x - 1, y) +
                            at(oracle.z_, x, y - 1) -
                            at(oracle.z_, x - 1, y - 1);
    }
  }
  return oracle;
}

double RectCostOracle2D::RectSum(const std::vector<double>& table,
                                 const Rect& r) const {
  auto at = [this, &table](std::size_t x, std::size_t y) {
    return table[y * (width_ + 1) + x];
  };
  return at(r.x1 + 1, r.y1 + 1) - at(r.x0, r.y1 + 1) - at(r.x1 + 1, r.y0) +
         at(r.x0, r.y0);
}

RectCostOracle2D::Cost2D RectCostOracle2D::Cost(const Rect& rect) const {
  PROBSYN_DCHECK(rect.x1 < width_ && rect.y1 < height_);
  double x = RectSum(x_, rect);
  double y = RectSum(y_, rect);
  double z = RectSum(z_, rect);
  PROBSYN_DCHECK(z > 0.0);
  return {y / z, ClampTinyNegative(x - y * y / z, 1e-6)};
}

// ---------------------------------------------------------------------------
// Exact guillotine DP.

namespace {

// Dense rectangle index: rectangles are identified by (x0, x1, y0, y1).
struct RectKey {
  std::uint64_t packed;
  RectKey(const Rect& r)  // NOLINT: internal implicit conversion
      : packed((static_cast<std::uint64_t>(r.x0) << 48) |
               (static_cast<std::uint64_t>(r.x1) << 32) |
               (static_cast<std::uint64_t>(r.y0) << 16) |
               static_cast<std::uint64_t>(r.y1)) {}
  bool operator<(const RectKey& other) const { return packed < other.packed; }
};

// Guillotine solver: memoizes each rectangle's WHOLE optimal-cost vector
// over budgets 1..min(B, area) — one map probe per rectangle — and runs
// every cut's inner budget-allocation minimization
//
//   min over bl of best_left[bl] + best_right[b - bl]
//
// through the runtime-dispatched SIMD min-reduction (SimdMinPlusReverse),
// then resolves the recursive scan's tie-break: cuts in its order
// (vertical ascending, then horizontal), strict < against the running best,
// and the FIRST bl attaining a cut's minimum. FP min is exact in any
// order, so costs AND traceback (cut, orientation, left budget) are
// bit-identical to the per-(rectangle, budget) scan — the parity contract
// histogram2d_test.cc pins down.
class GuillotineSolver {
 public:
  GuillotineSolver(const RectCostOracle2D& oracle, std::size_t budget)
      : oracle_(oracle), budget_(budget) {}

  double Best(const Rect& rect, std::size_t b) {
    const RectEntry& entry = Solve(rect);
    return entry.cost[std::min(b, entry.cost.size() - 1)];
  }

  void Extract(const Rect& rect, std::size_t b, std::vector<Bucket2D>& out) {
    auto it = memo_.find(RectKey(rect));
    PROBSYN_CHECK(it != memo_.end());
    const RectEntry& entry = it->second;
    b = std::min(b, entry.cost.size() - 1);
    const Choice& choice = entry.choice[b];
    if (choice.is_leaf) {
      out.push_back({rect, oracle_.Cost(rect).representative});
      return;
    }
    Rect a, c;
    const std::size_t cut = choice.cut;
    if (choice.vertical) {
      a = {rect.x0, rect.y0, cut, rect.y1};
      c = {cut + 1, rect.y0, rect.x1, rect.y1};
    } else {
      a = {rect.x0, rect.y0, rect.x1, cut};
      c = {rect.x0, cut + 1, rect.x1, rect.y1};
    }
    Extract(a, choice.left_budget, out);
    Extract(c, b - choice.left_budget, out);
  }

 private:
  struct Choice {
    bool is_leaf = true;
    bool vertical = false;
    std::uint16_t cut = 0;
    std::uint16_t left_budget = 1;
  };
  struct RectEntry {
    std::vector<double> cost;    // cost[b], b = 1..min(B, area); [0] unused
    std::vector<Choice> choice;  // parallel to cost
  };

  const RectEntry& Solve(const Rect& rect) {
    const RectKey key(rect);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;

    const std::size_t bmax = std::min(budget_, rect.area());
    RectEntry entry;
    const double leaf_cost = oracle_.Cost(rect).cost;
    entry.cost.assign(bmax + 1, leaf_cost);
    entry.choice.assign(bmax + 1, Choice{});

    if (bmax >= 2) {
      // Child entries per cut, resolved once (std::map references are
      // stable across the recursive inserts).
      struct CutChildren {
        const RectEntry* left;
        const RectEntry* right;
      };
      std::vector<CutChildren> vertical, horizontal;
      vertical.reserve(rect.x1 - rect.x0);
      for (std::size_t cut = rect.x0; cut < rect.x1; ++cut) {
        vertical.push_back({&Solve({rect.x0, rect.y0, cut, rect.y1}),
                            &Solve({cut + 1, rect.y0, rect.x1, rect.y1})});
      }
      horizontal.reserve(rect.y1 - rect.y0);
      for (std::size_t cut = rect.y0; cut < rect.y1; ++cut) {
        horizontal.push_back({&Solve({rect.x0, rect.y0, rect.x1, cut}),
                              &Solve({rect.x0, cut + 1, rect.x1, rect.y1})});
      }

      for (std::size_t b = 2; b <= bmax; ++b) {
        double best = entry.cost[b];  // leaf cost; splits win only strictly
        Choice best_choice{};
        auto try_cut = [&](const RectEntry& left, const RectEntry& right,
                           bool is_vertical, std::size_t cut) {
          const std::size_t left_max = left.cost.size() - 1;
          const std::size_t right_max = right.cost.size() - 1;
          const std::size_t lo = b > right_max ? b - right_max : 1;
          const std::size_t hi = std::min(b - 1, left_max);
          if (lo > hi) return;
          const double m = SimdMinPlusReverse(
              left.cost.data() + lo, right.cost.data() + (b - lo),
              hi - lo + 1);
          if (m < best) {
            best = m;
            for (std::size_t bl = lo; bl <= hi; ++bl) {
              if (left.cost[bl] + right.cost[b - bl] == m) {
                best_choice = {false, is_vertical,
                               static_cast<std::uint16_t>(cut),
                               static_cast<std::uint16_t>(bl)};
                break;
              }
            }
          }
        };
        for (std::size_t i = 0; i < vertical.size(); ++i) {
          try_cut(*vertical[i].left, *vertical[i].right, true, rect.x0 + i);
        }
        for (std::size_t i = 0; i < horizontal.size(); ++i) {
          try_cut(*horizontal[i].left, *horizontal[i].right, false,
                  rect.y0 + i);
        }
        entry.cost[b] = best;
        entry.choice[b] = best_choice;
      }
    }
    auto [pos, inserted] = memo_.emplace(key, std::move(entry));
    PROBSYN_CHECK(inserted);
    return pos->second;
  }

  const RectCostOracle2D& oracle_;
  std::size_t budget_;
  std::map<RectKey, RectEntry> memo_;
};

}  // namespace

StatusOr<Histogram2DResult> BuildOptimalGuillotineHistogram2D(
    const ProbGrid2D& grid, const SynopsisOptions& options,
    std::size_t num_buckets, std::size_t max_cells) {
  if (num_buckets < 1) return Status::InvalidArgument("need >= 1 bucket");
  if (grid.num_cells() > max_cells) {
    return Status::OutOfRange(
        "grid too large for the exact guillotine DP; use "
        "BuildGreedyHistogram2D");
  }
  auto oracle = RectCostOracle2D::Create(grid, options);
  if (!oracle.ok()) return oracle.status();

  Rect whole{0, 0, grid.width() - 1, grid.height() - 1};
  GuillotineSolver solver(*oracle, num_buckets);
  const double cost = solver.Best(whole, num_buckets);
  std::vector<Bucket2D> buckets;
  solver.Extract(whole, std::min(num_buckets, whole.area()), buckets);
  Histogram2D histogram(std::move(buckets));
  PROBSYN_RETURN_IF_ERROR(histogram.Validate(grid.width(), grid.height()));
  return Histogram2DResult{std::move(histogram), cost};
}

// ---------------------------------------------------------------------------
// Greedy MHIST-style splitting.

StatusOr<Histogram2DResult> BuildGreedyHistogram2D(
    const ProbGrid2D& grid, const SynopsisOptions& options,
    std::size_t num_buckets) {
  if (num_buckets < 1) return Status::InvalidArgument("need >= 1 bucket");
  auto oracle = RectCostOracle2D::Create(grid, options);
  if (!oracle.ok()) return oracle.status();

  struct Candidate {
    Rect rect;
    double cost = 0.0;       // cost as one bucket
    double best_after = 0.0; // cost of the best single split
    bool vertical = false;
    std::size_t cut = 0;
    bool splittable = false;

    double gain() const { return splittable ? cost - best_after : -1.0; }
  };

  auto analyze = [&](const Rect& rect) {
    Candidate c;
    c.rect = rect;
    c.cost = oracle->Cost(rect).cost;
    c.best_after = std::numeric_limits<double>::infinity();
    for (std::size_t cut = rect.x0; cut < rect.x1; ++cut) {
      double split = oracle->Cost({rect.x0, rect.y0, cut, rect.y1}).cost +
                     oracle->Cost({cut + 1, rect.y0, rect.x1, rect.y1}).cost;
      if (split < c.best_after) {
        c.best_after = split;
        c.vertical = true;
        c.cut = cut;
        c.splittable = true;
      }
    }
    for (std::size_t cut = rect.y0; cut < rect.y1; ++cut) {
      double split = oracle->Cost({rect.x0, rect.y0, rect.x1, cut}).cost +
                     oracle->Cost({rect.x0, cut + 1, rect.x1, rect.y1}).cost;
      if (split < c.best_after) {
        c.best_after = split;
        c.vertical = false;
        c.cut = cut;
        c.splittable = true;
      }
    }
    return c;
  };

  auto by_gain = [](const Candidate& a, const Candidate& b) {
    return a.gain() < b.gain();
  };
  std::priority_queue<Candidate, std::vector<Candidate>, decltype(by_gain)>
      queue(by_gain);
  queue.push(analyze({0, 0, grid.width() - 1, grid.height() - 1}));

  std::vector<Candidate> finished;
  while (finished.size() + queue.size() < num_buckets && !queue.empty()) {
    Candidate top = queue.top();
    queue.pop();
    if (!top.splittable || top.gain() <= 0.0) {
      finished.push_back(top);
      continue;
    }
    Rect a, b;
    if (top.vertical) {
      a = {top.rect.x0, top.rect.y0, top.cut, top.rect.y1};
      b = {top.cut + 1, top.rect.y0, top.rect.x1, top.rect.y1};
    } else {
      a = {top.rect.x0, top.rect.y0, top.rect.x1, top.cut};
      b = {top.rect.x0, top.cut + 1, top.rect.x1, top.rect.y1};
    }
    queue.push(analyze(a));
    queue.push(analyze(b));
  }

  std::vector<Bucket2D> buckets;
  double total = 0.0;
  auto emit = [&](const Candidate& c) {
    buckets.push_back({c.rect, oracle->Cost(c.rect).representative});
    total += c.cost;
  };
  for (const Candidate& c : finished) emit(c);
  while (!queue.empty()) {
    emit(queue.top());
    queue.pop();
  }

  Histogram2D histogram(std::move(buckets));
  PROBSYN_RETURN_IF_ERROR(histogram.Validate(grid.width(), grid.height()));
  return Histogram2DResult{std::move(histogram), total};
}

StatusOr<double> EvaluateHistogram2D(const ProbGrid2D& grid,
                                     const Histogram2D& histogram,
                                     const SynopsisOptions& options) {
  PROBSYN_RETURN_IF_ERROR(options.Validate());
  PROBSYN_RETURN_IF_ERROR(histogram.Validate(grid.width(), grid.height()));
  KahanSum sum;
  for (const Bucket2D& b : histogram.buckets()) {
    for (std::size_t y = b.rect.y0; y <= b.rect.y1; ++y) {
      for (std::size_t x = b.rect.x0; x <= b.rect.x1; ++x) {
        const ValuePdf& pdf = grid.cell(x, y);
        if (options.metric == ErrorMetric::kSse) {
          sum.Add(pdf.ExpectedSquaredDeviation(b.representative));
        } else if (options.metric == ErrorMetric::kSsre) {
          sum.Add(pdf.ExpectedSquaredRelDeviation(b.representative,
                                                  options.sanity_c));
        } else {
          return Status::Unimplemented("2-D evaluation: quadratic metrics only");
        }
      }
    }
  }
  return sum.value();
}

}  // namespace probsyn
