#include <algorithm>
#include <map>
#include <tuple>

#include "reference/reference_solvers.h"
#include "util/logging.h"

namespace probsyn::reference {
namespace {

class GuillotineSolver {
 public:
  explicit GuillotineSolver(const RectCostOracle2D& oracle) : oracle_(oracle) {}

  double Best(const Rect& rect, std::size_t b) {
    b = std::min(b, rect.area());
    PROBSYN_CHECK(b >= 1);
    const Key key = KeyOf(rect, b);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second.cost;

    Entry entry;
    entry.cost = oracle_.Cost(rect).cost;  // b == 1 or no split helps
    if (b >= 2) {
      for (std::size_t cut = rect.x0; cut < rect.x1; ++cut) {
        TrySplits(entry, {rect.x0, rect.y0, cut, rect.y1},
                  {cut + 1, rect.y0, rect.x1, rect.y1}, b, true, cut);
      }
      for (std::size_t cut = rect.y0; cut < rect.y1; ++cut) {
        TrySplits(entry, {rect.x0, rect.y0, rect.x1, cut},
                  {rect.x0, cut + 1, rect.x1, rect.y1}, b, false, cut);
      }
    }
    memo_[key] = entry;
    return entry.cost;
  }

  void Extract(const Rect& rect, std::size_t b, std::vector<Bucket2D>& out) {
    b = std::min(b, rect.area());
    auto it = memo_.find(KeyOf(rect, b));
    PROBSYN_CHECK(it != memo_.end());
    const Entry& entry = it->second;
    if (!entry.split) {
      out.push_back({rect, oracle_.Cost(rect).representative});
      return;
    }
    Rect a, c;
    if (entry.vertical) {
      a = {rect.x0, rect.y0, entry.cut, rect.y1};
      c = {entry.cut + 1, rect.y0, rect.x1, rect.y1};
    } else {
      a = {rect.x0, rect.y0, rect.x1, entry.cut};
      c = {rect.x0, entry.cut + 1, rect.x1, rect.y1};
    }
    Extract(a, entry.left_budget, out);
    Extract(c, b - entry.left_budget, out);
  }

 private:
  using Key = std::tuple<std::size_t, std::size_t, std::size_t, std::size_t,
                         std::size_t>;
  struct Entry {
    double cost = 0.0;
    bool split = false;
    bool vertical = false;
    std::size_t cut = 0;
    std::size_t left_budget = 1;
  };

  static Key KeyOf(const Rect& r, std::size_t b) {
    return {r.x0, r.y0, r.x1, r.y1, b};
  }

  void TrySplits(Entry& entry, const Rect& a, const Rect& c, std::size_t b,
                 bool vertical, std::size_t cut) {
    const std::size_t max_left = std::min(b - 1, a.area());
    for (std::size_t bl = 1; bl <= max_left; ++bl) {
      if (b - bl > c.area()) continue;  // right side cannot absorb budget
      const double cost = Best(a, bl) + Best(c, b - bl);
      if (cost < entry.cost) {
        entry = {cost, true, vertical, cut, bl};
      }
    }
  }

  const RectCostOracle2D& oracle_;
  std::map<Key, Entry> memo_;
};

}  // namespace

StatusOr<Histogram2DResult> BuildGuillotineHistogram2D(
    const ProbGrid2D& grid, const SynopsisOptions& options,
    std::size_t num_buckets) {
  if (num_buckets < 1) return Status::InvalidArgument("need >= 1 bucket");
  PROBSYN_ASSIGN_OR_RETURN(RectCostOracle2D oracle,
                           RectCostOracle2D::Create(grid, options));
  const Rect whole{0, 0, grid.width() - 1, grid.height() - 1};
  GuillotineSolver solver(oracle);
  const double cost = solver.Best(whole, num_buckets);
  std::vector<Bucket2D> buckets;
  solver.Extract(whole, std::min(num_buckets, whole.area()), buckets);
  Histogram2D histogram(std::move(buckets));
  PROBSYN_RETURN_IF_ERROR(histogram.Validate(grid.width(), grid.height()));
  return Histogram2DResult{std::move(histogram), cost};
}

}  // namespace probsyn::reference
