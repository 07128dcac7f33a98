#include <algorithm>

#include "core/haar.h"
#include "reference/reference_solvers.h"
#include "util/logging.h"
#include "util/math.h"

namespace probsyn::reference {

double ReconstructPointSparse(std::span<const std::size_t> indices,
                              std::span<const double> values, std::size_t i,
                              std::size_t n) {
  PROBSYN_CHECK(IsPowerOfTwo(n) && i < n);
  PROBSYN_CHECK(indices.size() == values.size());
  auto lookup = [&](std::size_t idx) -> double {
    auto it = std::lower_bound(indices.begin(), indices.end(), idx);
    if (it != indices.end() && *it == idx) {
      return values[static_cast<std::size_t>(it - indices.begin())];
    }
    return 0.0;
  };

  double total = lookup(0) * LeafContributionScale(0, n);
  // Walk the detail chain covering leaf i.
  std::size_t node = 1;
  std::size_t lo = 0, hi = n;
  while (node < n) {
    std::size_t mid = (lo + hi) / 2;
    double sign = (i < mid) ? 1.0 : -1.0;
    total += sign * lookup(node) * LeafContributionScale(node, n);
    if (i < mid) {
      hi = mid;
      node = 2 * node;
    } else {
      lo = mid;
      node = 2 * node + 1;
    }
  }
  return total;
}

}  // namespace probsyn::reference
