#include <algorithm>

#include "reference/reference_solvers.h"
#include "util/logging.h"

namespace probsyn::reference {

ExactDpTables SolveExactDp(const BucketCostOracle& oracle,
                           std::size_t max_buckets, DpCombiner combiner) {
  const std::size_t n = oracle.domain_size();
  PROBSYN_CHECK(n > 0 && max_buckets >= 1);
  ExactDpTables t;
  t.n = n;
  t.layers = std::min(max_buckets, n);
  t.err.resize(t.layers * n);
  t.choice.resize(t.layers * n);
  t.rep.resize(t.layers * n);

  // cost[s] = Cost([s, j]) and rep[s] its representative, for s = 0..j.
  std::vector<double> cost(n);
  std::vector<double> rep(n);
  for (std::size_t j = 0; j < n; ++j) {
    auto sweep = oracle.StartSweep(j);
    for (std::size_t s = j;; --s) {
      const BucketCost c = sweep->Extend();
      cost[s] = c.cost;
      rep[s] = c.representative;
      if (s == 0) break;
    }
    t.err[j] = cost[0];
    t.choice[j] = HistogramDpResult::kWholePrefix;
    t.rep[j] = rep[0];
    for (std::size_t b = 2; b <= t.layers; ++b) {
      const double* prev = &t.err[(b - 2) * n];
      // Start from "b-1 buckets were already enough".
      double best = prev[j];
      std::int64_t best_choice = HistogramDpResult::kInheritChoice;
      for (std::size_t l = 0; l < j; ++l) {
        const double v = combiner == DpCombiner::kSum
                             ? prev[l] + cost[l + 1]
                             : std::max(prev[l], cost[l + 1]);
        if (v < best) {
          best = v;
          best_choice = static_cast<std::int64_t>(l);
        }
      }
      const std::size_t cell = (b - 1) * n + j;
      t.err[cell] = best;
      t.choice[cell] = best_choice;
      t.rep[cell] = best_choice >= 0 ? rep[best_choice + 1] : 0.0;
    }
  }
  return t;
}

}  // namespace probsyn::reference
