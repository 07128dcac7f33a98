#include "util/search.h"

#include "util/logging.h"

namespace probsyn {

std::size_t TernarySearchMinIndex(std::size_t lo, std::size_t hi,
                                  const std::function<double(std::size_t)>& f) {
  PROBSYN_CHECK(lo <= hi);
  return TernarySearchMinIndexOver(lo, hi, f);
}

}  // namespace probsyn
