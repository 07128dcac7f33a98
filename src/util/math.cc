#include "util/math.h"

#include <algorithm>

namespace probsyn {

bool AlmostEqual(double a, double b, double rtol, double atol) {
  if (a == b) return true;  // Handles exact zeros and infinities of same sign.
  if (std::isnan(a) || std::isnan(b)) return false;
  double diff = std::fabs(a - b);
  double scale = std::max(std::fabs(a), std::fabs(b));
  return diff <= atol + rtol * scale;
}

std::size_t NextPowerOfTwo(std::size_t v) {
  if (v <= 1) return 1;
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

std::size_t FloorLog2(std::size_t v) {
  std::size_t l = 0;
  while (v > 1) {
    v >>= 1;
    ++l;
  }
  return l;
}

}  // namespace probsyn
