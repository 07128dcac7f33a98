#ifndef PROBSYN_TESTS_REFERENCE_BRUTE_FORCE_H_
#define PROBSYN_TESTS_REFERENCE_BRUTE_FORCE_H_

// Brute-force ground truth: exhaustive possible-world enumeration, every
// bucketization of a domain, and per-pdf point probabilities and absolute
// deviations computed straight from the entries. The tests check the
// library's closed forms and solvers against these. Only the tests and the
// benches link this target (probsyn_reference); the library never does.

#include <cstddef>
#include <functional>
#include <vector>

#include "model/basic.h"
#include "model/tuple_pdf.h"
#include "model/value_pdf.h"
#include "util/status.h"

namespace probsyn::reference {

/// One grounded possible world: the instantiated frequency vector and its
/// probability (paper section 2.1). Worlds with identical frequency vectors
/// arising from different tuple instantiations are NOT merged — expectations
/// are unaffected, and keeping them distinct matches Definition 1's coin-flip
/// semantics.
struct PossibleWorld {
  std::vector<double> frequencies;
  double probability = 0.0;
};

/// Exhaustive possible-world enumeration of value-pdf input: one world per
/// combination of per-item entries. Exponential by nature. Validates the
/// input first; fails with OutOfRange once `max_worlds` is exceeded.
StatusOr<std::vector<PossibleWorld>> EnumerateWorlds(
    const ValuePdfInput& input, std::size_t max_worlds = 1u << 22);
/// Tuple-pdf enumeration: one world per choice of alternative (or absence)
/// per tuple, zero-probability branches pruned.
StatusOr<std::vector<PossibleWorld>> EnumerateWorlds(
    const TuplePdfInput& input, std::size_t max_worlds = 1u << 22);
/// Basic-model enumeration, through the model's tuple-pdf form.
StatusOr<std::vector<PossibleWorld>> EnumerateWorlds(
    const BasicModelInput& input, std::size_t max_worlds = 1u << 22);

/// E_W[f] = sum_W Pr[W] f(W) over the exhaustively enumerated worlds
/// (paper equation (1)).
double ExpectationOverWorlds(
    const std::vector<PossibleWorld>& worlds,
    const std::function<double(const std::vector<double>&)>& f);

/// Invokes `fn` once per partition of [n] into exactly `num_buckets`
/// contiguous buckets, with the bucket end indices in ascending order (the
/// last is always n - 1). Exponential in the bucket count: the exhaustive
/// optimum the DP tests compare against.
void ForEachBucketization(
    std::size_t n, std::size_t num_buckets,
    const std::function<void(const std::vector<std::size_t>&)>& fn);

/// Pr[g = v]: the probability of an exact support point, 0 elsewhere.
double ProbEquals(const ValuePdf& pdf, double v);
/// E[|g - a|]; the per-item absolute-error integrand of section 3.3.
double ExpectedAbsDeviation(const ValuePdf& pdf, double a);

}  // namespace probsyn::reference

#endif  // PROBSYN_TESTS_REFERENCE_BRUTE_FORCE_H_
