#ifndef PROBSYN_CORE_BASELINES_H_
#define PROBSYN_CORE_BASELINES_H_

#include <cstddef>
#include <vector>

#include "core/histogram.h"
#include "core/metrics.h"
#include "core/wavelet.h"
#include "model/tuple_pdf.h"
#include "model/value_pdf.h"
#include "util/random.h"
#include "util/status.h"

namespace probsyn {

// The two naive deterministic baselines the paper's experiments compare
// against (sections 2.3 and 5):
//
//  * Expectation — replace each uncertain item by its expected frequency
//    E[g_i], build the optimal deterministic synopsis of that vector.
//  * Sampled World — draw one possible world W ~ Pr[W], build the optimal
//    deterministic synopsis of W's frequency vector.
//
// Both produce ordinary synopses that are then re-costed under the true
// distribution with the evaluate.h routines; the paper's headline result
// is how much worse they are than the direct probabilistic optimization.

/// Expected-frequency vector of the input (the "Expectation" data).
std::vector<double> ExpectationFrequencies(const ValuePdfInput& input);
/// Tuple-pdf overload: E[g_i] = sum over tuples t of Pr[t = i].
std::vector<double> ExpectationFrequencies(const TuplePdfInput& input);

/// One sampled possible world's frequency vector.
std::vector<double> SampleWorldFrequencies(const ValuePdfInput& input,
                                           Rng& rng);
/// Tuple-pdf overload: one independent categorical draw per tuple (one of
/// its alternatives, or absent).
std::vector<double> SampleWorldFrequencies(const TuplePdfInput& input,
                                           Rng& rng);

/// Optimal deterministic histogram of the expectation vector.
StatusOr<Histogram> BuildExpectationHistogram(const ValuePdfInput& input,
                                              const SynopsisOptions& options,
                                              std::size_t num_buckets);
/// Tuple-pdf overload: the expectation vector sums each tuple's
/// alternatives (ExpectationFrequencies).
StatusOr<Histogram> BuildExpectationHistogram(const TuplePdfInput& input,
                                              const SynopsisOptions& options,
                                              std::size_t num_buckets);

/// Optimal deterministic histogram of one sampled world.
StatusOr<Histogram> BuildSampledWorldHistogram(const ValuePdfInput& input,
                                               const SynopsisOptions& options,
                                               std::size_t num_buckets,
                                               Rng& rng);
/// Tuple-pdf overload: the world draws one alternative (or none) per tuple
/// (SampleWorldFrequencies).
StatusOr<Histogram> BuildSampledWorldHistogram(const TuplePdfInput& input,
                                               const SynopsisOptions& options,
                                               std::size_t num_buckets,
                                               Rng& rng);

/// Equi-depth histogram over *expected* frequencies — the synopsis induced
/// by probabilistic quantiles (paper section 1.1: "the techniques to find
/// these show that it simplifies to the problem of finding quantiles over
/// weighted data, where the weight of each item is simply its expected
/// frequency" [5, 21]). Bucket boundaries split the expected mass into B
/// near-equal parts; representatives are then chosen optimally per bucket
/// for the requested metric. A structural baseline: boundaries ignore the
/// error objective entirely.
StatusOr<Histogram> BuildEquiDepthHistogram(const ValuePdfInput& input,
                                            const SynopsisOptions& options,
                                            std::size_t num_buckets);
/// Tuple-pdf overload: boundaries from the tuples' expected frequencies,
/// representatives from the metric's tuple-input bucket oracle.
StatusOr<Histogram> BuildEquiDepthHistogram(const TuplePdfInput& input,
                                            const SynopsisOptions& options,
                                            std::size_t num_buckets);

/// Wavelet baselines (section 5.2): B largest coefficients of a sampled
/// world's transform. (The Expectation wavelet baseline coincides with the
/// SSE-optimal probabilistic method by Theorem 7 — transform-of-expectation
/// IS the optimum — which the paper notes and we exploit as a test.)
StatusOr<WaveletSynopsis> BuildSampledWorldWavelet(const ValuePdfInput& input,
                                                   std::size_t num_coefficients,
                                                   Rng& rng);
/// Tuple-pdf overload: the world draws one alternative (or none) per tuple.
StatusOr<WaveletSynopsis> BuildSampledWorldWavelet(const TuplePdfInput& input,
                                                   std::size_t num_coefficients,
                                                   Rng& rng);

}  // namespace probsyn

#endif  // PROBSYN_CORE_BASELINES_H_
