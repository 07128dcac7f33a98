#ifndef PROBSYN_TESTS_TEST_UTIL_H_
#define PROBSYN_TESTS_TEST_UTIL_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/dp_kernels.h"
#include "core/histogram.h"
#include "core/metrics.h"
#include "engine/synopsis_engine.h"
#include "model/basic.h"
#include "model/tuple_pdf.h"
#include "model/value_pdf.h"
#include "reference/brute_force.h"
#include "stream/streaming_histogram.h"

namespace probsyn::testing {

/// Forces the SIMD min-reduction dispatch onto `path` for the enclosing
/// scope and restores the previous decision on exit, so one test's forcing
/// never leaks into another. The request clamps to what the CPU and build
/// support; active() reports the path actually in effect.
class ScopedSimdPath {
 public:
  explicit ScopedSimdPath(SimdPath path)
      : previous_(ActiveSimdPath()), active_(ForceSimdPath(path)) {}
  ~ScopedSimdPath() { ForceSimdPath(previous_); }

  ScopedSimdPath(const ScopedSimdPath&) = delete;
  ScopedSimdPath& operator=(const ScopedSimdPath&) = delete;

  /// The path actually in effect (the request clamps to CPU/build support).
  SimdPath active() const { return active_; }

 private:
  SimdPath previous_;
  SimdPath active_;
};

/// The SIMD paths this machine can actually run (kScalar always).
std::vector<SimdPath> SupportedSimdPaths();

/// Feeds `items` to `builder` one PushBatch call per item.
void PushOneAtATime(StreamingHistogramBuilder& builder,
                    std::span<const ValuePdf> items);

/// SynopsisEngine::Build of a `budget`-bucket histogram under `options`
/// through `method` (`epsilon` is the approximate and streaming routes'
/// slack), on one shared single-lane engine: the library's construction
/// entry point, for tests that need its histogram rather than test the
/// engine itself.
StatusOr<SynopsisResult> BuildHistogram(
    const ValuePdfInput& input, const SynopsisOptions& options,
    std::size_t budget, HistogramMethod method = HistogramMethod::kOptimal,
    double epsilon = 0.1);
StatusOr<SynopsisResult> BuildHistogram(
    const TuplePdfInput& input, const SynopsisOptions& options,
    std::size_t budget, HistogramMethod method = HistogramMethod::kOptimal,
    double epsilon = 0.1);

/// The paper's Example 1 (section 2.1), mapped to the 0-based domain
/// {0, 1, 2} (the paper's items 1, 2, 3).

/// Basic model: <1, 1/2>, <2, 1/3>, <2, 1/4>, <3, 1/2>.
BasicModelInput PaperExampleBasic();

/// Tuple pdf: <(1, 1/2), (2, 1/3)>, <(2, 1/4), (3, 1/2)>.
TuplePdfInput PaperExampleTuplePdf();

/// Value pdf: g1 ~ {0:1/2, 1:1/2}, g2 ~ {0:5/12, 1:1/3, 2:1/4},
/// g3 ~ {0:1/2, 1:1/2}.
ValuePdfInput PaperExampleValuePdf();

/// E_W[err(g_i, v)] by exhaustive possible-world enumeration.
double EnumeratedItemError(
    const std::vector<reference::PossibleWorld>& worlds, std::size_t item,
    double v, ErrorMetric metric, double c);

/// The paper's synopsis objective for a concrete histogram, by exhaustive
/// enumeration: sum_i E_W[err] for cumulative metrics, max_i E_W[err] for
/// maximum metrics.
double EnumeratedHistogramCost(
    const std::vector<reference::PossibleWorld>& worlds,
    const Histogram& histogram, ErrorMetric metric, double c);

/// n_b * E_W[sample variance] summed over buckets (the paper's equation (5)
/// world-mean SSE objective), by exhaustive enumeration.
double EnumeratedWorldMeanSse(
    const std::vector<reference::PossibleWorld>& worlds,
    const Histogram& histogram);

}  // namespace probsyn::testing

#endif  // PROBSYN_TESTS_TEST_UTIL_H_
