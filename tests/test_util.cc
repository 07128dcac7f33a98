#include "test_util.h"

#include <algorithm>

#include "util/logging.h"
#include "util/math.h"

namespace probsyn::testing {

BasicModelInput PaperExampleBasic() {
  return BasicModelInput(3, {{0, 1.0 / 2}, {1, 1.0 / 3}, {1, 1.0 / 4}, {2, 1.0 / 2}});
}

TuplePdfInput PaperExampleTuplePdf() {
  auto t1 = ProbTuple::Create({{0, 1.0 / 2}, {1, 1.0 / 3}});
  auto t2 = ProbTuple::Create({{1, 1.0 / 4}, {2, 1.0 / 2}});
  PROBSYN_CHECK(t1.ok() && t2.ok());
  std::vector<ProbTuple> tuples;
  tuples.push_back(std::move(t1).value());
  tuples.push_back(std::move(t2).value());
  return TuplePdfInput(3, std::move(tuples));
}

ValuePdfInput PaperExampleValuePdf() {
  auto g1 = ValuePdf::Create({{1.0, 1.0 / 2}});
  auto g2 = ValuePdf::Create({{1.0, 1.0 / 3}, {2.0, 1.0 / 4}});
  auto g3 = ValuePdf::Create({{1.0, 1.0 / 2}});
  PROBSYN_CHECK(g1.ok() && g2.ok() && g3.ok());
  std::vector<ValuePdf> items;
  items.push_back(std::move(g1).value());
  items.push_back(std::move(g2).value());
  items.push_back(std::move(g3).value());
  return ValuePdfInput(std::move(items));
}

double EnumeratedItemError(
    const std::vector<reference::PossibleWorld>& worlds, std::size_t item,
    double v, ErrorMetric metric, double c) {
  double total = 0.0;
  for (const reference::PossibleWorld& w : worlds) {
    total += w.probability * PointError(metric, w.frequencies[item], v, c);
  }
  return total;
}

double EnumeratedHistogramCost(
    const std::vector<reference::PossibleWorld>& worlds,
    const Histogram& histogram, ErrorMetric metric, double c) {
  bool cumulative = IsCumulativeMetric(metric);
  double sum = 0.0;
  double worst = 0.0;
  for (std::size_t i = 0; i < histogram.domain_size(); ++i) {
    double err =
        EnumeratedItemError(worlds, i, histogram.Estimate(i), metric, c);
    sum += err;
    worst = std::max(worst, err);
  }
  return cumulative ? sum : worst;
}

double EnumeratedWorldMeanSse(
    const std::vector<reference::PossibleWorld>& worlds,
    const Histogram& histogram) {
  double total = 0.0;
  for (const reference::PossibleWorld& w : worlds) {
    for (const HistogramBucket& b : histogram.buckets()) {
      double nb = static_cast<double>(b.width());
      double mean = 0.0;
      for (std::size_t i = b.start; i <= b.end; ++i) {
        mean += w.frequencies[i];
      }
      mean /= nb;
      for (std::size_t i = b.start; i <= b.end; ++i) {
        double d = w.frequencies[i] - mean;
        total += w.probability * d * d;
      }
    }
  }
  return total;
}

void PushOneAtATime(StreamingHistogramBuilder& builder,
                    std::span<const ValuePdf> items) {
  for (const ValuePdf& pdf : items) builder.PushBatch({&pdf, 1});
}

namespace {

template <typename Input>
StatusOr<SynopsisResult> BuildHistogramImpl(const Input& input,
                                            const SynopsisOptions& options,
                                            std::size_t budget,
                                            HistogramMethod method,
                                            double epsilon) {
  static const SynopsisEngine engine({.parallelism = 1});
  SynopsisRequest request;
  request.budget = budget;
  request.options = options;
  request.method = method;
  request.epsilon = epsilon;
  return engine.Build(input, request);
}

}  // namespace

StatusOr<SynopsisResult> BuildHistogram(const ValuePdfInput& input,
                                        const SynopsisOptions& options,
                                        std::size_t budget,
                                        HistogramMethod method,
                                        double epsilon) {
  return BuildHistogramImpl(input, options, budget, method, epsilon);
}

StatusOr<SynopsisResult> BuildHistogram(const TuplePdfInput& input,
                                        const SynopsisOptions& options,
                                        std::size_t budget,
                                        HistogramMethod method,
                                        double epsilon) {
  return BuildHistogramImpl(input, options, budget, method, epsilon);
}

std::vector<SimdPath> SupportedSimdPaths() {
  std::vector<SimdPath> paths{SimdPath::kScalar};
  for (SimdPath wide : {SimdPath::kAvx2, SimdPath::kAvx512}) {
    ScopedSimdPath forced(wide);
    if (forced.active() == wide) paths.push_back(wide);
  }
  return paths;
}

}  // namespace probsyn::testing
