#include <algorithm>
#include <limits>

#include "reference/reference_solvers.h"
#include "util/logging.h"
#include "util/math.h"

namespace probsyn::reference {

StreamingBuilder::StreamingBuilder(std::size_t max_buckets, double epsilon)
    : max_buckets_(std::max<std::size_t>(1, max_buckets)),
      delta_(std::min(0.5, std::max(epsilon, 1e-9) /
                               (2.0 * static_cast<double>(max_buckets_)))),
      layers_(max_buckets_) {}

double StreamingBuilder::BucketCost(const Snapshot& from, const Snapshot& to) {
  const double width = static_cast<double>(to.position - from.position);
  const double mean = to.sum_mean - from.sum_mean;
  const double second = to.sum_second - from.sum_second;
  return ClampTinyNegative(second - mean * mean / width, 1e-6);
}

void StreamingBuilder::Push(const ValuePdf& pdf) {
  ++count_;
  running_.position = count_;
  running_.sum_mean += pdf.Mean();
  running_.sum_second += pdf.SecondMoment();

  // Evaluate every layer at the current position against the PREVIOUS
  // pendings and breakpoints (all at positions <= count_ - 1).
  struct Eval {
    double error = std::numeric_limits<double>::infinity();
    std::vector<Snapshot> boundaries;
  };
  std::vector<Eval> evals(max_buckets_);
  evals[0].error = BucketCost(Snapshot(), running_);
  for (std::size_t b = 2; b <= max_buckets_; ++b) {
    Eval best;
    auto consider = [&](const Breakpoint& candidate) {
      if (candidate.at.position >= count_) return;  // empty last bucket
      const double err = candidate.error + BucketCost(candidate.at, running_);
      if (err < best.error) {
        best.error = err;
        best.boundaries = candidate.boundaries;
        best.boundaries.push_back(candidate.at);
      }
    };
    const Layer& prev = layers_[b - 2];
    for (const Breakpoint& candidate : prev.committed) consider(candidate);
    if (prev.has_pending) consider(prev.pending);
    // "At most b" inheritance keeps layers monotone.
    if (evals[b - 2].error < best.error) best = evals[b - 2];
    evals[b - 1] = std::move(best);
  }

  // Last-position-of-class rule: commit the previous pending when the
  // error outgrows its geometric class.
  for (std::size_t b = 1; b <= max_buckets_; ++b) {
    Layer& layer = layers_[b - 1];
    const Eval& eval = evals[b - 1];
    if (layer.has_pending &&
        (eval.error > (1.0 + delta_) * layer.class_base ||
         (layer.class_base == 0.0 && eval.error > 0.0))) {
      layer.committed.push_back(layer.pending);
      layer.class_base = eval.error;
    }
    if (!layer.has_pending) layer.class_base = eval.error;
    layer.pending = {running_, eval.error, eval.boundaries};
    layer.has_pending = true;
  }
  peak_breakpoints_ = std::max(peak_breakpoints_, breakpoints());
}

std::size_t StreamingBuilder::breakpoints() const {
  std::size_t total = 0;
  for (const Layer& layer : layers_) {
    total += layer.committed.size() + (layer.has_pending ? 1 : 0);
  }
  return total;
}

StatusOr<StreamingHistogramBuilder::Result> StreamingBuilder::Finish() const {
  if (count_ == 0) return Status::FailedPrecondition("empty stream");
  // The top layer's pending is E_B at the final position, with its chain.
  std::vector<Snapshot> cuts = layers_[max_buckets_ - 1].pending.boundaries;
  cuts.push_back(running_);
  std::vector<HistogramBucket> buckets;
  Snapshot prev;  // origin
  double total = 0.0;
  for (const Snapshot& cut : cuts) {
    PROBSYN_CHECK(cut.position > prev.position);
    const double width = static_cast<double>(cut.position - prev.position);
    buckets.push_back({prev.position, cut.position - 1,
                       (cut.sum_mean - prev.sum_mean) / width});
    total += BucketCost(prev, cut);
    prev = cut;
  }
  StreamingHistogramBuilder::Result result;
  result.histogram = Histogram(std::move(buckets));
  result.cost = total;
  result.peak_breakpoints = peak_breakpoints_;
  PROBSYN_RETURN_IF_ERROR(result.histogram.Validate(count_));
  return result;
}

}  // namespace probsyn::reference
