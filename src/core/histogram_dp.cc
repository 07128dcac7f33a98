#include "core/histogram_dp.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace probsyn {

const char* DpKernelKindName(DpKernelKind kind) {
  switch (kind) {
    case DpKernelKind::kGeneric: return "generic";
    case DpKernelKind::kSseMoment: return "sse-moment";
    case DpKernelKind::kSsre: return "ssre";
    case DpKernelKind::kAbsCumulative: return "abs-cumulative";
    case DpKernelKind::kMaxError: return "max-error";
    case DpKernelKind::kTupleSse: return "tuple-sse";
  }
  return "?";
}

double HistogramDpResult::OptimalCost(std::size_t num_buckets) const {
  PROBSYN_CHECK(num_buckets >= 1 && n_ > 0);
  std::size_t b = std::min(num_buckets, cap_);
  return err_[(b - 1) * n_ + (n_ - 1)];
}

std::span<const double> HistogramDpResult::ErrorRow(
    std::size_t num_buckets) const {
  PROBSYN_CHECK(num_buckets >= 1 && num_buckets <= cap_);
  return {err_ + (num_buckets - 1) * n_, n_};
}

std::span<const std::int64_t> HistogramDpResult::ChoiceRow(
    std::size_t num_buckets) const {
  PROBSYN_CHECK(num_buckets >= 1 && num_buckets <= cap_);
  return {choice_ + (num_buckets - 1) * n_, n_};
}

std::span<const double> HistogramDpResult::RepresentativeRow(
    std::size_t num_buckets) const {
  PROBSYN_CHECK(num_buckets >= 1 && num_buckets <= cap_);
  return {rep_ + (num_buckets - 1) * n_, n_};
}

Histogram HistogramDpResult::ExtractHistogram(std::size_t num_buckets) const {
  PROBSYN_CHECK(num_buckets >= 1);
  // An empty domain has exactly one histogram: the empty one (the only
  // partition of [0], and the only Histogram that Validate(0) accepts).
  // Normalize to it instead of walking tables that were never filled.
  if (n_ == 0) return Histogram();
  // A stopped or failed solve leaves the traceback tables partial (or, with
  // a reused workspace, holding a PREVIOUS solve's data). Walking them
  // could chase garbage split indices into a CHECK abort — or worse, stitch
  // together a plausible-looking wrong histogram. Serve the unambiguous
  // empty histogram instead; callers honoring the documented contract
  // (check status() first) never reach this.
  if (!status_.ok()) return Histogram(std::vector<HistogramBucket>{});
  std::size_t layer = std::min(num_buckets, cap_);
  std::vector<HistogramBucket> buckets;
  std::size_t j = n_ - 1;
  for (;;) {
    std::int64_t c = choice_[(layer - 1) * n_ + j];
    if (c == kInheritChoice) {
      PROBSYN_CHECK(layer > 1);
      --layer;
      continue;
    }
    // The representative was cached alongside the choice during the DP's
    // cost sweeps, so extraction never calls back into the oracle.
    if (c == kWholePrefix) {
      buckets.push_back({0, j, rep_[(layer - 1) * n_ + j]});
      break;
    }
    std::size_t l = static_cast<std::size_t>(c);
    buckets.push_back({l + 1, j, rep_[(layer - 1) * n_ + j]});
    j = l;
    PROBSYN_CHECK(layer > 1);
    --layer;
  }
  std::reverse(buckets.begin(), buckets.end());
  return Histogram(std::move(buckets));
}

}  // namespace probsyn
