#include "core/metrics.h"

#include <cmath>

#include "util/math.h"

namespace probsyn {

bool IsCumulativeMetric(ErrorMetric metric) {
  switch (metric) {
    case ErrorMetric::kSse:
    case ErrorMetric::kSsre:
    case ErrorMetric::kSae:
    case ErrorMetric::kSare:
      return true;
    case ErrorMetric::kMae:
    case ErrorMetric::kMare:
      return false;
  }
  return true;
}

bool IsRelativeMetric(ErrorMetric metric) {
  switch (metric) {
    case ErrorMetric::kSsre:
    case ErrorMetric::kSare:
    case ErrorMetric::kMare:
      return true;
    case ErrorMetric::kSse:
    case ErrorMetric::kSae:
    case ErrorMetric::kMae:
      return false;
  }
  return false;
}

const char* ErrorMetricName(ErrorMetric metric) {
  switch (metric) {
    case ErrorMetric::kSse:
      return "SSE";
    case ErrorMetric::kSsre:
      return "SSRE";
    case ErrorMetric::kSae:
      return "SAE";
    case ErrorMetric::kSare:
      return "SARE";
    case ErrorMetric::kMae:
      return "MAE";
    case ErrorMetric::kMare:
      return "MARE";
  }
  return "?";
}

StatusOr<ErrorMetric> ParseErrorMetric(const std::string& name) {
  if (name == "SSE") return ErrorMetric::kSse;
  if (name == "SSRE") return ErrorMetric::kSsre;
  if (name == "SAE") return ErrorMetric::kSae;
  if (name == "SARE") return ErrorMetric::kSare;
  if (name == "MAE") return ErrorMetric::kMae;
  if (name == "MARE") return ErrorMetric::kMare;
  return Status::InvalidArgument("unknown error metric: " + name);
}

double PointError(ErrorMetric metric, double g, double ghat, double c) {
  double diff = g - ghat;
  switch (metric) {
    case ErrorMetric::kSse:
      return diff * diff;
    case ErrorMetric::kSsre:
      return diff * diff * SquaredRelativeWeight(g, c);
    case ErrorMetric::kSae:
      return std::fabs(diff);
    case ErrorMetric::kSare:
      return std::fabs(diff) * RelativeWeight(g, c);
    case ErrorMetric::kMae:
      return std::fabs(diff);
    case ErrorMetric::kMare:
      return std::fabs(diff) * RelativeWeight(g, c);
  }
  return 0.0;
}

Status SynopsisOptions::Validate() const {
  if (IsRelativeMetric(metric) && !(sanity_c > 0.0)) {
    return Status::InvalidArgument(
        "relative-error metrics require a positive sanity constant c");
  }
  if (HasWorkload()) {
    double total = 0.0;
    for (double w : workload) {
      if (!std::isfinite(w) || w < 0.0) {
        return Status::InvalidArgument(
            "workload weights must be finite and nonnegative");
      }
      total += w;
    }
    if (!(total > 0.0)) {
      return Status::InvalidArgument(
          "workload must have at least one positive weight");
    }
    if (metric == ErrorMetric::kSse && sse_variant == SseVariant::kWorldMean) {
      return Status::Unimplemented(
          "workload weights are not defined for the world-mean SSE variant; "
          "use SseVariant::kFixedRepresentative");
    }
  }
  return Status::OK();
}

}  // namespace probsyn
