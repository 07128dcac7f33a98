#include "core/baselines.h"

#include "core/histogram_dp.h"
#include "core/oracle_factory.h"
#include "model/worlds.h"

namespace probsyn {

std::vector<double> ExpectationFrequencies(const ValuePdfInput& input) {
  return input.ExpectedFrequencies();
}

std::vector<double> ExpectationFrequencies(const TuplePdfInput& input) {
  return input.ExpectedFrequencies();
}

std::vector<double> SampleWorldFrequencies(const ValuePdfInput& input,
                                           Rng& rng) {
  return ValuePdfWorldSampler(input).Sample(rng);
}

std::vector<double> SampleWorldFrequencies(const TuplePdfInput& input,
                                           Rng& rng) {
  return TuplePdfWorldSampler(input).Sample(rng);
}

namespace {

// The optimal histogram of deterministic frequencies: the exact DP over
// their point-mass form.
StatusOr<Histogram> DeterministicHistogram(std::span<const double> freqs,
                                           const SynopsisOptions& options,
                                           std::size_t num_buckets) {
  if (num_buckets < 1) return Status::InvalidArgument("need >= 1 bucket");
  PROBSYN_ASSIGN_OR_RETURN(OracleBundle bundle,
                           MakeBucketOracle(PointMassInput(freqs), options));
  HistogramDpResult dp =
      SolveHistogramDp(*bundle.oracle, num_buckets, bundle.combiner);
  PROBSYN_RETURN_IF_ERROR(dp.status());
  return dp.ExtractHistogram(num_buckets);
}

}  // namespace

StatusOr<Histogram> BuildExpectationHistogram(const ValuePdfInput& input,
                                              const SynopsisOptions& options,
                                              std::size_t num_buckets) {
  return DeterministicHistogram(ExpectationFrequencies(input), options,
                                num_buckets);
}

StatusOr<Histogram> BuildExpectationHistogram(const TuplePdfInput& input,
                                              const SynopsisOptions& options,
                                              std::size_t num_buckets) {
  return DeterministicHistogram(ExpectationFrequencies(input), options,
                                num_buckets);
}

StatusOr<Histogram> BuildSampledWorldHistogram(const ValuePdfInput& input,
                                               const SynopsisOptions& options,
                                               std::size_t num_buckets,
                                               Rng& rng) {
  return DeterministicHistogram(SampleWorldFrequencies(input, rng), options,
                                num_buckets);
}

StatusOr<Histogram> BuildSampledWorldHistogram(const TuplePdfInput& input,
                                               const SynopsisOptions& options,
                                               std::size_t num_buckets,
                                               Rng& rng) {
  return DeterministicHistogram(SampleWorldFrequencies(input, rng), options,
                                num_buckets);
}

namespace {

// Shared equi-depth construction: boundaries from expected-mass quantiles,
// representatives from the metric's bucket oracle.
template <typename Input>
StatusOr<Histogram> EquiDepthImpl(const Input& input,
                                  const SynopsisOptions& options,
                                  std::size_t num_buckets) {
  if (num_buckets < 1) return Status::InvalidArgument("need >= 1 bucket");
  auto bundle = MakeBucketOracle(input, options);
  if (!bundle.ok()) return bundle.status();
  const std::size_t n = input.domain_size();
  num_buckets = std::min(num_buckets, n);

  std::vector<double> mean = input.ExpectedFrequencies();
  double total = 0.0;
  for (double m : mean) total += m;

  std::vector<HistogramBucket> buckets;
  buckets.reserve(num_buckets);
  double mass = 0.0;
  std::size_t start = 0;
  for (std::size_t i = 0; i < n; ++i) {
    mass += mean[i];
    std::size_t remaining_items = n - i - 1;
    std::size_t remaining_buckets = num_buckets - buckets.size() - 1;
    double target = total * static_cast<double>(buckets.size() + 1) /
                    static_cast<double>(num_buckets);
    bool close_here =
        (mass >= target && remaining_buckets > 0) ||
        remaining_items == remaining_buckets || i + 1 == n;
    if (close_here) {
      buckets.push_back({start, i, 0.0});
      start = i + 1;
      if (buckets.size() == num_buckets) break;
    }
  }
  // Guard against pathological mass distributions leaving a tail.
  if (buckets.empty() || buckets.back().end != n - 1) {
    if (!buckets.empty() && buckets.back().end + 1 <= n - 1) {
      buckets.push_back({buckets.back().end + 1, n - 1, 0.0});
    } else if (buckets.empty()) {
      buckets.push_back({0, n - 1, 0.0});
    }
  }
  for (HistogramBucket& b : buckets) {
    b.representative = bundle->oracle->Cost(b.start, b.end).representative;
  }
  Histogram histogram(std::move(buckets));
  PROBSYN_RETURN_IF_ERROR(histogram.Validate(n));
  return histogram;
}

}  // namespace

StatusOr<Histogram> BuildEquiDepthHistogram(const ValuePdfInput& input,
                                            const SynopsisOptions& options,
                                            std::size_t num_buckets) {
  return EquiDepthImpl(input, options, num_buckets);
}

StatusOr<Histogram> BuildEquiDepthHistogram(const TuplePdfInput& input,
                                            const SynopsisOptions& options,
                                            std::size_t num_buckets) {
  return EquiDepthImpl(input, options, num_buckets);
}

StatusOr<WaveletSynopsis> BuildSampledWorldWavelet(
    const ValuePdfInput& input, std::size_t num_coefficients, Rng& rng) {
  PROBSYN_RETURN_IF_ERROR(input.Validate());
  if (input.domain_size() == 0) {
    return Status::InvalidArgument("empty domain");
  }
  return BuildSseWaveletFromFrequencies(SampleWorldFrequencies(input, rng),
                                        num_coefficients);
}

StatusOr<WaveletSynopsis> BuildSampledWorldWavelet(
    const TuplePdfInput& input, std::size_t num_coefficients, Rng& rng) {
  PROBSYN_RETURN_IF_ERROR(input.Validate());
  if (input.domain_size() == 0) {
    return Status::InvalidArgument("empty domain");
  }
  return BuildSseWaveletFromFrequencies(SampleWorldFrequencies(input, rng),
                                        num_coefficients);
}

}  // namespace probsyn
