// Pins the support-indexed PointErrorTables bit for bit against the dense
// grid-indexed tables they replaced (reference::DensePointErrorTables):
// every point error, every line of the absolute-error curves, and the
// histogram and wavelet evaluators built on them, over a seeded sweep of
// domain sizes, support sizes, sanity constants and estimates.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluate.h"
#include "core/point_error.h"
#include "reference/reference_solvers.h"
#include "util/math.h"
#include "util/random.h"

namespace probsyn {
namespace {

constexpr ErrorMetric kAllMetrics[] = {
    ErrorMetric::kSse, ErrorMetric::kSsre, ErrorMetric::kSae,
    ErrorMetric::kSare, ErrorMetric::kMae, ErrorMetric::kMare};

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// A double spelled with every digit it carries.
std::string Exact(double x) {
  char text[32];
  std::snprintf(text, sizeof(text), "%.17g", x);
  return text;
}

// Counts bitwise mismatches and keeps the first few descriptions, so one
// broken sweep reports a handful of cases instead of a million lines. The
// description is built only for a mismatch.
class Mismatches {
 public:
  template <typename Where>
  void Check(double got, double want, const Where& where) {
    if (Bits(got) != Bits(want)) {
      Record(Exact(got), Exact(want), where);
    }
  }
  template <typename Where>
  void CheckIndex(std::size_t got, std::size_t want, const Where& where) {
    if (got != want) Record(std::to_string(got), std::to_string(want), where);
  }
  std::size_t count() const { return count_; }
  const std::string& first() const { return first_; }

 private:
  template <typename Where>
  void Record(const std::string& got, const std::string& want,
              const Where& where) {
    if (++count_ <= 5) {
      first_ += where() + ": got " + got + " want " + want + "\n";
    }
  }

  std::size_t count_ = 0;
  std::string first_;
};

// n items over a value set of `num_values` points: 0, then increasing
// non-integers. Each item takes 1 to all of the points (every seventh item
// all of them, every fifth a single one) with random probabilities; odd
// items spell a chosen zero as -0.0.
ValuePdfInput SweepInput(std::size_t n, std::size_t num_values, Rng& rng) {
  std::vector<double> values = {0.0};
  while (values.size() < num_values) {
    values.push_back(values.back() + rng.NextUniform(0.01, 3.0));
  }
  std::vector<std::size_t> order(num_values);
  std::vector<ValuePdf> items;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t support = 1 + rng.NextBounded(num_values);
    if (i % 7 == 0) support = num_values;
    if (i % 5 == 1) support = 1;
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t k = 0; k < support; ++k) {  // partial Fisher-Yates
      std::swap(order[k], order[k + rng.NextBounded(num_values - k)]);
    }
    std::vector<ValueProb> entries;
    double total = 0.0;
    for (std::size_t k = 0; k < support; ++k) {
      const double value = values[order[k]];
      entries.push_back({value == 0.0 && i % 2 == 1 ? -0.0 : value,
                         rng.NextUniform(0.05, 1.0)});
      total += entries.back().probability;
    }
    for (ValueProb& e : entries) e.probability /= total;
    auto pdf = ValuePdf::Create(std::move(entries));
    EXPECT_TRUE(pdf.ok()) << pdf.status();
    items.push_back(std::move(pdf).value());
  }
  return ValuePdfInput(std::move(items));
}

// Estimates on every grid point and its neighbouring doubles, between grid
// points, below the grid and above it, and both zeros.
std::vector<double> Estimates(const std::vector<double>& grid) {
  std::vector<double> out = {0.0, -0.0, -1.0, -1e-300, -0.5 * grid.back(),
                             grid.back() + 1.0, 2.0 * grid.back() + 3.0,
                             1e300};
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t l = 0; l < grid.size(); ++l) {
    out.push_back(grid[l]);
    out.push_back(std::nextafter(grid[l], -inf));
    out.push_back(std::nextafter(grid[l], inf));
    if (l + 1 < grid.size()) out.push_back(0.5 * (grid[l] + grid[l + 1]));
  }
  return out;
}

// Every answer `tables` gives for `metric` against the dense reference.
void CompareAnswers(const PointErrorTables& tables,
                    const reference::DensePointErrorTables& dense,
                    ErrorMetric metric, const std::string& label,
                    Mismatches& mismatches) {
  const std::vector<double> estimates = Estimates(dense.grid());
  for (std::size_t i = 0; i < dense.domain_size(); ++i) {
    for (double v : estimates) {
      mismatches.Check(
          tables.ExpectedPointError(metric, i, v),
          dense.ExpectedPointError(metric, i, v), [&] {
            return label + " " + ErrorMetricName(metric) + " item " +
                   std::to_string(i) + " v=" + Exact(v);
          });
    }
  }
  // The max-error oracle's grid probes and lines, which MAE/MARE builds
  // carry.
  if (metric != ErrorMetric::kMae && metric != ErrorMetric::kMare) return;
  const bool relative = metric == ErrorMetric::kMare;
  const std::size_t k = dense.grid().size();
  for (double v : estimates) {
    mismatches.CheckIndex(tables.SegmentOf(v), dense.SegmentOf(v), [&] {
      return label + " SegmentOf v=" + Exact(v);
    });
  }
  for (std::size_t i = 0; i < dense.domain_size(); ++i) {
    for (std::size_t l = static_cast<std::size_t>(-1); l + 1 <= k; ++l) {
      const Line got = tables.AbsoluteErrorLine(i, l, relative);
      const Line want = dense.AbsoluteErrorLine(i, l, relative);
      auto where = [&] {
        return label + " line item " + std::to_string(i) + " l=" +
               std::to_string(l) + (relative ? " relative" : "");
      };
      mismatches.Check(got.slope, want.slope, where);
      mismatches.Check(got.intercept, want.intercept, where);
    }
  }
}

struct SweepCase {
  std::size_t n;
  std::size_t num_values;
};

constexpr SweepCase kSweep[] = {{1, 1}, {1, 5},  {2, 1},  {2, 3},
                                {3, 2}, {3, 7},  {1000, 40}};
constexpr double kSanity[] = {0.25, 1.0, 7.0};

TEST(PointErrorTablesParity, AnswersMatchDenseTablesBitwise) {
  Mismatches mismatches;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const SweepCase& sweep : kSweep) {
      Rng rng(seed * 7919 + sweep.n * 31 + sweep.num_values);
      const ValuePdfInput input = SweepInput(sweep.n, sweep.num_values, rng);
      for (double c : kSanity) {
        const std::string label = "seed " + std::to_string(seed) + " n=" +
                                  std::to_string(sweep.n) + " |V|=" +
                                  std::to_string(sweep.num_values) +
                                  " c=" + std::to_string(c);
        // Each metric's own build, over the input and over its padded
        // power-of-two domain (zero items past the input).
        for (std::size_t domain : {sweep.n, NextPowerOfTwo(sweep.n)}) {
          const reference::DensePointErrorTables padded(input, c, domain);
          for (ErrorMetric metric : kAllMetrics) {
            const PointErrorTables scoped(input, c, metric, domain);
            ASSERT_TRUE(scoped.preprocess_status().ok());
            ASSERT_EQ(scoped.domain_size(), domain);
            ASSERT_TRUE(scoped.Covers(metric));
            if (!IsCumulativeMetric(metric)) {
              ASSERT_EQ(scoped.grid(), padded.grid()) << label;
            }
            CompareAnswers(scoped, padded, metric,
                           label + " domain " + std::to_string(domain),
                           mismatches);
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches.count(), 0u) << mismatches.first();
}

// A histogram over [0, n) with random cuts and representatives on grid
// points, between them, below, above and at both zeros.
Histogram RandomHistogram(std::size_t n, const std::vector<double>& grid,
                          Rng& rng) {
  const std::vector<double> estimates = Estimates(grid);
  std::vector<HistogramBucket> buckets;
  std::size_t start = 0;
  while (start < n) {
    const std::size_t width = 1 + rng.NextBounded(std::min<std::size_t>(
                                      n - start, 1 + n / 8));
    buckets.push_back({start, start + width - 1,
                       estimates[rng.NextBounded(estimates.size())]});
    start += width;
  }
  return Histogram(std::move(buckets));
}

// Up to 12 random coefficients over the power-of-two transform domain.
WaveletSynopsis RandomWavelet(std::size_t n, Rng& rng) {
  const std::size_t transform = NextPowerOfTwo(n);
  std::vector<WaveletCoefficient> coefficients;
  for (std::size_t index = 0; index < transform; ++index) {
    if (rng.NextBounded(transform) < 12) {
      coefficients.push_back({index, rng.NextUniform(-20.0, 40.0)});
    }
  }
  return WaveletSynopsis(n, transform, std::move(coefficients));
}

TEST(PointErrorTablesParity, EvaluatorsMatchDenseTablesBitwise) {
  Mismatches mismatches;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const SweepCase& sweep : kSweep) {
      Rng rng(seed * 104729 + sweep.n * 17 + sweep.num_values);
      const ValuePdfInput input = SweepInput(sweep.n, sweep.num_values, rng);
      const Histogram histogram =
          RandomHistogram(sweep.n, input.ValueGrid(), rng);
      const WaveletSynopsis wavelet = RandomWavelet(sweep.n, rng);
      ASSERT_TRUE(histogram.Validate(sweep.n).ok());
      ASSERT_TRUE(wavelet.Validate().ok());
      std::vector<double> workload(sweep.n);
      for (double& w : workload) {
        w = rng.NextBounded(4) == 0 ? 0.0 : rng.NextUniform(0.1, 3.0);
      }
      workload[0] = 1.0;  // at least one positive weight
      for (double c : kSanity) {
        const reference::DensePointErrorTables dense(input, c);
        for (ErrorMetric metric : kAllMetrics) {
          for (bool weighted : {false, true}) {
            SynopsisOptions options;
            options.metric = metric;
            options.sanity_c = c;
            options.sse_variant = SseVariant::kFixedRepresentative;
            if (weighted) options.workload = workload;
            const std::string label =
                "seed " + std::to_string(seed) + " n=" +
                std::to_string(sweep.n) + " c=" + std::to_string(c) + " " +
                ErrorMetricName(metric) + (weighted ? " weighted" : "");

            auto cost = EvaluateHistogram(input, histogram, options);
            ASSERT_TRUE(cost.ok()) << cost.status();
            mismatches.Check(*cost,
                             reference::EvaluateHistogramDense(
                                 dense, histogram, metric, options.workload),
                             [&] { return label + " histogram"; });

            auto wavelet_cost = EvaluateWavelet(input, wavelet, options);
            ASSERT_TRUE(wavelet_cost.ok()) << wavelet_cost.status();
            mismatches.Check(
                *wavelet_cost,
                reference::EvaluateWaveletDense(input, wavelet, options),
                [&] { return label + " wavelet"; });
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches.count(), 0u) << mismatches.first();
}

}  // namespace
}  // namespace probsyn
