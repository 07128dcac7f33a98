// Runtime-dispatched SIMD min-reductions (core/dp_kernels.h): every path
// the build and CPU support (scalar / AVX2 / AVX-512) must produce
// bit-identical results — raw primitives on adversarial FP columns, and
// end-to-end through every DP family that consumes them. CI runs this
// binary three times: under native dispatch and with the PROBSYN_SIMD=scalar
// and PROBSYN_SIMD=avx2 overrides, so the scalar fallback and the AVX2 path
// stay honest on machines where native dispatch never picks them.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/dp_kernels.h"
#include "core/histogram_dp.h"
#include "core/oracle_factory.h"
#include "core/wavelet_dp.h"
#include "engine/synopsis_engine.h"
#include "gen/generators.h"
#include "stream/streaming_histogram.h"
#include "util/logging.h"
#include "util/random.h"
#include "test_util.h"

namespace probsyn {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The force-and-restore helper and supported-path probe live in
// test_util.h so the parallel-wavelet determinism tests share them.
using testing::ScopedSimdPath;

std::vector<SimdPath> SupportedPaths() { return testing::SupportedSimdPaths(); }

// Adversarial FP columns: denormals, infinities, ten-orders-of-magnitude
// mixes, exact ties, and negatives — everything except NaN, which the
// cost arrays never contain (documented precondition).
std::vector<double> AdversarialColumn(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.NextBounded(8)) {
      case 0: out[i] = kInf; break;
      case 1: out[i] = 5e-324; break;  // smallest denormal
      case 2: out[i] = 1e300 * rng.NextDouble(); break;
      case 3: out[i] = 1e-300 * rng.NextDouble(); break;
      case 4: out[i] = 0.0; break;
      case 5: out[i] = -rng.NextDouble(); break;
      case 6: out[i] = 1.0; break;  // exact-tie fodder
      default: out[i] = rng.NextDouble(); break;
    }
  }
  return out;
}

TEST(SimdDispatch, ScalarIsAlwaysForceable) {
  ScopedSimdPath forced(SimdPath::kScalar);
  EXPECT_EQ(forced.active(), SimdPath::kScalar);
  EXPECT_EQ(ActiveSimdPath(), SimdPath::kScalar);
}

TEST(SimdDispatch, NamesAreStable) {
  EXPECT_STREQ(SimdPathName(SimdPath::kScalar), "scalar");
  EXPECT_STREQ(SimdPathName(SimdPath::kAvx2), "avx2");
  EXPECT_STREQ(SimdPathName(SimdPath::kAvx512), "avx512");
}

// Lengths cross every unroll width (4/8/16/32) and the 512-entry chunk.
const std::size_t kLengths[] = {0,  1,  2,  3,   4,   5,   7,    8,
                                9,  15, 16, 17,  31,  32,  33,   63,
                                64, 65, 511, 512, 513, 1024, 2000};

TEST(SimdDispatch, PrimitivesMatchScalarOnAdversarialColumns) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    std::vector<double> a = AdversarialColumn(2048, seed);
    std::vector<double> b = AdversarialColumn(2048, seed + 100);
    for (std::size_t n : kLengths) {
      // Scalar ground truth.
      double want_const, want_pairs, want_rev, want_max, want_arr;
      {
        ScopedSimdPath forced(SimdPath::kScalar);
        want_const = SimdMinPlusConst(a.data(), n, 0.25);
        want_pairs = SimdMinPlusPairs(a.data(), b.data(), n);
        want_rev = SimdMinPlusReverse(a.data(), b.data() + n, n);
        want_max = SimdMinMaxPairs(a.data(), b.data(), n);
        want_arr = SimdMinArray(a.data(), n);
      }
      if (n == 0) {
        EXPECT_EQ(want_arr, kInf);
        EXPECT_EQ(want_pairs, kInf);
      }
      for (SimdPath path : SupportedPaths()) {
        ScopedSimdPath forced(path);
        EXPECT_EQ(SimdMinPlusConst(a.data(), n, 0.25), want_const)
            << SimdPathName(path) << " n=" << n << " seed=" << seed;
        EXPECT_EQ(SimdMinPlusPairs(a.data(), b.data(), n), want_pairs)
            << SimdPathName(path) << " n=" << n << " seed=" << seed;
        EXPECT_EQ(SimdMinPlusReverse(a.data(), b.data() + n, n), want_rev)
            << SimdPathName(path) << " n=" << n << " seed=" << seed;
        EXPECT_EQ(SimdMinMaxPairs(a.data(), b.data(), n), want_max)
            << SimdPathName(path) << " n=" << n << " seed=" << seed;
        EXPECT_EQ(SimdMinArray(a.data(), n), want_arr)
            << SimdPathName(path) << " n=" << n << " seed=" << seed;
      }
    }
  }
}

// The fused columns are compared element by element on the bit pattern;
// only the returned minimum may differ in the sign of a +-0.0 tie.
std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// A cost the fused kernels must reproduce: ordinary, tiny negative (the
// scalar evaluators clamp (-1e-6, 0) to zero), or negative past the
// clamp.
double TargetCost(Rng& rng) {
  switch (rng.NextBounded(4)) {
    case 0: return -1e-7 * (1.0 + 8.0 * rng.NextDouble());
    case 1: return -1e-3 * (1.0 + rng.NextDouble());
    case 2: return 0.0;
    default: return 5.0 * rng.NextDouble();
  }
}

// Gathered prefix rows of SimdApproxQuadColumn whose costs hit every
// branch of the scalar evaluator, including degenerate buckets
// (sum_c <= 0). With `with_v`, the cost targets include the v term.
struct QuadColumns {
  std::vector<double> prev, a, b, c, v;
  double a_hi = 40.0, b_hi = 7.0, c_hi = 3.0, v_hi = 11.0;
};

QuadColumns MakeQuadColumns(std::size_t n, bool with_v, std::uint64_t seed) {
  Rng rng(seed);
  QuadColumns q;
  for (std::size_t i = 0; i < n; ++i) {
    q.prev.push_back(rng.NextBounded(4) == 0 ? 1.0 : 10.0 * rng.NextDouble());
    double sum_c = 0.25 + 2.0 * rng.NextDouble();
    switch (rng.NextBounded(8)) {
      case 0: sum_c = 0.0; break;
      case 1: sum_c = -rng.NextDouble(); break;
      default: break;
    }
    const double sum_b = 4.0 * rng.NextDouble() - 2.0;
    const double var = rng.NextDouble();
    const double esos = sum_b * sum_b + (with_v ? var : 0.0);
    const double sum_a = sum_c > 0.0 ? esos / sum_c + TargetCost(rng)
                                     : rng.NextDouble();
    q.a.push_back(q.a_hi - sum_a);
    q.b.push_back(q.b_hi - sum_b);
    q.c.push_back(q.c_hi - sum_c);
    q.v.push_back(q.v_hi - var);
  }
  return q;
}

TEST(SimdDispatch, ApproxQuadColumnMatchesScalarBitwise) {
  for (bool with_v : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const QuadColumns q = MakeQuadColumns(2048, with_v, seed);
      const double* v = with_v ? q.v.data() : nullptr;
      for (std::size_t n : kLengths) {
        std::vector<double> want(n);
        double want_min;
        {
          ScopedSimdPath forced(SimdPath::kScalar);
          want_min = SimdApproxQuadColumn(q.prev.data(), q.a.data(),
                                          q.b.data(), q.c.data(), v, n,
                                          q.a_hi, q.b_hi, q.c_hi, q.v_hi,
                                          want.data());
        }
        for (double x : want) ASSERT_FALSE(std::isnan(x));
        for (SimdPath path : SupportedPaths()) {
          ScopedSimdPath forced(path);
          std::vector<double> got(n);
          const double got_min = SimdApproxQuadColumn(
              q.prev.data(), q.a.data(), q.b.data(), q.c.data(), v, n,
              q.a_hi, q.b_hi, q.c_hi, q.v_hi, got.data());
          EXPECT_EQ(got_min, want_min) << SimdPathName(path) << " n=" << n;
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(Bits(got[i]), Bits(want[i]))
                << SimdPathName(path) << " v=" << with_v << " n=" << n
                << " i=" << i;
          }
        }
      }
    }
  }
}

// Committed-breakpoint columns of SimdStreamingMergeColumn: candidates
// before the current position with every cost class, plus candidates at
// or past it (width <= 0), which the kernel must mask to +infinity.
TEST(SimdDispatch, StreamingMergeColumnMatchesScalarBitwise) {
  const double count = 3000.0;
  const double total_mean = 900.0;
  const double total_second = 5000.0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    std::vector<double> error, sum_mean, sum_second, position;
    for (std::size_t i = 0; i < 2048; ++i) {
      double pos = static_cast<double>(rng.NextBounded(3000));
      if (rng.NextBounded(8) == 0) pos = count + rng.NextBounded(3);
      const double mean = 300.0 * rng.NextDouble();
      const double width = count - pos;
      const double second =
          width > 0.0 ? mean * mean / width + TargetCost(rng) : 1.0;
      error.push_back(rng.NextBounded(4) == 0 ? 1.0 : 10.0 * rng.NextDouble());
      sum_mean.push_back(total_mean - mean);
      sum_second.push_back(total_second - second);
      position.push_back(pos);
    }
    for (std::size_t n : kLengths) {
      std::vector<double> want(n);
      double want_min;
      {
        ScopedSimdPath forced(SimdPath::kScalar);
        want_min = SimdStreamingMergeColumn(
            error.data(), sum_mean.data(), sum_second.data(), position.data(),
            n, count, total_mean, total_second, want.data());
      }
      for (double x : want) ASSERT_FALSE(std::isnan(x));
      for (SimdPath path : SupportedPaths()) {
        ScopedSimdPath forced(path);
        std::vector<double> got(n);
        const double got_min = SimdStreamingMergeColumn(
            error.data(), sum_mean.data(), sum_second.data(), position.data(),
            n, count, total_mean, total_second, got.data());
        EXPECT_EQ(got_min, want_min) << SimdPathName(path) << " n=" << n;
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(Bits(got[i]), Bits(want[i]))
              << SimdPathName(path) << " n=" << n << " i=" << i;
        }
      }
    }
  }
}

// Inputs of SimdStreamingBatchSweep built as dp_kernels.h requires:
// candidate positions before count0, neg_position = -position, and
// recips[w] = 1/w for every width up to count0 + num_pushes - 1. The
// moments are prefix sums of a stream, so raw costs are segment SSEs.
struct SweepInputs {
  std::size_t count0 = 0;
  std::vector<double> error, sum_mean, sum_second, position;
  std::vector<std::int64_t> neg_position;
  std::vector<double> total_mean, total_second, recips;
};

enum class SweepCase {
  kIntegers,     // exact arithmetic: every raw cost >= 0
  kRounding,     // constant 1/3 items: costs ~0 with rounding of both signs
  kNegative,     // some candidates' raw costs pushed below -1e-6
};

SweepInputs MakeSweepInputs(SweepCase kind, std::size_t n,
                            std::size_t max_pushes) {
  Rng rng(7 + static_cast<std::uint64_t>(kind));
  SweepInputs in;
  in.count0 = 96;
  const std::size_t total = in.count0 + max_pushes;
  std::vector<double> s1(total + 1, 0.0), s2(total + 1, 0.0);
  for (std::size_t t = 0; t < total; ++t) {
    const double x = kind == SweepCase::kRounding
                         ? 1.0 / 3.0
                         : static_cast<double>(rng.NextBounded(9));
    s1[t + 1] = s1[t] + x;
    s2[t + 1] = s2[t] + x * x;
  }
  for (std::size_t i = 0; i < n; ++i) {
    // Every third candidate duplicates its predecessor: an exact tie in
    // every lane, which the first-index argmin must resolve to the
    // earlier one.
    if (i % 3 == 2) {
      in.error.push_back(in.error.back());
      in.sum_mean.push_back(in.sum_mean.back());
      in.sum_second.push_back(in.sum_second.back());
      in.position.push_back(in.position.back());
      in.neg_position.push_back(in.neg_position.back());
      continue;
    }
    const std::size_t pos = rng.NextBounded(in.count0);
    double second = s2[pos];
    if (kind == SweepCase::kNegative && rng.NextBounded(2) == 0) {
      second += 50.0;  // segment second moment 50 below any mean^2/width
    }
    in.error.push_back(rng.NextBounded(3) == 0 ? 2.0 : 4.0 * rng.NextDouble());
    in.sum_mean.push_back(s1[pos]);
    in.sum_second.push_back(second);
    in.position.push_back(static_cast<double>(pos));
    in.neg_position.push_back(-static_cast<std::int64_t>(pos));
  }
  for (std::size_t j = 0; j < max_pushes; ++j) {
    in.total_mean.push_back(s1[in.count0 + j]);
    in.total_second.push_back(s2[in.count0 + j]);
  }
  in.recips.assign(total, 0.0);
  for (std::size_t w = 1; w < total; ++w) {
    in.recips[w] = 1.0 / static_cast<double>(w);
  }
  return in;
}

// Smallest raw cost second - mean^2 / width over every candidate and push.
double MinRawCost(const SweepInputs& in, std::size_t pushes) {
  double m = kInf;
  for (std::size_t j = 0; j < pushes; ++j) {
    for (std::size_t i = 0; i < in.error.size(); ++i) {
      const double width = static_cast<double>(in.count0 + j) - in.position[i];
      const double mean = in.total_mean[j] - in.sum_mean[i];
      const double second = in.total_second[j] - in.sum_second[i];
      m = std::min(m, second - mean * mean / width);
    }
  }
  return m;
}

TEST(SimdDispatch, StreamingBatchSweepMatchesScalarBitwise) {
  // Push counts cross the 4- and 8-lane group sizes and their tails.
  const std::size_t push_counts[] = {0, 1,  2,  3,  4,  5,  7,  8,
                                     9, 12, 15, 16, 17, 24, 31, 33};
  const std::size_t max_pushes = 33;
  for (SweepCase kind :
       {SweepCase::kIntegers, SweepCase::kRounding, SweepCase::kNegative}) {
    // Each case reaches the cost class it is named for; only negative raw
    // costs send AVX-512 lanes through the scalar re-sweep.
    const double min_cost =
        MinRawCost(MakeSweepInputs(kind, 2000, max_pushes), max_pushes);
    if (kind == SweepCase::kIntegers) {
      EXPECT_GE(min_cost, 0.0);
    } else if (kind == SweepCase::kRounding) {
      EXPECT_LT(min_cost, 0.0);
      EXPECT_GT(min_cost, -1e-6);
    } else {
      EXPECT_LT(min_cost, -1e-6);
    }
    for (std::size_t n : kLengths) {
      const SweepInputs in = MakeSweepInputs(kind, n, max_pushes);
      for (std::size_t pushes : push_counts) {
        auto sweep = [&](std::vector<double>& best,
                         std::vector<std::int64_t>& index) {
          best.assign(pushes, -1.0);
          index.assign(pushes, -2);
          std::vector<double> scratch(n);
          SimdStreamingBatchSweep(
              in.error.data(), in.sum_mean.data(), in.sum_second.data(),
              in.position.data(), in.neg_position.data(), n,
              in.total_mean.data(), in.total_second.data(), in.count0,
              in.recips.data(), pushes, best.data(), index.data(),
              scratch.data());
        };
        std::vector<double> want;
        std::vector<std::int64_t> want_index;
        {
          ScopedSimdPath forced(SimdPath::kScalar);
          sweep(want, want_index);
        }
        for (std::size_t j = 0; j < pushes; ++j) {
          ASSERT_EQ(want_index[j] == -1, n == 0);
          ASSERT_NE(want_index[j] % 3, 2);  // ties keep the first index
        }
        for (SimdPath path : SupportedPaths()) {
          ScopedSimdPath forced(path);
          std::vector<double> got;
          std::vector<std::int64_t> got_index;
          sweep(got, got_index);
          for (std::size_t j = 0; j < pushes; ++j) {
            ASSERT_EQ(Bits(got[j]), Bits(want[j]))
                << SimdPathName(path) << " case=" << static_cast<int>(kind)
                << " n=" << n << " pushes=" << pushes << " j=" << j;
            ASSERT_EQ(got_index[j], want_index[j])
                << SimdPathName(path) << " case=" << static_cast<int>(kind)
                << " n=" << n << " pushes=" << pushes << " j=" << j;
          }
        }
      }
    }
  }
}

// End-to-end: the exact DP's kSum and kMax tables must be bit-identical
// under every SIMD path — errors, traceback choices, and representatives.
TEST(SimdDispatch, ExactDpBitIdenticalAcrossPaths) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 700, .max_support = 3, .max_value = 6, .seed = 9});
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  options.sse_variant = SseVariant::kFixedRepresentative;
  auto bundle = MakeBucketOracle(input, options);
  ASSERT_TRUE(bundle.ok());

  for (DpCombiner combiner : {DpCombiner::kSum, DpCombiner::kMax}) {
    std::vector<double> want_err;
    std::vector<std::int64_t> want_choice;
    std::vector<double> want_rep;
    {
      ScopedSimdPath forced(SimdPath::kScalar);
      HistogramDpResult dp =
          SolveHistogramDp(*bundle->oracle, 24, combiner);
      for (std::size_t b = 1; b <= dp.table_layers(); ++b) {
        auto err = dp.ErrorRow(b);
        auto choice = dp.ChoiceRow(b);
        auto rep = dp.RepresentativeRow(b);
        want_err.insert(want_err.end(), err.begin(), err.end());
        want_choice.insert(want_choice.end(), choice.begin(), choice.end());
        want_rep.insert(want_rep.end(), rep.begin(), rep.end());
      }
    }
    for (SimdPath path : SupportedPaths()) {
      ScopedSimdPath forced(path);
      HistogramDpResult dp =
          SolveHistogramDp(*bundle->oracle, 24, combiner);
      std::size_t offset = 0;
      for (std::size_t b = 1; b <= dp.table_layers(); ++b) {
        auto err = dp.ErrorRow(b);
        auto choice = dp.ChoiceRow(b);
        auto rep = dp.RepresentativeRow(b);
        for (std::size_t j = 0; j < err.size(); ++j, ++offset) {
          ASSERT_EQ(err[j], want_err[offset])
              << SimdPathName(path) << " b=" << b << " j=" << j;
          ASSERT_EQ(choice[j], want_choice[offset])
              << SimdPathName(path) << " b=" << b << " j=" << j;
          ASSERT_EQ(rep[j], want_rep[offset])
              << SimdPathName(path) << " b=" << b << " j=" << j;
        }
      }
    }
  }
}

// The approximate DP materializes candidate values and min-reduces them
// through the dispatch; histogram, cost, and evaluation count must not
// move across paths.
TEST(SimdDispatch, ApproxDpBitIdenticalAcrossPaths) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 600, .max_support = 3, .max_value = 6, .seed = 21});
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  options.sse_variant = SseVariant::kFixedRepresentative;
  auto bundle = MakeBucketOracle(input, options);
  ASSERT_TRUE(bundle.ok());

  double want_cost;
  std::size_t want_evaluations;
  Histogram want_histogram;
  {
    ScopedSimdPath forced(SimdPath::kScalar);
    auto approx = SolveApproxHistogramDp(*bundle->oracle, 16, 0.1);
    ASSERT_TRUE(approx.ok());
    want_cost = approx->cost;
    want_evaluations = approx->oracle_evaluations;
    want_histogram = approx->histogram;
  }
  for (SimdPath path : SupportedPaths()) {
    ScopedSimdPath forced(path);
    auto approx = SolveApproxHistogramDp(*bundle->oracle, 16, 0.1);
    ASSERT_TRUE(approx.ok());
    EXPECT_EQ(approx->cost, want_cost) << SimdPathName(path);
    EXPECT_EQ(approx->oracle_evaluations, want_evaluations)
        << SimdPathName(path);
    ASSERT_EQ(approx->histogram.num_buckets(), want_histogram.num_buckets());
    for (std::size_t i = 0; i < want_histogram.num_buckets(); ++i) {
      EXPECT_EQ(approx->histogram.buckets()[i].start,
                want_histogram.buckets()[i].start);
      EXPECT_EQ(approx->histogram.buckets()[i].end,
                want_histogram.buckets()[i].end);
      EXPECT_EQ(approx->histogram.buckets()[i].representative,
                want_histogram.buckets()[i].representative);
    }
  }
}

// The restricted wavelet DP's budget splits ride SimdMinPlusConst /
// SimdMinPlusReverse; kept coefficients and cost must not move.
TEST(SimdDispatch, RestrictedWaveletBitIdenticalAcrossPaths) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 128, .max_support = 3, .max_value = 6, .seed = 33});
  for (ErrorMetric metric : {ErrorMetric::kSae, ErrorMetric::kMae}) {
    SynopsisOptions options;
    options.metric = metric;
    double want_cost;
    std::vector<WaveletCoefficient> want_coeffs;
    {
      ScopedSimdPath forced(SimdPath::kScalar);
      auto dp = BuildRestrictedWaveletDp(input, 48, options);
      ASSERT_TRUE(dp.ok());
      want_cost = dp->cost;
      want_coeffs = dp->synopsis.coefficients();
    }
    for (SimdPath path : SupportedPaths()) {
      ScopedSimdPath forced(path);
      auto dp = BuildRestrictedWaveletDp(input, 48, options);
      ASSERT_TRUE(dp.ok());
      EXPECT_EQ(dp->cost, want_cost) << SimdPathName(path);
      ASSERT_EQ(dp->synopsis.coefficients().size(), want_coeffs.size());
      for (std::size_t i = 0; i < want_coeffs.size(); ++i) {
        EXPECT_EQ(dp->synopsis.coefficients()[i].index,
                  want_coeffs[i].index);
        EXPECT_EQ(dp->synopsis.coefficients()[i].value,
                  want_coeffs[i].value);
      }
    }
  }
}

// The streaming builder fed one item at a time scores each item through
// the dispatched sweep's one-push tail; the returned histogram must not
// move across paths.
TEST(SimdDispatch, StreamingBitIdenticalAcrossPaths) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 400, .max_support = 3, .max_value = 8, .seed = 47});
  auto run = [&input]() {
    StreamingHistogramBuilder builder(12, 0.1);
    testing::PushOneAtATime(builder, input.items());
    auto result = builder.Finish();
    PROBSYN_CHECK(result.ok());
    return std::move(result).value();
  };
  StreamingHistogramBuilder::Result want;
  {
    ScopedSimdPath forced(SimdPath::kScalar);
    want = run();
  }
  for (SimdPath path : SupportedPaths()) {
    ScopedSimdPath forced(path);
    StreamingHistogramBuilder::Result got = run();
    EXPECT_EQ(got.cost, want.cost) << SimdPathName(path);
    EXPECT_EQ(got.peak_breakpoints, want.peak_breakpoints);
    ASSERT_EQ(got.histogram.num_buckets(), want.histogram.num_buckets());
    for (std::size_t i = 0; i < want.histogram.num_buckets(); ++i) {
      EXPECT_EQ(got.histogram.buckets()[i].start,
                want.histogram.buckets()[i].start);
      EXPECT_EQ(got.histogram.buckets()[i].end,
                want.histogram.buckets()[i].end);
      EXPECT_EQ(got.histogram.buckets()[i].representative,
                want.histogram.buckets()[i].representative);
    }
  }
}

// The engine must record the dispatched path in DP-route solver strings.
TEST(SimdDispatch, EngineSolverStringsRecordSimdPath) {
  ValuePdfInput input = GenerateRandomValuePdf({.domain_size = 64, .seed = 5});
  SynopsisEngine engine({.parallelism = 1});
  SynopsisRequest request;
  request.budget = 8;
  request.options.metric = ErrorMetric::kSse;
  request.options.sse_variant = SseVariant::kFixedRepresentative;

  for (SimdPath path : SupportedPaths()) {
    ScopedSimdPath forced(path);
    auto result = engine.Build(input, request);
    ASSERT_TRUE(result.ok());
    const std::string want =
        std::string("simd=") + SimdPathName(ActiveSimdPath());
    EXPECT_NE(result->solver.find(want), std::string::npos)
        << result->solver;
  }
}

}  // namespace
}  // namespace probsyn
