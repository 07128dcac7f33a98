// Kernel parity: every exact-DP kernel (core/dp_kernels.h) — each library
// oracle's specialized kernel and the generic path that any other oracle
// type runs — must be BIT-identical to the textbook DP of tests/reference:
// err rows, choice rows (traceback ties included), and cached
// representatives, across every oracle type x {kSum, kMax} x budgets,
// sequentially and in the blocked parallel form, on every SIMD path, with
// and without workspace reuse. The kernels only change speed, never
// answers.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <random>
#include <vector>

#include "core/abs_oracle.h"
#include "core/dp_kernels.h"
#include "core/histogram_dp.h"
#include "core/oracle_factory.h"
#include "core/wavelet_dp.h"
#include "core/wavelet_unrestricted.h"
#include "engine/synopsis_engine.h"
#include "gen/generators.h"
#include "model/value_pdf.h"
#include "reference/reference_solvers.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "test_util.h"

namespace probsyn {
namespace {

constexpr ErrorMetric kAllMetrics[] = {
    ErrorMetric::kSse,  ErrorMetric::kSsre, ErrorMetric::kSae,
    ErrorMetric::kSare, ErrorMetric::kMae,  ErrorMetric::kMare};

// Exact (bitwise) table equality: EXPECT_EQ on doubles is ==, which is the
// contract — not "close enough".
void ExpectBitIdenticalTables(const reference::ExactDpTables& expected,
                              const HistogramDpResult& actual,
                              const std::string& label) {
  ASSERT_TRUE(actual.status().ok()) << label << ": " << actual.status();
  ASSERT_EQ(expected.n, actual.domain_size()) << label;
  ASSERT_EQ(expected.layers, actual.table_layers()) << label;
  const std::size_t n = expected.n;
  for (std::size_t b = 1; b <= expected.layers; ++b) {
    auto err_e = expected.ErrorRow(b);
    auto err_a = actual.ErrorRow(b);
    auto cho_e = expected.ChoiceRow(b);
    auto cho_a = actual.ChoiceRow(b);
    auto rep_e = expected.RepresentativeRow(b);
    auto rep_a = actual.RepresentativeRow(b);
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(err_e[j], err_a[j]) << label << " err b=" << b << " j=" << j;
      ASSERT_EQ(cho_e[j], cho_a[j]) << label << " choice b=" << b
                                    << " j=" << j;
      ASSERT_EQ(rep_e[j], rep_a[j]) << label << " rep b=" << b << " j=" << j;
    }
  }
}

// Solves through the oracle's own kernel and through the generic path (a
// forwarding oracle), each sequentially, in parallel, and through a reused
// workspace, on every SIMD path, and demands bitwise equality with the
// textbook DP everywhere.
void CheckKernelParity(const BucketCostOracle& oracle, DpCombiner combiner,
                       std::size_t max_buckets, const std::string& label) {
  const reference::ExactDpTables want =
      reference::SolveExactDp(oracle, max_buckets, combiner);
  const reference::ForwardingOracle forwarding(oracle);
  ThreadPool pool(3);
  for (SimdPath path : testing::SupportedSimdPaths()) {
    testing::ScopedSimdPath forced(path);
    for (const BucketCostOracle* solved :
         {&oracle, static_cast<const BucketCostOracle*>(&forwarding)}) {
      const bool generic = solved == &forwarding;
      const std::string where = label + (generic ? "/generic" : "/kernel") +
                                "/simd=" + SimdPathName(path);
      HistogramDpResult sequential =
          SolveHistogramDp(*solved, max_buckets, combiner);
      EXPECT_EQ(sequential.kernel() == DpKernelKind::kGeneric, generic)
          << where << " ran " << DpKernelKindName(sequential.kernel());
      ExpectBitIdenticalTables(want, sequential, where + "/sequential");

      HistogramDpResult parallel =
          SolveHistogramDp(*solved, max_buckets, combiner, {.pool = &pool});
      ExpectBitIdenticalTables(want, parallel, where + "/parallel");

      DpWorkspace workspace;
      {
        // Dirty the workspace with an unrelated solve (different budget),
        // then reuse it: stale storage must not leak into the result.
        HistogramDpResult scratch = SolveHistogramDp(
            *solved, std::max<std::size_t>(1, max_buckets / 2), combiner,
            {.workspace = &workspace});
        (void)scratch;
      }
      HistogramDpResult reused = SolveHistogramDp(
          *solved, max_buckets, combiner, {.workspace = &workspace});
      ExpectBitIdenticalTables(want, reused, where + "/workspace-reuse");
    }
  }
}

struct ParityCase {
  ErrorMetric metric;
  SseVariant variant;
  double c;
  std::uint64_t seed;
  bool weighted;
};

std::string ParityCaseName(const ::testing::TestParamInfo<ParityCase>& info) {
  std::string name = ErrorMetricName(info.param.metric);
  if (info.param.metric == ErrorMetric::kSse &&
      info.param.variant == SseVariant::kWorldMean) {
    name += "wm";
  }
  if (info.param.weighted) name += "weighted";
  return name + "_seed" + std::to_string(info.param.seed);
}

class DpKernelParityTest : public ::testing::TestWithParam<ParityCase> {};

TEST_P(DpKernelParityTest, BitIdenticalAcrossCombinersAndBudgets) {
  const ParityCase& param = GetParam();
  const std::size_t kDomain = 64;
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = kDomain, .max_support = 4, .max_value = 8,
       .seed = param.seed});
  SynopsisOptions options;
  options.metric = param.metric;
  options.sanity_c = param.c;
  options.sse_variant = param.variant;
  if (param.weighted) {
    // A zero-weight stretch exercises the oracles' "workload ignores the
    // bucket" branches; ties abound there.
    options.workload.assign(kDomain, 1.0);
    for (std::size_t i = 10; i < 30; ++i) options.workload[i] = 0.0;
    for (std::size_t i = 40; i < kDomain; ++i) options.workload[i] = 2.5;
  }
  auto bundle = MakeBucketOracle(input, options);
  ASSERT_TRUE(bundle.ok()) << bundle.status();

  for (DpCombiner combiner : {DpCombiner::kSum, DpCombiner::kMax}) {
    for (std::size_t budget : {std::size_t{1}, std::size_t{5}, kDomain}) {
      std::string label = std::string(ErrorMetricName(param.metric)) +
                          (combiner == DpCombiner::kSum ? "/sum" : "/max") +
                          "/B=" + std::to_string(budget);
      CheckKernelParity(*bundle->oracle, combiner, budget, label);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    OraclesAndSeeds, DpKernelParityTest,
    ::testing::Values(
        ParityCase{ErrorMetric::kSse, SseVariant::kFixedRepresentative, 1.0,
                   101, false},
        ParityCase{ErrorMetric::kSse, SseVariant::kWorldMean, 1.0, 102,
                   false},
        ParityCase{ErrorMetric::kSse, SseVariant::kFixedRepresentative, 1.0,
                   103, true},
        ParityCase{ErrorMetric::kSsre, SseVariant::kWorldMean, 0.5, 104,
                   false},
        ParityCase{ErrorMetric::kSsre, SseVariant::kWorldMean, 1.0, 105,
                   true},
        ParityCase{ErrorMetric::kSae, SseVariant::kWorldMean, 1.0, 106,
                   false},
        ParityCase{ErrorMetric::kSae, SseVariant::kWorldMean, 1.0, 107,
                   true},
        ParityCase{ErrorMetric::kSare, SseVariant::kWorldMean, 0.5, 108,
                   false},
        ParityCase{ErrorMetric::kMae, SseVariant::kWorldMean, 1.0, 109,
                   false},
        ParityCase{ErrorMetric::kMae, SseVariant::kWorldMean, 1.0, 110,
                   true},
        ParityCase{ErrorMetric::kMare, SseVariant::kWorldMean, 0.5, 111,
                   false}),
    ParityCaseName);

TEST(DpKernelParity, TupleSseWorldMeanSweepKernel) {
  TuplePdfInput input = GenerateRandomTuplePdf(
      {.domain_size = 48, .num_tuples = 120, .max_alternatives = 4,
       .seed = 201});
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  options.sse_variant = SseVariant::kWorldMean;
  auto bundle = MakeBucketOracle(input, options);
  ASSERT_TRUE(bundle.ok());
  EXPECT_EQ(SolveHistogramDp(*bundle->oracle, 4, bundle->combiner).kernel(),
            DpKernelKind::kTupleSse);
  for (DpCombiner combiner : {DpCombiner::kSum, DpCombiner::kMax}) {
    CheckKernelParity(*bundle->oracle, combiner, 48,
                      combiner == DpCombiner::kSum ? "tuple/sum"
                                                   : "tuple/max");
  }
}

// Tie-heavy inputs: constant and block-constant point masses yield large
// zero-cost plateaus, so many (budget, column) cells have many minimizing
// splits — exactly where a pruned/vectorized argmin could legally-looking
// diverge from the reference's first-attaining-split rule.
TEST(DpKernelParity, TieHeavyPlateausBreakTiesIdentically) {
  std::vector<ValuePdf> pdfs;
  for (std::size_t i = 0; i < 96; ++i) {
    pdfs.push_back(ValuePdf::PointMass(1.0 + static_cast<double>(i / 24)));
  }
  ValuePdfInput input(std::move(pdfs));
  for (ErrorMetric metric :
       {ErrorMetric::kSse, ErrorMetric::kSae, ErrorMetric::kMae}) {
    SynopsisOptions options;
    options.metric = metric;
    options.sse_variant = SseVariant::kFixedRepresentative;
    auto bundle = MakeBucketOracle(input, options);
    ASSERT_TRUE(bundle.ok());
    for (DpCombiner combiner : {DpCombiner::kSum, DpCombiner::kMax}) {
      CheckKernelParity(*bundle->oracle, combiner, 96,
                        std::string("plateau/") + ErrorMetricName(metric));
    }
  }
}

// Catastrophic-cancellation regression: near-constant large-magnitude
// frequencies make the computed SSE bucket cost (sum E[g^2] minus a huge
// near-equal square) non-monotone in the split point at the ~1e-4 level
// (amplified by ClampTinyNegative's asymmetric clamp). A raw
// monotone-split bisection returns a wrong argmin here; the bound-verified
// kMax cell must not.
TEST(DpKernelParity, CancellationBreaksMonotonicityButNotParity) {
  std::mt19937_64 rng(12345);
  std::uniform_real_distribution<double> jitter(-1e-3, 1e-3);
  std::vector<ValuePdf> pdfs;
  for (std::size_t i = 0; i < 640; ++i) {
    pdfs.push_back(ValuePdf::PointMass(1e6 + jitter(rng)));
  }
  ValuePdfInput input(std::move(pdfs));
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  options.sse_variant = SseVariant::kFixedRepresentative;
  auto bundle = MakeBucketOracle(input, options);
  ASSERT_TRUE(bundle.ok());
  for (DpCombiner combiner : {DpCombiner::kSum, DpCombiner::kMax}) {
    for (std::size_t budget : {std::size_t{8}, std::size_t{64}}) {
      CheckKernelParity(*bundle->oracle, combiner, budget,
                        std::string("cancellation/") +
                            (combiner == DpCombiner::kSum ? "sum" : "max") +
                            "/B=" + std::to_string(budget));
    }
  }
}

// A domain larger than the fast kSum cell's chunk (512) exercises the
// cross-chunk minimum bookkeeping, and larger than the parallel path's
// block size exercises multi-block scheduling.
TEST(DpKernelParity, LargeDomainCrossesChunkAndBlockBoundaries) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 1200, .max_support = 3, .max_value = 6, .seed = 301});
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  options.sse_variant = SseVariant::kFixedRepresentative;
  auto bundle = MakeBucketOracle(input, options);
  ASSERT_TRUE(bundle.ok());
  for (DpCombiner combiner : {DpCombiner::kSum, DpCombiner::kMax}) {
    CheckKernelParity(*bundle->oracle, combiner, 12,
                      combiner == DpCombiner::kSum ? "large/sum"
                                                   : "large/max");
  }
}

// A caller-defined oracle: costs come from a seeded table, not from any
// formula. Ties, plateaus, and non-monotone columns are common, so the kMax
// cell's bound-verified sweep (two 512-split chunks here) runs on data no
// library oracle produces. The generic path must still match the textbook
// DP bit for bit at every lane count and SIMD path.
class TableOracle final : public BucketCostOracle {
 public:
  TableOracle(std::size_t n, std::uint64_t seed) : n_(n), cells_(n * n) {
    std::mt19937_64 rng(seed);
    for (std::size_t e = 0; e < n; ++e) {
      for (std::size_t s = 0; s <= e; ++s) {
        BucketCost& cell = cells_[e * n + s];
        switch (rng() % 4) {
          case 0:  // plateau
            cell.cost = 2.0;
            break;
          case 1:  // small integers: ties everywhere
            cell.cost = static_cast<double>(rng() % 4);
            break;
          default:  // arbitrary, non-monotone in s and e
            cell.cost = std::ldexp(static_cast<double>(rng() % 4096), -8);
        }
        cell.representative = static_cast<double>(rng() % 16);
      }
    }
  }

  std::size_t domain_size() const override { return n_; }
  BucketCost Cost(std::size_t s, std::size_t e) const override {
    return cells_[e * n_ + s];
  }

 private:
  std::size_t n_;
  std::vector<BucketCost> cells_;  // [e * n + s]
};

TEST(DpKernelParity, CallerDefinedOracleRunsTheGenericPath) {
  const TableOracle oracle(700, 20090401);
  ThreadPool pool(3);
  for (DpCombiner combiner : {DpCombiner::kSum, DpCombiner::kMax}) {
    const reference::ExactDpTables want =
        reference::SolveExactDp(oracle, 6, combiner);
    for (SimdPath path : testing::SupportedSimdPaths()) {
      testing::ScopedSimdPath forced(path);
      for (ThreadPool* lanes : {static_cast<ThreadPool*>(nullptr), &pool}) {
        const std::string label =
            std::string(combiner == DpCombiner::kSum ? "sum" : "max") +
            " simd=" + SimdPathName(path) +
            (lanes == nullptr ? " lanes=1" : " lanes=4");
        HistogramDpResult dp =
            SolveHistogramDp(oracle, 6, combiner, {.pool = lanes});
        EXPECT_EQ(dp.kernel(), DpKernelKind::kGeneric) << label;
        ExpectBitIdenticalTables(want, dp, label);
      }
    }
  }
}

// Tables equal to the textbook DP's make every traceback equal too; the
// extracted histograms of the kernel and the generic path must agree, and
// cached representatives must equal fresh oracle calls.
TEST(DpKernelParity, ExtractedHistogramsMatchReference) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 80, .max_support = 4, .max_value = 7, .seed = 401});
  for (ErrorMetric metric : kAllMetrics) {
    SynopsisOptions options;
    options.metric = metric;
    options.sanity_c = 0.5;
    auto bundle = MakeBucketOracle(input, options);
    ASSERT_TRUE(bundle.ok());

    HistogramDpResult kernel =
        SolveHistogramDp(*bundle->oracle, 12, bundle->combiner);
    ExpectBitIdenticalTables(
        reference::SolveExactDp(*bundle->oracle, 12, bundle->combiner),
        kernel, ErrorMetricName(metric));
    const reference::ForwardingOracle forwarding(*bundle->oracle);
    HistogramDpResult generic =
        SolveHistogramDp(forwarding, 12, bundle->combiner);
    for (std::size_t b = 1; b <= 12; ++b) {
      Histogram actual = kernel.ExtractHistogram(b);
      EXPECT_TRUE(generic.ExtractHistogram(b) == actual)
          << ErrorMetricName(metric) << " B=" << b;
      // Cached representatives must equal fresh oracle calls (what the
      // pre-kernel extraction used to do).
      for (const HistogramBucket& bucket : actual.buckets()) {
        EXPECT_EQ(bucket.representative,
                  bundle->oracle->Cost(bucket.start, bucket.end)
                      .representative)
            << ErrorMetricName(metric) << " B=" << b;
      }
    }
  }
}

// Every oracle the factory builds has a specialized kernel, and both DPs
// find it from the oracle's type.
TEST(DpKernelSelection, FactoryKnowsEveryKernel) {
  ValuePdfInput input = GenerateRandomValuePdf({.domain_size = 16, .seed = 7});
  const std::pair<ErrorMetric, DpKernelKind> kExpected[] = {
      {ErrorMetric::kSse, DpKernelKind::kSseMoment},
      {ErrorMetric::kSsre, DpKernelKind::kSsre},
      {ErrorMetric::kSae, DpKernelKind::kAbsCumulative},
      {ErrorMetric::kSare, DpKernelKind::kAbsCumulative},
      {ErrorMetric::kMae, DpKernelKind::kMaxError},
      {ErrorMetric::kMare, DpKernelKind::kMaxError}};
  for (const auto& [metric, kind] : kExpected) {
    SynopsisOptions options;
    options.metric = metric;
    auto bundle = MakeBucketOracle(input, options);
    ASSERT_TRUE(bundle.ok());
    EXPECT_EQ(SolveHistogramDp(*bundle->oracle, 3, bundle->combiner).kernel(),
              kind)
        << ErrorMetricName(metric);
    if (bundle->combiner == DpCombiner::kSum) {
      auto approx = SolveApproxHistogramDp(*bundle->oracle, 3, 0.1);
      ASSERT_TRUE(approx.ok());
      EXPECT_EQ(approx->kernel, kind) << ErrorMetricName(metric);
    }
  }
}

// --- Approximate-DP kernel parity: the specialized point-cost kernels must
// reproduce the generic virtual-dispatch solve exactly — histogram
// (boundaries, representatives), cost, and the Theorem 5 evaluation count.

void CheckApproxKernelParity(const BucketCostOracle& oracle,
                             std::size_t max_buckets, double epsilon,
                             const std::string& label) {
  const reference::ForwardingOracle forwarding(oracle);
  auto generic = SolveApproxHistogramDp(forwarding, max_buckets, epsilon);
  ASSERT_TRUE(generic.ok()) << label << ": " << generic.status();
  EXPECT_EQ(generic->kernel, DpKernelKind::kGeneric) << label;

  auto kernel = SolveApproxHistogramDp(oracle, max_buckets, epsilon);
  ASSERT_TRUE(kernel.ok()) << label << ": " << kernel.status();
  EXPECT_NE(kernel->kernel, DpKernelKind::kGeneric) << label;

  EXPECT_TRUE(generic->histogram == kernel->histogram) << label;
  EXPECT_EQ(generic->cost, kernel->cost) << label;
  EXPECT_EQ(generic->oracle_evaluations, kernel->oracle_evaluations)
      << label;
}

constexpr ErrorMetric kCumulativeMetrics[] = {
    ErrorMetric::kSse, ErrorMetric::kSsre, ErrorMetric::kSae,
    ErrorMetric::kSare};

TEST(ApproxDpKernelParity, CumulativeMetricsAcrossBudgetsAndEps) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 96, .max_support = 4, .max_value = 8, .seed = 501});
  for (ErrorMetric metric : kCumulativeMetrics) {
    SynopsisOptions options;
    options.metric = metric;
    options.sanity_c = 0.5;
    auto bundle = MakeBucketOracle(input, options);
    ASSERT_TRUE(bundle.ok());
    for (std::size_t budget : {std::size_t{1}, std::size_t{8}}) {
      for (double eps : {0.05, 0.5}) {
        CheckApproxKernelParity(*bundle->oracle, budget, eps,
                                std::string(ErrorMetricName(metric)) +
                                    "/B=" + std::to_string(budget));
      }
    }
  }
}

TEST(ApproxDpKernelParity, WeightedZeroStretchesTieHeavy) {
  const std::size_t kDomain = 80;
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = kDomain, .max_support = 4, .max_value = 8, .seed = 502});
  for (ErrorMetric metric : kCumulativeMetrics) {
    SynopsisOptions options;
    options.metric = metric;
    options.sanity_c = 1.0;
    options.sse_variant = SseVariant::kFixedRepresentative;  // weights need it
    // Zero-weight stretches make many candidate buckets cost exactly 0 —
    // tie-heavy territory for the class-boundary and argmin comparisons.
    options.workload.assign(kDomain, 1.0);
    for (std::size_t i = 15; i < 40; ++i) options.workload[i] = 0.0;
    auto bundle = MakeBucketOracle(input, options);
    ASSERT_TRUE(bundle.ok());
    CheckApproxKernelParity(*bundle->oracle, 6, 0.1,
                            std::string("weighted/") +
                                ErrorMetricName(metric));
  }
}

TEST(ApproxDpKernelParity, PlateauInputsAndTupleSse) {
  // Block-constant point masses: zero-cost plateaus everywhere, so the
  // approximate DP's inherit-vs-split ties and the warm abs search's
  // cold-fallback path both get exercised.
  std::vector<ValuePdf> pdfs;
  for (std::size_t i = 0; i < 64; ++i) {
    pdfs.push_back(ValuePdf::PointMass(1.0 + static_cast<double>(i / 16)));
  }
  ValuePdfInput plateau(std::move(pdfs));
  for (ErrorMetric metric : {ErrorMetric::kSse, ErrorMetric::kSae}) {
    SynopsisOptions options;
    options.metric = metric;
    auto bundle = MakeBucketOracle(plateau, options);
    ASSERT_TRUE(bundle.ok());
    CheckApproxKernelParity(*bundle->oracle, 5, 0.2,
                            std::string("plateau/") +
                                ErrorMetricName(metric));
  }

  TuplePdfInput tuples = GenerateRandomTuplePdf(
      {.domain_size = 40, .num_tuples = 90, .max_alternatives = 4,
       .seed = 503});
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  options.sse_variant = SseVariant::kWorldMean;
  auto bundle = MakeBucketOracle(tuples, options);
  ASSERT_TRUE(bundle.ok());
  CheckApproxKernelParity(*bundle->oracle, 6, 0.1, "tuple-sse");
  EXPECT_EQ(SolveApproxHistogramDp(*bundle->oracle, 6, 0.1)->kernel,
            DpKernelKind::kTupleSse);
}

// --- Warm-started SAE/SARE sweeps. FlatSweep's warm acceptance is
// guaranteed to agree with cold Cost() on convex cost sequences; computed
// costs can split a plateau into several equal-valued pits by rounding, in
// which case the warm sweep may return a different, EQUALLY-OPTIMAL grid
// value (kernel-vs-generic DP parity is immune — both run the same
// sweep). So: optimal cost must always agree (4-ulp bound for the
// plateau-splitting case), and on exact-arithmetic inputs (integer point
// masses) representatives must agree bit-for-bit, cold fallback included.

TEST(AbsWarmSweepParity, CostsMatchColdSearchOnRandomData) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 48, .max_support = 4, .max_value = 8, .seed = 601});
  for (bool relative : {false, true}) {
    AbsCumulativeOracle oracle(input, relative, 1.0);
    const std::size_t n = oracle.domain_size();
    for (std::size_t e = 0; e < n; ++e) {
      AbsCumulativeOracle::FlatSweep sweep(oracle, e);
      for (std::size_t s = e;; --s) {
        BucketCost warm = sweep.Extend();
        BucketCost cold = oracle.Cost(s, e);
        ASSERT_DOUBLE_EQ(warm.cost, cold.cost)
            << "rel=" << relative << " bucket [" << s << ", " << e << "]";
        if (s == 0) break;
      }
    }
  }
}

TEST(AbsWarmSweepParity, BitIdenticalToColdSearchOnExactArithmetic) {
  std::vector<ValuePdf> flat;
  for (std::size_t i = 0; i < 48; ++i) {
    flat.push_back(ValuePdf::PointMass(2.0 + static_cast<double>(i / 12)));
  }
  ValuePdfInput input(std::move(flat));
  for (bool relative : {false, true}) {
    AbsCumulativeOracle oracle(input, relative, 1.0);
    const std::size_t n = oracle.domain_size();
    for (std::size_t e = 0; e < n; ++e) {
      AbsCumulativeOracle::FlatSweep sweep(oracle, e);
      for (std::size_t s = e;; --s) {
        BucketCost warm = sweep.Extend();
        BucketCost cold = oracle.Cost(s, e);
        ASSERT_EQ(warm.cost, cold.cost)
            << "rel=" << relative << " bucket [" << s << ", " << e << "]";
        ASSERT_EQ(warm.representative, cold.representative)
            << "rel=" << relative << " bucket [" << s << ", " << e << "]";
        if (s == 0) break;
      }
    }
  }
}

// --- Wavelet budget-split kernels.

// Compares the fast kernels against the reference scan DIRECTLY (below
// MinBudgetSplit's hybrid size cutoff the dispatcher would route everything
// to the scan, hiding the reduction/bisection paths from coverage).
void CheckSplitAgainstReference(const std::vector<double>& left,
                                const std::vector<double>& right,
                                std::size_t rem, int trial) {
  namespace bsi = budget_split_internal;
  const std::size_t bl_max = std::min(rem, left.size() - 1);
  const std::size_t cap_right = right.size() - 1;
  for (DpCombiner combiner : {DpCombiner::kSum, DpCombiner::kMax}) {
    BudgetSplit expected = bsi::Reference(combiner, left.data(), bl_max,
                                          right.data(), cap_right, rem);
    BudgetSplit actual =
        combiner == DpCombiner::kSum
            ? bsi::SumFast(left.data(), bl_max, right.data(), cap_right, rem)
            : bsi::MaxFast(left.data(), bl_max, right.data(), cap_right, rem);
    EXPECT_EQ(expected.value, actual.value)
        << "trial " << trial << " rem=" << rem;
    EXPECT_EQ(expected.left_budget, actual.left_budget)
        << "trial " << trial << " rem=" << rem;
    // The hybrid dispatcher must agree with the reference at EVERY size
    // (below the cutoff it runs the scan itself).
    BudgetSplit dispatched = MinBudgetSplit(combiner, left.data(), bl_max,
                                            right.data(), cap_right, rem);
    EXPECT_EQ(expected.value, dispatched.value) << "trial " << trial;
    EXPECT_EQ(expected.left_budget, dispatched.left_budget)
        << "trial " << trial;
  }
}

TEST(MinBudgetSplitTest, FastMatchesReferenceOnMonotoneTables) {
  std::mt19937_64 rng(77);
  std::uniform_real_distribution<double> step(0.0, 1.0);
  for (int trial = 0; trial < 200; ++trial) {
    // Random non-increasing tables, with plateaus (zero steps) common.
    auto make = [&](std::size_t len) {
      std::vector<double> v(len);
      double x = 10.0 + step(rng);
      for (std::size_t i = 0; i < len; ++i) {
        v[i] = x;
        if (rng() % 3 != 0) x -= step(rng);  // ~1/3 of steps are plateaus
      }
      return v;
    };
    const std::size_t llen = 1 + rng() % 90;
    const std::size_t rlen = 1 + rng() % 90;
    std::vector<double> left = make(llen);
    std::vector<double> right = make(rlen);
    for (std::size_t rem : {llen - 1, llen + rlen, std::size_t{0},
                            (llen + rlen) / 2}) {
      CheckSplitAgainstReference(left, right, rem, trial);
    }
  }
}

TEST(MinBudgetSplitTest, ConstantTablesBreakTiesAtFirstSplit) {
  // Fully constant tables are one big plateau: every split ties, and the
  // fast paths must return bl = 0 like the ascending reference scan.
  std::vector<double> left(41, 1.5);
  std::vector<double> right(37, 1.5);
  for (std::size_t rem : {std::size_t{0}, std::size_t{4}, std::size_t{40},
                          std::size_t{76}}) {
    CheckSplitAgainstReference(left, right, rem, -1);
    BudgetSplit split = MinBudgetSplit(
        DpCombiner::kSum, left.data(), std::min(rem, left.size() - 1),
        right.data(), right.size() - 1, rem);
    EXPECT_EQ(split.left_budget, 0u) << "rem=" << rem;
    EXPECT_EQ(split.value, 3.0) << "rem=" << rem;
  }
}

// Wavelet DP parity. The coefficient-tree DPs have no knob that swaps their
// splits for the ascending scan; instead, Debug builds check every split
// MinBudgetSplit returns against the scan (value and first attaining
// split), and CI runs the Debug suite under native, scalar, AVX2, and
// 4-lane dispatch. These tests drive both DPs across all six metrics
// (sum and max combiners), weighted inputs, plateaus, and budgets past the
// hybrid cutoff through that check, and demand bit-identical costs and
// kept coefficients on every SIMD path (the kSum splits reduce through the
// dispatched primitives).

struct WaveletOutcome {
  double cost = 0.0;
  std::vector<WaveletCoefficient> coefficients;
};

template <typename Build>
void ExpectIdenticalAcrossSimdPaths(const Build& build,
                                    const std::string& label) {
  WaveletOutcome want;
  {
    testing::ScopedSimdPath scalar(SimdPath::kScalar);
    want = build();
  }
  for (SimdPath path : testing::SupportedSimdPaths()) {
    testing::ScopedSimdPath forced(path);
    const WaveletOutcome got = build();
    EXPECT_EQ(want.cost, got.cost) << label << " simd=" << SimdPathName(path);
    EXPECT_EQ(want.coefficients, got.coefficients)
        << label << " simd=" << SimdPathName(path);
  }
}

auto Restricted(const ValuePdfInput& input, std::size_t budget,
                const SynopsisOptions& options) {
  return [&input, budget, &options] {
    auto result = BuildRestrictedWaveletDp(input, budget, options);
    PROBSYN_CHECK(result.ok());
    return WaveletOutcome{result->cost, result->synopsis.coefficients()};
  };
}

auto Unrestricted(const ValuePdfInput& input, std::size_t budget,
                  const SynopsisOptions& options, std::size_t grid_points) {
  return [&input, budget, &options, grid_points] {
    UnrestrictedWaveletOptions dp_options;
    dp_options.grid_points = grid_points;
    auto result =
        BuildUnrestrictedWaveletDp(input, budget, options, dp_options);
    PROBSYN_CHECK(result.ok());
    return WaveletOutcome{result->cost, result->synopsis.coefficients()};
  };
}

TEST(WaveletSplitKernelParity, RestrictedDpAllMetrics) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 32, .max_support = 3, .max_value = 6, .seed = 701});
  for (ErrorMetric metric : kAllMetrics) {
    for (bool weighted : {false, true}) {
      SynopsisOptions options;
      options.metric = metric;
      options.sanity_c = 0.5;
      if (weighted) {
        options.sse_variant = SseVariant::kFixedRepresentative;
        options.workload.assign(32, 1.0);
        for (std::size_t i = 8; i < 16; ++i) options.workload[i] = 0.0;
        for (std::size_t i = 24; i < 32; ++i) options.workload[i] = 2.0;
      }
      for (std::size_t budget : {std::size_t{1}, std::size_t{7}}) {
        ExpectIdenticalAcrossSimdPaths(
            Restricted(input, budget, options),
            std::string(ErrorMetricName(metric)) +
                (weighted ? "/weighted" : "") +
                "/B=" + std::to_string(budget));
      }
    }
  }
}

TEST(WaveletSplitKernelParity, UnrestrictedDpAllMetrics) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 16, .max_support = 3, .max_value = 5, .seed = 702});
  for (ErrorMetric metric : kAllMetrics) {
    SynopsisOptions options;
    options.metric = metric;
    options.sanity_c = 0.5;
    for (std::size_t budget : {std::size_t{1}, std::size_t{5}}) {
      ExpectIdenticalAcrossSimdPaths(
          Unrestricted(input, budget, options, 17),
          std::string(ErrorMetricName(metric)) +
              "/B=" + std::to_string(budget));
    }
  }
}

// Tie-heavy wavelet input: block-constant frequencies drive whole subtrees
// to identical errors, so budget splits are full of plateaus — the
// bisections' tie-breaks must still match the ascending scan exactly.
// The 128-item case's budget of 40 passes the hybrid cutoff, so its splits
// take the reduction and bisection paths.
TEST(WaveletSplitKernelParity, PlateauInputsBreakTiesIdentically) {
  struct Case {
    std::size_t n, block, budget;
  };
  for (const Case& c : {Case{32, 8, 6}, Case{128, 32, 40}}) {
    std::vector<ValuePdf> pdfs;
    for (std::size_t i = 0; i < c.n; ++i) {
      pdfs.push_back(
          ValuePdf::PointMass(1.0 + static_cast<double>(i / c.block)));
    }
    ValuePdfInput input(std::move(pdfs));
    for (ErrorMetric metric : {ErrorMetric::kSae, ErrorMetric::kMae}) {
      SynopsisOptions options;
      options.metric = metric;
      ExpectIdenticalAcrossSimdPaths(Restricted(input, c.budget, options),
                                     std::string(ErrorMetricName(metric)) +
                                         "/n=" + std::to_string(c.n));
    }
  }
}

// Budgets past the hybrid cutoff (kSmallBudgetSplit) drive the solvers'
// splits through the reduction/bisection paths end-to-end.
TEST(WaveletSplitKernelParity, LargeBudgetsEngageFastSplitPaths) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 96, .max_support = 3, .max_value = 6, .seed = 703});
  for (ErrorMetric metric : {ErrorMetric::kSse, ErrorMetric::kMae}) {
    SynopsisOptions options;
    options.metric = metric;
    ExpectIdenticalAcrossSimdPaths(Restricted(input, 48, options),
                                   std::string("restricted/") +
                                       ErrorMetricName(metric));
    ExpectIdenticalAcrossSimdPaths(Unrestricted(input, 48, options, 9),
                                   std::string("unrestricted/") +
                                       ErrorMetricName(metric));
  }
}

TEST(DpWorkspacePoolTest, LeasesAreExclusiveAndRecycled) {
  DpWorkspacePool pool;
  DpWorkspace* first = nullptr;
  {
    auto lease_a = pool.Acquire();
    auto lease_b = pool.Acquire();
    EXPECT_NE(lease_a.get(), nullptr);
    EXPECT_NE(lease_b.get(), nullptr);
    EXPECT_NE(lease_a.get(), lease_b.get());
    first = lease_a.get();
  }
  // Returned workspaces are handed out again instead of reallocated.
  auto lease_c = pool.Acquire();
  auto lease_d = pool.Acquire();
  EXPECT_TRUE(lease_c.get() == first || lease_d.get() == first);
}

TEST(EngineKernelIntegration, SolverStringRecordsChosenKernel) {
  ValuePdfInput input = GenerateRandomValuePdf({.domain_size = 32, .seed = 9});
  SynopsisEngine engine({.parallelism = 1});
  SynopsisRequest request;
  request.kind = SynopsisKind::kHistogram;
  request.method = HistogramMethod::kOptimal;
  request.budget = 4;
  request.options.metric = ErrorMetric::kSse;
  auto result = engine.Build(input, request);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NE(result->solver.find("kernel=sse-moment"), std::string::npos)
      << result->solver;

  request.options.metric = ErrorMetric::kMae;
  result = engine.Build(input, request);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->solver.find("kernel=max-error"), std::string::npos)
      << result->solver;
}

// Every DP-backed route — approximate and wavelet included — records the
// kernel that filled its tables, so bench/docs output is never ambiguous
// about which inner loop ran.
TEST(EngineKernelIntegration, ApproxAndWaveletSolverStringsRecordKernel) {
  ValuePdfInput input = GenerateRandomValuePdf({.domain_size = 32, .seed = 11});
  SynopsisEngine engine({.parallelism = 1});

  SynopsisRequest approx;
  approx.kind = SynopsisKind::kHistogram;
  approx.method = HistogramMethod::kApprox;
  approx.budget = 4;
  approx.epsilon = 0.1;
  approx.options.metric = ErrorMetric::kSae;
  auto result = engine.Build(input, approx);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NE(result->solver.find("kernel=abs-cumulative"), std::string::npos)
      << result->solver;

  SynopsisRequest restricted;
  restricted.kind = SynopsisKind::kWavelet;
  restricted.wavelet_method = WaveletMethod::kRestrictedDp;
  restricted.budget = 4;
  restricted.options.metric = ErrorMetric::kMae;
  result = engine.Build(input, restricted);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NE(result->solver.find("kernel=budget-split"), std::string::npos)
      << result->solver;

  SynopsisRequest unrestricted = restricted;
  unrestricted.wavelet_method = WaveletMethod::kUnrestrictedDp;
  unrestricted.unrestricted.grid_points = 9;
  result = engine.Build(input, unrestricted);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NE(result->solver.find("kernel=budget-split"), std::string::npos)
      << result->solver;
}

// Batches mixing MAE and MARE share one PointErrorTables build; repeated
// batches reuse the engine's leased workspace. Neither may change answers.
TEST(EngineKernelIntegration, RepeatedMixedBatchesStayBitIdentical) {
  ValuePdfInput input = GenerateRandomValuePdf({.domain_size = 40, .seed = 15});
  SynopsisEngine engine({.parallelism = 1});
  std::vector<SynopsisRequest> requests;
  for (ErrorMetric metric : {ErrorMetric::kMae, ErrorMetric::kMare,
                             ErrorMetric::kSse, ErrorMetric::kSae}) {
    SynopsisRequest request;
    request.kind = SynopsisKind::kHistogram;
    request.method = HistogramMethod::kOptimal;
    request.budget = 6;
    request.options.metric = metric;
    request.options.sanity_c = 1.0;
    requests.push_back(request);
  }
  auto first = engine.BuildBatch(input, requests);
  ASSERT_TRUE(first.ok()) << first.status();
  // Second run reuses the leased workspace (and the fresh tables cache).
  auto second = engine.BuildBatch(input, requests);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->size(), second->size());
  for (std::size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i].cost, (*second)[i].cost) << i;
    EXPECT_TRUE((*first)[i].histogram == (*second)[i].histogram) << i;
  }
  // And both equal the direct solver.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    auto bundle = MakeBucketOracle(input, requests[i].options);
    ASSERT_TRUE(bundle.ok());
    HistogramDpResult dp =
        SolveHistogramDp(*bundle->oracle, 6, bundle->combiner);
    EXPECT_EQ((*first)[i].cost, dp.OptimalCost(6)) << i;
    EXPECT_TRUE((*first)[i].histogram == dp.ExtractHistogram(6)) << i;
  }
}

}  // namespace
}  // namespace probsyn
