// Parallel restricted-wavelet arena fill (core/wavelet_dp.cc): the level
// sweeps fan out across a thread pool in disjoint arena spans with
// identical per-state computation, so the solve must be bit-identical to
// the sequential fill at EVERY thread count and SIMD path — costs, kept
// coefficients (indices and values), and traceback ties. CI runs this
// binary under TSan (scoped with thread_pool_test) to keep the span
// disjointness honest, and twice under native/force-scalar dispatch like
// the rest of the suite.

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "core/dp_kernels.h"
#include "core/evaluate.h"
#include "core/wavelet_dp.h"
#include "engine/synopsis_engine.h"
#include "gen/generators.h"
#include "util/thread_pool.h"
#include "test_util.h"

namespace probsyn {
namespace {

using testing::ScopedSimdPath;

// Thread counts the determinism sweep pins (pool workers = count - 1; the
// calling thread is a lane).
constexpr std::size_t kThreadCounts[] = {1, 2, 8};

struct Baseline {
  double cost;
  std::vector<WaveletCoefficient> coefficients;
};

Baseline SequentialBaseline(const ValuePdfInput& input, std::size_t budget,
                            const SynopsisOptions& options) {
  ScopedSimdPath forced(SimdPath::kScalar);
  auto result = BuildRestrictedWaveletDp(input, budget, options);
  EXPECT_TRUE(result.ok()) << result.status();
  // A failed solve (e.g. an injected resource fault) must not dereference
  // the errored StatusOr: return an empty baseline the comparisons then
  // fail against cleanly.
  if (!result.ok()) return {0.0, {}};
  return {result->cost, result->synopsis.coefficients()};
}

void ExpectBitIdentical(const Baseline& want, const WaveletDpResult& got,
                        const char* label) {
  EXPECT_EQ(want.cost, got.cost) << label;
  ASSERT_EQ(want.coefficients.size(), got.synopsis.coefficients().size())
      << label;
  for (std::size_t i = 0; i < want.coefficients.size(); ++i) {
    EXPECT_EQ(want.coefficients[i].index,
              got.synopsis.coefficients()[i].index)
        << label << " coefficient " << i;
    EXPECT_EQ(want.coefficients[i].value,
              got.synopsis.coefficients()[i].value)
        << label << " coefficient " << i;
  }
}

struct ParallelCase {
  ErrorMetric metric;
  std::size_t domain;
  std::size_t budget;
  std::uint64_t seed;
};

class WaveletParallelDeterminismTest
    : public ::testing::TestWithParam<ParallelCase> {};

// The acceptance sweep: thread counts {1, 2, 8} x every SIMD path the
// machine supports, all compared against the scalar sequential solve
// bit-for-bit. kMae exercises the max-combiner bisection, kSae the
// chunked sum reduction — both split kernels under parallel dispatch.
TEST_P(WaveletParallelDeterminismTest, BitIdenticalAcrossThreadsAndSimd) {
  const ParallelCase& param = GetParam();
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = param.domain, .max_support = 3, .max_value = 6,
       .seed = param.seed});
  SynopsisOptions options;
  options.metric = param.metric;

  const Baseline want = SequentialBaseline(input, param.budget, options);

  for (std::size_t threads : kThreadCounts) {
    ThreadPool pool(threads - 1);
    for (SimdPath path : testing::SupportedSimdPaths()) {
      ScopedSimdPath forced(path);
      auto result =
          BuildRestrictedWaveletDp(input, param.budget, options, 2048,
                                   /*workspace=*/nullptr, &pool);
      ASSERT_TRUE(result.ok()) << result.status();
      const std::string label = std::string("threads=") +
                                std::to_string(threads) + " simd=" +
                                SimdPathName(path);
      EXPECT_EQ(result->lanes, threads) << label;
      ExpectBitIdentical(want, *result, label.c_str());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, WaveletParallelDeterminismTest,
    ::testing::Values(ParallelCase{ErrorMetric::kMae, 256, 32, 1},
                      ParallelCase{ErrorMetric::kSae, 256, 32, 2},
                      ParallelCase{ErrorMetric::kSare, 128, 24, 3},
                      ParallelCase{ErrorMetric::kMare, 128, 16, 4},
                      ParallelCase{ErrorMetric::kSae, 300, 24, 5}),
    [](const ::testing::TestParamInfo<ParallelCase>& info) {
      return std::string(ErrorMetricName(info.param.metric)) + "_n" +
             std::to_string(info.param.domain) + "_B" +
             std::to_string(info.param.budget) + "_seed" +
             std::to_string(info.param.seed);
    });

// The ascending split scan must be parallel-safe too: at B = 24 every
// split is below kSmallBudgetSplit, so each one runs the scan.
TEST(WaveletParallel, ReferenceKernelMatchesUnderThreads) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 200, .max_support = 3, .max_value = 6, .seed = 77});
  SynopsisOptions options;
  options.metric = ErrorMetric::kMae;
  static_assert(24 < kSmallBudgetSplit);
  auto sequential = BuildRestrictedWaveletDp(input, 24, options);
  ASSERT_TRUE(sequential.ok());
  ThreadPool pool(7);
  auto parallel =
      BuildRestrictedWaveletDp(input, 24, options, 2048, nullptr, &pool);
  ASSERT_TRUE(parallel.ok());
  ExpectBitIdentical({sequential->cost, sequential->synopsis.coefficients()},
                     *parallel, "scan splits");
}

// A leased workspace arena serves parallel solves without extra growth:
// the fill writes the same spans from more threads, nothing more.
TEST(WaveletParallel, WorkspaceReuseStaysZeroAllocAcrossThreadCounts) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 128, .max_support = 3, .max_value = 6, .seed = 9});
  SynopsisOptions options;
  options.metric = ErrorMetric::kSae;

  DpWorkspacePool workspaces;
  DpWorkspacePool::Lease lease = workspaces.Acquire();
  auto warmup =
      BuildRestrictedWaveletDp(input, 16, options, 2048, lease.get());
  ASSERT_TRUE(warmup.ok());
  const std::size_t grows = lease.get()->wavelet_arena().grow_events;

  for (std::size_t threads : kThreadCounts) {
    ThreadPool pool(threads - 1);
    auto again = BuildRestrictedWaveletDp(input, 16, options, 2048,
                                          lease.get(), &pool);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->cost, warmup->cost);
    EXPECT_EQ(lease.get()->wavelet_arena().grow_events, grows)
        << "threads=" << threads << " grew the arena";
  }
}

// The engine plans the pool into the restricted-DP route and surfaces the
// lane count as par= in the solver string.
TEST(WaveletParallel, EngineRecordsParInSolverString) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 300, .max_support = 3, .max_value = 6, .seed = 21});
  SynopsisRequest request;
  request.kind = SynopsisKind::kWavelet;
  request.wavelet_method = WaveletMethod::kRestrictedDp;
  request.budget = 16;
  request.options.metric = ErrorMetric::kMae;

  SynopsisEngine sequential({.parallelism = 1});
  auto seq = sequential.Build(input, request);
  ASSERT_TRUE(seq.ok()) << seq.status();
  EXPECT_NE(seq->solver.find("par=1"), std::string::npos) << seq->solver;

  SynopsisEngine parallel({.parallelism = 4});
  auto par = parallel.Build(input, request);
  ASSERT_TRUE(par.ok()) << par.status();
  EXPECT_NE(par->solver.find("par=4"), std::string::npos) << par->solver;
  EXPECT_EQ(seq->cost, par->cost);

  // Domains below the engine's parallel cutoff stay sequential.
  ValuePdfInput tiny = GenerateRandomValuePdf(
      {.domain_size = 64, .max_support = 3, .max_value = 6, .seed = 22});
  auto small = parallel.Build(tiny, request);
  ASSERT_TRUE(small.ok()) << small.status();
  EXPECT_NE(small->solver.find("par=1"), std::string::npos) << small->solver;
}

}  // namespace
}  // namespace probsyn
