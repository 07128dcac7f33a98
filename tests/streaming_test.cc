// One-pass streaming histogram builder: approximation guarantee against
// the offline exact DP, bounded memory, and exactness of returned costs.

#include "stream/streaming_histogram.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "core/evaluate.h"
#include "gen/generators.h"
#include "model/induced.h"
#include "reference/reference_solvers.h"
#include "util/logging.h"
#include "test_util.h"

namespace probsyn {
namespace {

SynopsisOptions SseOptions() {
  SynopsisOptions options;
  options.metric = ErrorMetric::kSse;
  options.sse_variant = SseVariant::kFixedRepresentative;
  return options;
}

struct StreamCase {
  std::size_t buckets;
  double epsilon;
  std::uint64_t seed;
};

class StreamingGuaranteeTest : public ::testing::TestWithParam<StreamCase> {};

TEST_P(StreamingGuaranteeTest, WithinFactorOfOfflineOptimum) {
  const StreamCase& param = GetParam();
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 200, .max_support = 4, .max_value = 9,
       .seed = param.seed});

  StreamingHistogramBuilder builder(param.buckets, param.epsilon);
  builder.PushBatch(input.items());
  auto result = builder.Finish();
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->histogram.Validate(200).ok());
  EXPECT_LE(result->histogram.num_buckets(), param.buckets);

  // The reported cost is the exact expected SSE of the returned histogram.
  auto evaluated = EvaluateHistogram(input, result->histogram, SseOptions());
  ASSERT_TRUE(evaluated.ok());
  EXPECT_NEAR(*evaluated, result->cost, 1e-7);

  // And it is within (1 + eps) of the offline exact optimum.
  auto offline = testing::BuildHistogram(input, SseOptions(), param.buckets);
  ASSERT_TRUE(offline.ok());
  double opt = offline->cost;
  EXPECT_GE(result->cost, opt - 1e-9);
  EXPECT_LE(result->cost, (1.0 + param.epsilon) * opt + 1e-6)
      << "B=" << param.buckets << " eps=" << param.epsilon << " seed "
      << param.seed;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, StreamingGuaranteeTest,
    ::testing::Values(StreamCase{4, 0.1, 1}, StreamCase{4, 0.1, 2},
                      StreamCase{8, 0.1, 3}, StreamCase{8, 0.25, 4},
                      StreamCase{8, 0.5, 5}, StreamCase{16, 0.1, 6},
                      StreamCase{16, 1.0, 7}, StreamCase{2, 0.05, 8},
                      StreamCase{1, 0.1, 9}),
    [](const ::testing::TestParamInfo<StreamCase>& info) {
      return "B" + std::to_string(info.param.buckets) + "_eps" +
             std::to_string(static_cast<int>(info.param.epsilon * 100)) +
             "_seed" + std::to_string(info.param.seed);
    });

TEST(Streaming, MemoryStaysSublinear) {
  // Breakpoint count is O((B^2/eps) log(error range)) by the geometric-
  // class argument: doubling the stream must grow memory only by the
  // log-range increment, not 2x.
  auto peak_for = [](std::size_t n) {
    BasicModelInput basic = GenerateMovieLinkage({.domain_size = n, .seed = 77});
    auto induced = InduceValuePdf(basic);
    PROBSYN_CHECK(induced.ok());
    StreamingHistogramBuilder builder(8, 0.25);
    builder.PushBatch(induced->items());
    auto result = builder.Finish();
    PROBSYN_CHECK(result.ok());
    PROBSYN_CHECK(result->histogram.Validate(n).ok());
    return result->peak_breakpoints;
  };
  std::size_t at_2000 = peak_for(2000);
  std::size_t at_4000 = peak_for(4000);
  EXPECT_LT(at_4000, 4000u);  // far below one-per-item
  EXPECT_LT(at_4000, at_2000 + at_2000 / 2)
      << "memory grew superlogarithmically: " << at_2000 << " -> " << at_4000;
}

TEST(Streaming, DeterministicStreamWithEnoughBucketsIsExact) {
  std::vector<ValuePdf> items;
  for (double f : {5.0, 5.0, 1.0, 1.0, 9.0, 9.0, 2.0, 2.0}) {
    items.push_back(ValuePdf::PointMass(f));
  }
  StreamingHistogramBuilder builder(4, 0.1);
  builder.PushBatch(items);
  auto result = builder.Finish();
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->cost, 0.0, 1e-9);
  EXPECT_EQ(result->histogram.num_buckets(), 4u);
  EXPECT_DOUBLE_EQ(result->histogram.Estimate(0), 5.0);
  EXPECT_DOUBLE_EQ(result->histogram.Estimate(4), 9.0);
}

TEST(Streaming, FinishIsNonDestructiveAndRepeatable) {
  ValuePdfInput input = GenerateRandomValuePdf({.domain_size = 50, .seed = 3});
  const std::span<const ValuePdf> items = input.items();
  StreamingHistogramBuilder builder(5, 0.2);
  builder.PushBatch(items.first(25));
  auto first = builder.Finish();
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->histogram.Validate(25).ok());

  builder.PushBatch(items.subspan(25));
  auto second = builder.Finish();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->histogram.Validate(50).ok());
  EXPECT_EQ(builder.items_seen(), 50u);

  // Costs never report below the offline optimum at either point.
  auto offline = testing::BuildHistogram(input, SseOptions(), 5);
  ASSERT_TRUE(offline.ok());
  EXPECT_GE(second->cost, offline->cost - 1e-9);
}

// The builder fed one item per PushBatch call (hoisted snapshot columns +
// the SIMD sweep's one-push tail + persistent chains) must reproduce the
// compare-and-copy scan of tests/reference bit-for-bit on every SIMD path:
// same costs, same bucket boundaries and representatives, same breakpoint
// counts at every prefix.
TEST(Streaming, PointCostKernelMatchesReferenceBitForBit) {
  struct Case {
    std::size_t buckets;
    double epsilon;
    std::uint64_t seed;
  };
  for (const Case& c : {Case{4, 0.1, 11}, Case{8, 0.25, 12},
                        Case{16, 0.05, 13}, Case{1, 0.5, 14}}) {
    ValuePdfInput input = GenerateRandomValuePdf(
        {.domain_size = 300, .max_support = 4, .max_value = 9,
         .seed = c.seed});
    for (SimdPath path : testing::SupportedSimdPaths()) {
      testing::ScopedSimdPath forced(path);
      reference::StreamingBuilder reference(c.buckets, c.epsilon);
      StreamingHistogramBuilder fast(c.buckets, c.epsilon);
      for (std::size_t i = 0; i < input.domain_size(); ++i) {
        reference.Push(input.item(i));
        fast.PushBatch({&input.item(i), 1});
        if (i % 50 == 0) {
          ASSERT_EQ(reference.breakpoints(), fast.breakpoints())
              << "prefix " << i << " B=" << c.buckets << " "
              << SimdPathName(path);
        }
      }
      auto ref_result = reference.Finish();
      auto fast_result = fast.Finish();
      ASSERT_TRUE(ref_result.ok() && fast_result.ok());
      EXPECT_EQ(ref_result->cost, fast_result->cost)
          << "B=" << c.buckets << " " << SimdPathName(path);
      EXPECT_EQ(ref_result->peak_breakpoints, fast_result->peak_breakpoints);
      ASSERT_EQ(ref_result->histogram.num_buckets(),
                fast_result->histogram.num_buckets());
      for (std::size_t i = 0; i < ref_result->histogram.num_buckets(); ++i) {
        const HistogramBucket& want = ref_result->histogram.buckets()[i];
        const HistogramBucket& got = fast_result->histogram.buckets()[i];
        EXPECT_EQ(want.start, got.start);
        EXPECT_EQ(want.end, got.end);
        EXPECT_EQ(want.representative, got.representative);
      }
    }
  }
}

// Without an injected store the builder owns one: persistent chains are
// its only representation.
TEST(Streaming, DefaultKernelIsPointCost) {
  StreamingHistogramBuilder builder(4, 0.1);
  ASSERT_NE(builder.chain_store(), nullptr);
  builder.PushBatch(std::vector<ValuePdf>{ValuePdf::PointMass(1.0),
                                          ValuePdf::PointMass(5.0)});
  EXPECT_GT(builder.chain_store()->stats().created, 0u);
}

// --- Persistent chain store (StreamChainStore) accounting. ---------------

// Every chain reference the builder takes must come back: with an injected
// store, the live-node count returns to its pre-builder baseline once the
// builder is destroyed (Finish is non-destructive and must not leak
// either). This is the refcount-leak half of the acceptance criteria.
TEST(Streaming, ChainNodeRefcountsReturnToBaselineAfterFinalize) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 400, .max_support = 4, .max_value = 9, .seed = 91});
  StreamChainStore store;
  {
    StreamingHistogramBuilder builder(8, 0.2, &store);
    builder.PushBatch(input.items());
    EXPECT_GT(store.stats().live, 0u);

    auto first = builder.Finish();
    ASSERT_TRUE(first.ok());
    const std::size_t live_after_finish = store.stats().live;

    // Finish walks chains read-only: no references taken or dropped.
    auto second = builder.Finish();
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(store.stats().live, live_after_finish);
    EXPECT_EQ(first->cost, second->cost);
  }
  EXPECT_EQ(store.stats().live, 0u);
  EXPECT_EQ(store.stats().created, store.stats().freed);
}

// Zero steady-state allocation, mirroring the wavelet arena's
// WaveletDpArena::grow_events contract: a second stream through the same
// (warm) store must not grow the node pool, hash table, or free list.
TEST(Streaming, ChainStoreReuseAllocatesNoNodes) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 600, .max_support = 4, .max_value = 9, .seed = 92});
  StreamChainStore store;
  auto run_stream = [&] {
    StreamingHistogramBuilder builder(8, 0.25, &store);
    builder.PushBatch(input.items());
    auto result = builder.Finish();
    PROBSYN_CHECK(result.ok());
    return result->cost;
  };
  const double first = run_stream();
  const std::size_t grows_after_warmup = store.stats().grow_events;
  EXPECT_GT(grows_after_warmup, 0u);  // the warmup stream sized the pool
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_EQ(run_stream(), first);
    EXPECT_EQ(store.stats().grow_events, grows_after_warmup)
        << "repeat stream " << repeat << " grew the chain store";
  }
}

// O(1) chain work per item: the builder performs at most one chain-store
// operation per layer per item — Extend on the winner or a refcount bump
// on inheritance — REGARDLESS of chain length. The textbook scan copies
// the full winner chain instead, so its snapshot copies grow
// superlinearly in B; the counter pins the bound.
TEST(Streaming, PushDoesConstantChainWorkPerLayer) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 500, .max_support = 4, .max_value = 9, .seed = 93});
  const std::size_t kBuckets = 16;
  StreamingHistogramBuilder builder(kBuckets, 0.1);
  testing::PushOneAtATime(builder, input.items());

  ASSERT_NE(builder.chain_store(), nullptr);
  const StreamChainStore::Stats& stats = builder.chain_store()->stats();
  // At most one node creation or cons hit per layer per push (layers 2..B
  // extend; layer 1 never does).
  EXPECT_LE(stats.created + stats.consed,
            input.domain_size() * (kBuckets - 1));
  // Shared suffixes keep the live set far below the sum of chain lengths:
  // every committed/pending breakpoint holds one head reference, so live
  // nodes can only beat breakpoints * (B - 1) through sharing.
  auto result = builder.Finish();
  ASSERT_TRUE(result.ok());
  EXPECT_LE(stats.live, builder.breakpoints() * (kBuckets - 1));
  EXPECT_GT(stats.consed, 0u);  // hash-consing actually deduplicates
}

TEST(Streaming, EmptyStreamFails) {
  StreamingHistogramBuilder builder(4, 0.1);
  auto result = builder.Finish();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Streaming, SingleItem) {
  StreamingHistogramBuilder builder(4, 0.1);
  auto pdf = ValuePdf::Create({{3.0, 0.5}});
  ASSERT_TRUE(pdf.ok());
  builder.PushBatch({&pdf.value(), 1});
  auto result = builder.Finish();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->histogram.num_buckets(), 1u);
  EXPECT_DOUBLE_EQ(result->histogram.Estimate(0), 1.5);
  // Irreducible variance of {0: .5, 3: .5}.
  EXPECT_NEAR(result->cost, 0.5 * 9.0 - 1.5 * 1.5, 1e-12);
}

TEST(Streaming, MatchesPaperExampleOneBucket) {
  // Value-pdf Example 1 items pushed as a stream, B = 1: cost must equal
  // the offline 1-bucket SSE (fixed representative).
  ValuePdfInput input = testing::PaperExampleValuePdf();
  StreamingHistogramBuilder builder(1, 0.1);
  builder.PushBatch(input.items());
  auto result = builder.Finish();
  ASSERT_TRUE(result.ok());
  auto offline = testing::BuildHistogram(input, SseOptions(), 1);
  ASSERT_TRUE(offline.ok());
  EXPECT_NEAR(result->cost, offline->cost, 1e-12);
}

}  // namespace
}  // namespace probsyn
