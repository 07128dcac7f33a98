// Batched streaming ingest: PushBatch's bit-identity to the textbook
// one-item-at-a-time builder for any split of the stream (pinned by a
// seeded differential sweep across split patterns and SIMD paths),
// chain-store bookkeeping, and the IngestCoordinator's determinism,
// backpressure policies, and cancellation plumbing. Suite names stay under
// Ingest*/PushBatch* so the CI TSan job's -R regex picks them up.

#include "stream/ingest_coordinator.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "engine/synopsis_engine.h"
#include "gen/generators.h"
#include "reference/reference_solvers.h"
#include "stream/streaming_histogram.h"
#include "util/deadline.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "test_util.h"

namespace probsyn {
namespace {

// Splitmix-style deterministic case parameters.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// The textbook builder's result on `input`, pushed one item at a time.
StreamingHistogramBuilder::Result SequentialReference(
    const ValuePdfInput& input, std::size_t buckets, double epsilon) {
  reference::StreamingBuilder builder(buckets, epsilon);
  for (const ValuePdf& pdf : input.items()) builder.Push(pdf);
  auto result = builder.Finish();
  PROBSYN_CHECK(result.ok());
  return std::move(result).value();
}

void ExpectBitIdentical(const StreamingHistogramBuilder::Result& a,
                        const StreamingHistogramBuilder::Result& b) {
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.peak_breakpoints, b.peak_breakpoints);
  ASSERT_EQ(a.histogram.num_buckets(), b.histogram.num_buckets());
  for (std::size_t i = 0; i < a.histogram.num_buckets(); ++i) {
    EXPECT_EQ(a.histogram.buckets()[i].start, b.histogram.buckets()[i].start);
    EXPECT_EQ(a.histogram.buckets()[i].end, b.histogram.buckets()[i].end);
    EXPECT_EQ(a.histogram.buckets()[i].representative,
              b.histogram.buckets()[i].representative);
  }
}

// How a differential case splits its stream into PushBatch calls.
enum class Split {
  kRandom,         // 1..70 items per call
  kPartialGroups,  // 0..3 full 8-item groups plus a partial one of 1..7
};

// Feeds `items` to `builder` in calls of the sizes `split` draws from
// `rng`.
void PushSplit(StreamingHistogramBuilder& builder,
               std::span<const ValuePdf> items, Split split,
               std::uint64_t rng) {
  std::size_t offset = 0;
  for (std::size_t call = 0; offset < items.size(); ++call) {
    rng = Mix(rng);
    const std::size_t size = split == Split::kRandom
                                 ? 1 + (rng >> 8) % 70
                                 : 8 * (rng % 4) + 1 + call % 7;
    const std::size_t block = std::min(size, items.size() - offset);
    builder.PushBatch(items.subspan(offset, block));
    offset += block;
  }
}

// The batching contract: PushBatch split any way — one item per call,
// every partial lane group 1..7, random blocks — is bit-identical to the
// textbook one-item-at-a-time builder (cost, peak, every bucket) under
// every SIMD path, and a one-item stream and a split stream leave the same
// live boundary-chain nodes. 200 seeded cases spanning budgets, slacks,
// and split patterns.
TEST(PushBatch, DifferentialSweepBitIdenticalToSinglePush) {
  const std::vector<SimdPath> paths = testing::SupportedSimdPaths();
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const std::size_t n = 50 + Mix(seed) % 351;
    const std::size_t buckets = 1 + Mix(seed * 3 + 1) % 16;
    const double epsilon = 0.05 + 0.45 * (Mix(seed * 5 + 2) % 10) / 10.0;
    const Split split = seed % 2 == 0 ? Split::kRandom : Split::kPartialGroups;
    ValuePdfInput input = GenerateRandomValuePdf(
        {.domain_size = n, .max_support = 4, .max_value = 9, .seed = seed});
    const StreamingHistogramBuilder::Result reference =
        SequentialReference(input, buckets, epsilon);
    const std::span<const ValuePdf> items(input.items().data(), n);
    for (SimdPath path : paths) {
      testing::ScopedSimdPath forced(path);
      StreamChainStore one_item_store;
      StreamingHistogramBuilder one_item(buckets, epsilon, &one_item_store);
      testing::PushOneAtATime(one_item, items);
      auto one_item_result = one_item.Finish();
      ASSERT_TRUE(one_item_result.ok()) << one_item_result.status();
      ExpectBitIdentical(reference, *one_item_result);

      StreamChainStore split_store;
      StreamingHistogramBuilder batched(buckets, epsilon, &split_store);
      PushSplit(batched, items, split, Mix(seed * 7 + 3));
      auto batched_result = batched.Finish();
      ASSERT_TRUE(batched_result.ok()) << batched_result.status();
      ExpectBitIdentical(reference, *batched_result);
      // Same live boundary-chain nodes however the stream was split
      // (hash-consing makes the live set structural, not
      // history-dependent).
      EXPECT_EQ(split_store.stats().live, one_item_store.stats().live)
          << "seed " << seed << " " << SimdPathName(path);
    }
  }
}

// Every dispatchable SIMD path produces the textbook bits, fed as one
// block or one item at a time (the AVX-512 lane kernel's correctly-rounded
// division and clamp-free fallback, the AVX2 divide path, the vector
// paths' one-push partial-group tail, and the scalar lanes all agree
// exactly).
TEST(PushBatch, BitIdenticalAcrossSimdPaths) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 300, .max_support = 4, .max_value = 9, .seed = 77});
  const std::span<const ValuePdf> items(input.items().data(),
                                        input.items().size());
  StreamingHistogramBuilder::Result reference =
      SequentialReference(input, 12, 0.1);
  for (SimdPath path : testing::SupportedSimdPaths()) {
    testing::ScopedSimdPath forced(path);
    StreamingHistogramBuilder batched(12, 0.1);
    batched.PushBatch(items);
    auto result = batched.Finish();
    ASSERT_TRUE(result.ok()) << result.status();
    ExpectBitIdentical(reference, *result);

    StreamingHistogramBuilder one_item(12, 0.1);
    testing::PushOneAtATime(one_item, items);
    auto one_item_result = one_item.Finish();
    ASSERT_TRUE(one_item_result.ok()) << one_item_result.status();
    ExpectBitIdentical(reference, *one_item_result);
  }
}

// Steady state: once a shared chain store has served one batched stream,
// further identical streams allocate nothing new (no grow events and no
// net live-node drift after each builder releases its references).
TEST(PushBatch, ZeroSteadyStateAllocationThroughSharedStore) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 400, .max_support = 4, .max_value = 9, .seed = 11});
  const std::span<const ValuePdf> items(input.items().data(),
                                        input.items().size());
  StreamChainStore store;
  auto run_stream = [&] {
    StreamingHistogramBuilder builder(10, 0.15, &store);
    for (std::size_t offset = 0; offset < items.size(); offset += 96) {
      builder.PushBatch(
          items.subspan(offset, std::min<std::size_t>(96, items.size() - offset)));
    }
    auto result = builder.Finish();
    PROBSYN_CHECK(result.ok());
  };
  run_stream();  // warm the store's node capacity
  const std::size_t warm_grow_events = store.stats().grow_events;
  const std::size_t warm_live = store.stats().live;
  for (int repeat = 0; repeat < 3; ++repeat) run_stream();
  EXPECT_EQ(store.stats().grow_events, warm_grow_events);
  EXPECT_EQ(store.stats().live, warm_live);
}

// ---------------------------------------------------------------------
// IngestCoordinator.

std::vector<ValuePdfInput> MultiStreamInputs(std::size_t streams,
                                             std::size_t items) {
  std::vector<ValuePdfInput> inputs;
  inputs.reserve(streams);
  for (std::size_t s = 0; s < streams; ++s) {
    inputs.push_back(GenerateRandomValuePdf(
        {.domain_size = items, .max_support = 4, .max_value = 9,
         .seed = 500 + s}));
  }
  return inputs;
}

// Runs `streams` streams through a coordinator on an engine with the given
// parallelism, submitting in waves with interleaved DrainAll calls.
std::vector<StreamingHistogramBuilder::Result> RunCoordinator(
    std::size_t parallelism, const std::vector<ValuePdfInput>& inputs,
    const IngestOptions& options) {
  SynopsisEngine engine(SynopsisEngine::Options{.parallelism = parallelism});
  auto coordinator = engine.OpenIngest(options);
  PROBSYN_CHECK(coordinator.ok());
  IngestCoordinator& coord = **coordinator;
  for (std::size_t s = 0; s < inputs.size(); ++s) coord.OpenStream();
  const std::size_t items = inputs[0].items().size();
  const std::size_t wave = 100;
  for (std::size_t offset = 0; offset < items; offset += wave) {
    for (std::size_t s = 0; s < inputs.size(); ++s) {
      const std::span<const ValuePdf> all(inputs[s].items().data(), items);
      Status status = coord.SubmitBatch(
          s, all.subspan(offset, std::min(wave, items - offset)));
      PROBSYN_CHECK(status.ok());
    }
    PROBSYN_CHECK(coord.DrainAll().ok());
  }
  std::vector<StreamingHistogramBuilder::Result> results;
  for (std::size_t s = 0; s < inputs.size(); ++s) {
    auto result = coord.Finish(s);
    PROBSYN_CHECK(result.ok());
    results.push_back(std::move(result).value());
  }
  return results;
}

// Determinism across thread counts and SIMD paths: every configuration
// must reproduce the plain sequential per-stream builders bit-for-bit
// (per-stream FIFO + PushBatch bit-identity make drain timing invisible).
TEST(Ingest, DeterministicAcrossThreadCountsAndSimdPaths) {
  const std::vector<ValuePdfInput> inputs = MultiStreamInputs(4, 300);
  IngestOptions options;
  options.max_buckets = 8;
  options.epsilon = 0.25;
  options.queue_capacity = 128;
  options.drain_batch = 48;
  std::vector<StreamingHistogramBuilder::Result> reference;
  for (const ValuePdfInput& input : inputs) {
    reference.push_back(SequentialReference(input, 8, 0.25));
  }
  const std::vector<SimdPath> paths = {SimdPath::kScalar,
                                       testing::SupportedSimdPaths().back()};
  for (SimdPath path : paths) {
    testing::ScopedSimdPath forced(path);
    for (std::size_t threads : {1u, 2u, 8u}) {
      auto results = RunCoordinator(threads, inputs, options);
      ASSERT_EQ(results.size(), reference.size());
      for (std::size_t s = 0; s < results.size(); ++s) {
        ExpectBitIdentical(reference[s], results[s]);
      }
    }
  }
}

TEST(Ingest, RejectWithStatusFailsWhenFull) {
  IngestCoordinator coord(
      IngestOptions{.max_buckets = 4,
                    .epsilon = 0.5,
                    .queue_capacity = 8,
                    .backpressure = IngestBackpressure::kRejectWithStatus},
      nullptr, nullptr);
  coord.OpenStream();
  const ValuePdf item = ValuePdf::PointMass(1.0);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(coord.Submit(0, item).ok());
  Status rejected = coord.Submit(0, item);
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(coord.stats().rejected, 1u);
  EXPECT_EQ(coord.stats().accepted, 8u);
}

TEST(Ingest, ShedOldestDropsHeadAndCounts) {
  IngestCoordinator coord(
      IngestOptions{.max_buckets = 4,
                    .epsilon = 0.5,
                    .queue_capacity = 4,
                    .backpressure = IngestBackpressure::kShedOldest},
      nullptr, nullptr);
  coord.OpenStream();
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(
        coord.Submit(0, ValuePdf::PointMass(static_cast<double>(i))).ok());
  }
  EXPECT_EQ(coord.stats().shed, 6u);
  EXPECT_EQ(coord.stats().accepted, 10u);
  ASSERT_TRUE(coord.DrainAll().ok());
  // Only the newest queue_capacity items reach the builder.
  EXPECT_EQ(coord.stats().pushed, 4u);
}

// kBlock with a tiny queue and no pool: Submit must drain inline rather
// than deadlock, and the result still matches the sequential builder.
TEST(Ingest, BlockPolicyDrainsInlineSingleThreaded) {
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 200, .max_support = 4, .max_value = 9, .seed = 21});
  IngestCoordinator coord(
      IngestOptions{.max_buckets = 6, .epsilon = 0.3, .queue_capacity = 8,
                    .drain_batch = 8},
      nullptr, nullptr);
  coord.OpenStream();
  for (const ValuePdf& pdf : input.items()) {
    ASSERT_TRUE(coord.Submit(0, pdf).ok());
  }
  auto result = coord.Finish(0);
  ASSERT_TRUE(result.ok()) << result.status();
  StreamingHistogramBuilder::Result reference =
      SequentialReference(input, 6, 0.3);
  ExpectBitIdentical(reference, *result);
}

TEST(Ingest, CancelStopsDrainAndBlockedSubmit) {
  CancelToken cancel;
  ExecContext context(Deadline::Never(), &cancel);
  IngestCoordinator coord(
      IngestOptions{.max_buckets = 4, .epsilon = 0.5, .queue_capacity = 4,
                    .context = &context},
      nullptr, nullptr);
  coord.OpenStream();
  const ValuePdf item = ValuePdf::PointMass(2.0);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(coord.Submit(0, item).ok());
  cancel.Cancel();
  // The drain loop polls before touching the builder: nothing is pushed.
  Status drain = coord.DrainAll();
  EXPECT_EQ(drain.code(), StatusCode::kCancelled);
  EXPECT_EQ(coord.stats().pushed, 0u);
  // A blocked Submit (queue still full) unwinds with the same status
  // instead of waiting forever.
  Status blocked = coord.Submit(0, item);
  EXPECT_EQ(blocked.code(), StatusCode::kCancelled);
  // After re-arming, the stream drains and finishes normally.
  cancel.Reset();
  ASSERT_TRUE(coord.DrainAll().ok());
  EXPECT_EQ(coord.stats().pushed, 4u);
}

TEST(Ingest, RejectsUnknownAndFinishedStreams) {
  IngestCoordinator coord(IngestOptions{}, nullptr, nullptr);
  EXPECT_EQ(coord.Submit(0, ValuePdf::PointMass(1.0)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(coord.Finish(3).status().code(), StatusCode::kInvalidArgument);
  const std::size_t stream = coord.OpenStream();
  ASSERT_TRUE(coord.Submit(stream, ValuePdf::PointMass(1.0)).ok());
  ASSERT_TRUE(coord.Finish(stream).ok());
  EXPECT_EQ(coord.Submit(stream, ValuePdf::PointMass(1.0)).code(),
            StatusCode::kFailedPrecondition);
  // Finish stays re-callable (non-destructive).
  EXPECT_TRUE(coord.Finish(stream).ok());
}

// Moments near 1e200 overflow the running second-moment sums, so the
// stream's cost is NaN: Finish must fail instead of returning it as a
// valid one-bucket synopsis.
TEST(Ingest, NonFiniteStreamCostFailsFinish) {
  SynopsisEngine engine(SynopsisEngine::Options{.parallelism = 1});
  auto coordinator = engine.OpenIngest({.max_buckets = 2});
  ASSERT_TRUE(coordinator.ok()) << coordinator.status();
  IngestCoordinator& coord = **coordinator;
  const std::size_t stream = coord.OpenStream();
  for (double mass : {1e200, 3e200, 2e200, 5e200}) {
    ASSERT_TRUE(coord.Submit(stream, ValuePdf::PointMass(mass)).ok());
  }
  EXPECT_EQ(coord.Finish(stream).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Ingest, OpenIngestValidatesOptions) {
  SynopsisEngine engine;
  EXPECT_EQ(engine.OpenIngest({.max_buckets = 0}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.OpenIngest({.epsilon = 0.0}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.OpenIngest({.queue_capacity = 0}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.OpenIngest({.drain_batch = 0}).status().code(),
            StatusCode::kInvalidArgument);
  auto coordinator = engine.OpenIngest(IngestOptions{});
  ASSERT_TRUE(coordinator.ok());
  // Streams lease engine workspaces; the lease count returns to zero only
  // when the coordinator goes away, so just check it grows per stream.
  (*coordinator)->OpenStream();
  EXPECT_EQ(engine.workspace_pool_stats().outstanding, 1u);
  coordinator->reset();
  EXPECT_EQ(engine.workspace_pool_stats().outstanding, 0u);
}

// The shared poll-cadence helper both the engine's streaming loop and the
// ingest drain loop run on.
TEST(IngestPollGate, PollsOnPowerOfTwoCadence) {
  CancelToken cancel;
  ExecContext context(Deadline::Never(), &cancel);
  cancel.Cancel();
  PollGate gate(4);
  // First call polls (historical (pushed & 15) == 0 behavior), then every
  // 4th.
  EXPECT_TRUE(gate.ShouldStop(&context));
  EXPECT_FALSE(gate.ShouldStop(&context));
  EXPECT_FALSE(gate.ShouldStop(&context));
  EXPECT_FALSE(gate.ShouldStop(&context));
  EXPECT_TRUE(gate.ShouldStop(&context));
  PollGate every_call(1);
  EXPECT_TRUE(every_call.ShouldStop(&context));
  EXPECT_TRUE(every_call.ShouldStop(&context));
  PollGate null_context;
  EXPECT_FALSE(null_context.ShouldStop(nullptr));
}

}  // namespace
}  // namespace probsyn
