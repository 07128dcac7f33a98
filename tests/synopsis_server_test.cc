// Serving-tier tests: the mmap store (serve/synopsis_store.h) and the query
// server (serve/synopsis_server.h). The centerpiece is a 200-case seeded
// differential sweep (8 blocks x 25 seeds, the dp_property_test.cc harness
// shape) asserting that every query served from a persisted-and-reopened
// store is BITWISE-equal to the same query on the construction-side object —
// build -> encode -> write -> mmap -> decode -> serve loses nothing, across
// SIMD dispatch paths. Around it: store unit tests (lookup, duplicates,
// corruption, zero-copy views) and concurrent-reader determinism with four
// unsynchronized threads (run under TSan in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/synopsis_engine.h"
#include "gen/generators.h"
#include "reference/reference_solvers.h"
#include "test_util.h"
#include "util/fault_injection.h"
#include "util/random.h"

namespace probsyn {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Deterministic probe ranges covering singletons, prefixes, suffixes, and
// seed-dependent interior spans.
std::vector<std::pair<std::size_t, std::size_t>> ProbeRanges(
    std::size_t n, std::uint64_t seed) {
  std::vector<std::pair<std::size_t, std::size_t>> ranges = {
      {0, 0}, {n - 1, n - 1}, {0, n - 1}, {0, n / 2}, {n / 2, n - 1}};
  for (int k = 1; k <= 3; ++k) {
    std::size_t a = (seed * 31 + static_cast<std::uint64_t>(k) * 97) % n;
    std::size_t b = a + (seed * 13 + static_cast<std::uint64_t>(k) * 41) %
                            (n - a);
    ranges.emplace_back(a, b);
  }
  return ranges;
}

// --- The differential sweep: serve == construct, bit for bit. ---------------

class SynopsisServeDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SynopsisServeDifferentialTest, ServedQueriesMatchConstructionBitwise) {
  constexpr std::uint64_t kSeedsPerBlock = 25;
  SynopsisEngine engine({.parallelism = 1});
  for (std::uint64_t k = 0; k < kSeedsPerBlock; ++k) {
    const std::uint64_t seed = GetParam() * kSeedsPerBlock + k + 1;
    const std::size_t n = 40 + (seed * 7919) % 160;
    const std::size_t buckets = 1 + (seed * 104729) % 12;
    const std::size_t coeffs = 1 + (seed * 7907) % 16;
    ValuePdfInput input = GenerateRandomValuePdf(
        {.domain_size = n, .max_support = 4, .max_value = 9, .seed = seed});

    SynopsisRequest hist_request;
    hist_request.kind = SynopsisKind::kHistogram;
    hist_request.budget = buckets;
    SynopsisRequest wave_request;
    wave_request.kind = SynopsisKind::kWavelet;
    wave_request.budget = coeffs;
    auto hist = engine.Build(input, hist_request);
    auto wave = engine.Build(input, wave_request);
    ASSERT_TRUE(hist.ok() && wave.ok()) << "seed " << seed;

    const std::string path =
        TempPath("diff_" + std::to_string(seed) + ".synstore");
    std::vector<NamedSynopsis> named;
    named.push_back({"h", *hist});
    named.push_back({"w", *wave});
    ASSERT_TRUE(engine.Store(path, named).ok()) << "seed " << seed;
    auto server = engine.Serve(path);
    ASSERT_TRUE(server.ok()) << "seed " << seed << ": "
                             << server.status().ToString();

    const ServedSynopsis* sh = server->Find("h");
    const ServedSynopsis* sw = server->Find("w");
    ASSERT_NE(sh, nullptr);
    ASSERT_NE(sw, nullptr);
    EXPECT_EQ(sh->domain_size(), n);
    EXPECT_EQ(sw->domain_size(), n);

    // Point estimates: every item, both kinds, bit for bit; wavelet point
    // estimates on both sides also equal the textbook sparse
    // reconstruction (tests/reference) bit for bit.
    std::vector<std::size_t> indices;
    std::vector<double> values;
    for (const WaveletCoefficient& c : wave->wavelet.coefficients()) {
      indices.push_back(c.index);
      values.push_back(c.value);
    }
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(Bits(hist->histogram.Estimate(i)), Bits(sh->PointEstimate(i)))
          << "seed " << seed << " i=" << i;
      EXPECT_EQ(Bits(wave->wavelet.Estimate(i)), Bits(sw->PointEstimate(i)))
          << "seed " << seed << " i=" << i;
      EXPECT_EQ(Bits(reference::ReconstructPointSparse(
                    indices, values, i, wave->wavelet.transform_size())),
                Bits(sw->PointEstimate(i)))
          << "seed " << seed << " i=" << i;
    }

    // Range sums and averages, bit for bit against the construction-side
    // arithmetic (same loop order for histograms, the shared SparseHaar
    // arithmetic for wavelets).
    for (auto [a, b] : ProbeRanges(n, seed)) {
      const double want_h = hist->histogram.EstimateRangeSum(a, b);
      const double want_w = wave->wavelet.EstimateRangeSum(a, b);
      EXPECT_EQ(Bits(want_h), Bits(sh->RangeSum(a, b)))
          << "seed " << seed << " [" << a << "," << b << "]";
      EXPECT_EQ(Bits(want_w), Bits(sw->RangeSum(a, b)))
          << "seed " << seed << " [" << a << "," << b << "]";
      const double count = static_cast<double>(b - a + 1);
      EXPECT_EQ(Bits(want_h / count), Bits(sh->RangeAverage(a, b)))
          << "seed " << seed;
      auto via_status = server->RangeAverage("w", a, b);
      ASSERT_TRUE(via_status.ok());
      EXPECT_EQ(Bits(want_w / count), Bits(*via_status)) << "seed " << seed;
    }

    // Top-k coefficients: |value| descending, index ascending on ties,
    // checked against an independent ranking of the retained set.
    std::vector<WaveletCoefficient> expected = wave->wavelet.coefficients();
    std::stable_sort(expected.begin(), expected.end(),
                     [](const WaveletCoefficient& x,
                        const WaveletCoefficient& y) {
                       double fx = std::fabs(x.value);
                       double fy = std::fabs(y.value);
                       if (fx != fy) return fx > fy;
                       return x.index < y.index;
                     });
    for (std::size_t top_k : {std::size_t{1}, coeffs / 2 + 1, coeffs + 5}) {
      std::vector<WaveletCoefficient> got = sw->TopCoefficients(top_k);
      std::size_t take = std::min(top_k, expected.size());
      ASSERT_EQ(got.size(), take) << "seed " << seed << " k=" << top_k;
      for (std::size_t r = 0; r < take; ++r) {
        EXPECT_EQ(expected[r].index, got[r].index) << "seed " << seed;
        EXPECT_EQ(Bits(expected[r].value), Bits(got[r].value))
            << "seed " << seed;
      }
    }

    // Forcing the scalar SIMD path must not change a single served bit
    // (serving replays fixed arithmetic; dispatch-sensitive code is all on
    // the construction side).
    {
      probsyn::testing::ScopedSimdPath scalar(SimdPath::kScalar);
      for (std::size_t i = 0; i < n; i += 7) {
        EXPECT_EQ(Bits(hist->histogram.Estimate(i)),
                  Bits(sh->PointEstimate(i)))
            << "scalar seed " << seed << " i=" << i;
      }
      EXPECT_EQ(Bits(wave->wavelet.EstimateRangeSum(0, n - 1)),
                Bits(sw->RangeSum(0, n - 1)))
          << "scalar seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Blocks, SynopsisServeDifferentialTest,
                         ::testing::Range<std::uint64_t>(0, 8));

// --- Served histogram lookups on edge layouts. ------------------------------

// Histograms at the edges of the served bucket search and of the prefix
// masses: n = 1, one bucket, one bucket per item, n not a power of two,
// runs of width-1 buckets beside one wide bucket at either end, and random
// partitions up to B = 4096; representatives of both signs.
std::vector<Histogram> EdgeLayoutHistograms() {
  Rng rng(2026);
  auto from_ends = [&rng](const std::vector<std::size_t>& ends) {
    std::vector<HistogramBucket> buckets;
    std::size_t start = 0;
    for (std::size_t end : ends) {
      buckets.push_back({start, end, rng.NextUniform(-50.0, 50.0)});
      start = end + 1;
    }
    return Histogram(std::move(buckets));
  };
  auto run = [](std::size_t first, std::size_t last) {
    std::vector<std::size_t> ends;
    for (std::size_t e = first; e <= last; ++e) ends.push_back(e);
    return ends;
  };
  std::vector<Histogram> layouts;
  layouts.push_back(from_ends({0}));         // n = 1
  layouts.push_back(from_ends({36}));        // B = 1
  layouts.push_back(from_ends(run(0, 36)));  // B = n = 37
  layouts.push_back(from_ends(run(0, 63)));  // B = n = 64
  std::vector<std::size_t> left_run = run(0, 9);
  left_run.push_back(99);
  layouts.push_back(from_ends(left_run));
  std::vector<std::size_t> right_run = run(89, 99);
  layouts.push_back(from_ends(right_run));
  for (auto [n, b] : {std::pair<std::size_t, std::size_t>{1000, 7},
                      {1000, 64},
                      {65535, 3000},
                      {65536, 4096}}) {
    std::vector<std::size_t> ends;
    std::vector<bool> cut(n - 1, false);
    while (ends.size() + 1 < b) {
      const std::size_t e = rng.NextBounded(n - 1);
      if (!cut[e]) {
        cut[e] = true;
        ends.push_back(e);
      }
    }
    std::sort(ends.begin(), ends.end());
    ends.push_back(n - 1);
    layouts.push_back(from_ends(ends));
  }
  return layouts;
}

ServedSynopsis ServeHistogram(const Histogram& histogram) {
  return ServedSynopsis(
      DecodedSynopsis{SynopsisBlobKind::kHistogram, histogram, {}});
}

// The branch-free bucket search returns std::lower_bound's bucket, so
// every served point keeps the construction side's bits.
TEST(SynopsisServer, HistogramPointsMatchEstimateOnEdgeLayouts) {
  for (const Histogram& h : EdgeLayoutHistograms()) {
    const ServedSynopsis served = ServeHistogram(h);
    const std::size_t n = h.domain_size();
    ASSERT_EQ(served.domain_size(), n);
    ASSERT_EQ(served.num_buckets(), h.num_buckets());
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < n; ++i) {
      mismatches += Bits(h.Estimate(i)) != Bits(served.PointEstimate(i));
    }
    EXPECT_EQ(mismatches, 0u) << "n=" << n << " B=" << h.num_buckets();
  }
}

// Range sums read prefix masses on both sides: the served sum equals the
// construction-side sum bitwise, and both stay within
// 1e-12 * sum_{k<=kb} |width_k rep_k| of the long-double sum of the
// estimates over [a, b]. A range inside one bucket is exact.
TEST(SynopsisServer, HistogramRangeSumsFromPrefixMassesOnEdgeLayouts) {
  Rng rng(2027);
  for (const Histogram& h : EdgeLayoutHistograms()) {
    const ServedSynopsis served = ServeHistogram(h);
    const std::vector<HistogramBucket>& buckets = h.buckets();
    const std::size_t n = h.domain_size();
    const std::vector<double> estimate = h.ToFrequencyVector();
    // masses[k]: sum_{j<=k} |width_j rep_j|, the scale of the bound.
    std::vector<double> masses;
    double running = 0.0;
    for (const HistogramBucket& b : buckets) {
      running += std::fabs(static_cast<double>(b.width()) * b.representative);
      masses.push_back(running);
    }

    std::vector<std::pair<std::size_t, std::size_t>> ranges = {
        {0, n - 1}, {n - 1, n - 1}, {n / 2, n - 1}, {0, 0}};
    for (std::size_t k = 0; k < buckets.size(); ++k) {
      const HistogramBucket& b = buckets[k];
      ranges.emplace_back(b.start, b.end);
      ranges.emplace_back(b.start + b.width() / 4, b.end - b.width() / 4);
      if (k + 1 < buckets.size()) {
        ranges.emplace_back(b.end, b.end + 1);
        ranges.emplace_back(b.start, buckets[k + 1].end);
      }
    }
    for (int r = 0; r < 40; ++r) {
      const std::size_t a = rng.NextBounded(n);
      ranges.emplace_back(a, a + rng.NextBounded(n - a));
      ranges.emplace_back(a, n - 1);
    }

    for (auto [a, b] : ranges) {
      const double built = h.EstimateRangeSum(a, b);
      ASSERT_EQ(Bits(built), Bits(served.RangeSum(a, b)))
          << "n=" << n << " B=" << buckets.size() << " [" << a << "," << b
          << "]";
      long double exact = 0.0L;
      for (std::size_t i = a; i <= b; ++i) exact += estimate[i];
      const std::size_t first = h.BucketIndexOf(a);
      const std::size_t last = h.BucketIndexOf(b);
      if (first == last) {
        ASSERT_EQ(built, static_cast<double>(b - a + 1) *
                             buckets[first].representative)
            << "n=" << n << " [" << a << "," << b << "]";
      }
      const long double error =
          std::fabs(static_cast<long double>(built) - exact);
      ASSERT_LE(error, 1e-12L * masses[last])
          << "n=" << n << " B=" << buckets.size() << " [" << a << "," << b
          << "]";
    }
  }
}

// --- Store unit tests. ------------------------------------------------------

TEST(SynopsisStore, MissingFileFailsWithIOError) {
  auto store = SynopsisStore::Open(TempPath("no_such_store.synstore"));
  EXPECT_EQ(store.status().code(), StatusCode::kIOError);
}

TEST(SynopsisStore, EmptyStoreRoundTrips) {
  const std::string path = TempPath("empty.synstore");
  SynopsisStoreWriter writer;
  ASSERT_TRUE(writer.WriteFile(path).ok());
  auto store = SynopsisStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store->size(), 0u);
  EXPECT_TRUE(store->Names().empty());
  EXPECT_EQ(store->Find("anything").status().code(), StatusCode::kNotFound);
}

TEST(SynopsisStore, RejectsDuplicateAndEmptyNames) {
  SynopsisStoreWriter writer;
  Histogram h({{0, 1, 2.0}});
  EXPECT_EQ(writer.AddHistogram("", h).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(writer.AddHistogram("a", h).ok());
  EXPECT_EQ(writer.AddHistogram("a", h).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(writer.size(), 1u);
}

TEST(SynopsisStore, RejectsMalformedBlobOnAdd) {
  SynopsisStoreWriter writer;
  EXPECT_FALSE(writer.Add("junk", std::string("definitely not a blob")).ok());
}

TEST(SynopsisStore, LookupAndZeroCopyViews) {
  const std::string path = TempPath("lookup.synstore");
  SynopsisStoreWriter writer;
  Histogram h({{0, 3, 1.0}, {4, 7, 2.0}});
  WaveletSynopsis w(8, 8, {{0, 4.0}, {2, -1.0}});
  ASSERT_TRUE(writer.AddHistogram("zeta", h).ok());
  ASSERT_TRUE(writer.AddWavelet("alpha", w).ok());
  ASSERT_TRUE(writer.WriteFile(path).ok());

  auto store = SynopsisStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store->size(), 2u);
  EXPECT_TRUE(store->Contains("zeta"));
  EXPECT_FALSE(store->Contains("beta"));
  EXPECT_EQ(store->Names(), (std::vector<std::string>{"alpha", "zeta"}));

  auto entry = store->Find("alpha");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->kind, SynopsisBlobKind::kWavelet);
  EXPECT_EQ(entry->offset % 8, 0u);

  // RawBlob is a window into the mapping itself — no copy.
  auto blob = store->RawBlob("zeta");
  ASSERT_TRUE(blob.ok());
  std::span<const std::uint8_t> mapped = store->data();
  EXPECT_GE(blob->data(), mapped.data());
  EXPECT_LE(blob->data() + blob->size(), mapped.data() + mapped.size());

  // The blob decodes back to what was written.
  auto decoded = DecodeHistogram(*blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_buckets(), 2u);
}

TEST(SynopsisStore, DeterministicBytesRegardlessOfAddOrder) {
  Histogram h({{0, 1, 1.0}});
  WaveletSynopsis w(2, 2, {{1, 3.0}});
  const std::string path_a = TempPath("order_a.synstore");
  const std::string path_b = TempPath("order_b.synstore");
  {
    SynopsisStoreWriter writer;
    ASSERT_TRUE(writer.AddHistogram("x", h).ok());
    ASSERT_TRUE(writer.AddWavelet("y", w).ok());
    ASSERT_TRUE(writer.WriteFile(path_a).ok());
  }
  {
    SynopsisStoreWriter writer;
    ASSERT_TRUE(writer.AddWavelet("y", w).ok());
    ASSERT_TRUE(writer.AddHistogram("x", h).ok());
    ASSERT_TRUE(writer.WriteFile(path_b).ok());
  }
  auto store_a = SynopsisStore::Open(path_a);
  auto store_b = SynopsisStore::Open(path_b);
  ASSERT_TRUE(store_a.ok() && store_b.ok());
  ASSERT_EQ(store_a->data().size(), store_b->data().size());
  EXPECT_EQ(std::memcmp(store_a->data().data(), store_b->data().data(),
                        store_a->data().size()),
            0);
}

TEST(SynopsisStore, CorruptedFilesFailCleanly) {
  const std::string path = TempPath("corrupt_base.synstore");
  SynopsisStoreWriter writer;
  ASSERT_TRUE(writer.AddHistogram("h", Histogram({{0, 2, 1.5}})).ok());
  ASSERT_TRUE(writer.WriteFile(path).ok());
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 40u);

  // Every single-byte corruption of the header or directory region must be
  // caught at Open (blob-body corruption is caught at decode, which the
  // codec sweep covers; the serving tier catches it in SynopsisServer::Open
  // because FromStore decodes every entry).
  const std::string corrupt_path = TempPath("corrupt.synstore");
  auto write_and_open = [&](const std::string& data) {
    std::ofstream os(corrupt_path, std::ios::binary | std::ios::trunc);
    os.write(data.data(), static_cast<std::streamsize>(data.size()));
    os.close();
    return SynopsisServer::Open(corrupt_path).status();
  };
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0xff);
    Status status = write_and_open(mutated);
    EXPECT_FALSE(status.ok()) << "byte " << pos;
    EXPECT_TRUE(status.code() == StatusCode::kIOError ||
                status.code() == StatusCode::kInvalidArgument)
        << "byte " << pos << ": " << status.ToString();
  }
  // Truncations at a few representative lengths (0, mid-header, mid-blob,
  // one short of complete).
  for (std::size_t len :
       {std::size_t{0}, std::size_t{16}, bytes.size() / 2, bytes.size() - 1}) {
    Status status = write_and_open(bytes.substr(0, len));
    EXPECT_FALSE(status.ok()) << "truncated to " << len;
  }
}

TEST(SynopsisStore, OpenHonorsPdataReadFaultSite) {
  const std::string path = TempPath("faulted.synstore");
  SynopsisStoreWriter writer;
  ASSERT_TRUE(writer.AddHistogram("h", Histogram({{0, 0, 1.0}})).ok());
  ASSERT_TRUE(writer.WriteFile(path).ok());
  {
    ScopedFaultInjection faults(
        {.seed = 11, .rate = 1.0, .only_site = FaultSite::kPdataRead});
    EXPECT_FALSE(SynopsisStore::Open(path).ok());
  }
  EXPECT_TRUE(SynopsisStore::Open(path).ok());
}

// --- Server behavior beyond the sweep. --------------------------------------

StatusOr<SynopsisServer> MakeServer(const std::string& tag) {
  const std::string path = TempPath("server_" + tag + ".synstore");
  SynopsisStoreWriter writer;
  PROBSYN_RETURN_IF_ERROR(writer.AddHistogram(
      "hist", Histogram({{0, 3, 2.0}, {4, 9, -1.0}})));
  PROBSYN_RETURN_IF_ERROR(writer.AddWavelet(
      "wave", WaveletSynopsis(10, 16, {{0, 5.0}, {1, -2.0}, {7, 0.5}})));
  PROBSYN_RETURN_IF_ERROR(writer.WriteFile(path));
  return SynopsisServer::Open(path);
}

TEST(SynopsisServer, ValidatedWrappersReportCleanErrors) {
  auto server = MakeServer("errors");
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_EQ(server->size(), 2u);
  EXPECT_EQ(server->Find("nope"), nullptr);
  EXPECT_EQ(server->PointEstimate("nope", 0).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(server->PointEstimate("hist", 10).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(server->RangeSum("hist", 5, 4).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(server->RangeSum("hist", 0, 10).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(server->TopCoefficients("hist", 2).status().code(),
            StatusCode::kInvalidArgument);
  auto top = server->TopCoefficients("wave", 2);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 2u);
  EXPECT_EQ((*top)[0].index, 0u);
  EXPECT_EQ((*top)[1].index, 1u);
}

TEST(SynopsisServer, ServesHistogramQueriesThroughNamedApi) {
  auto server = MakeServer("named");
  ASSERT_TRUE(server.ok());
  auto point = server->PointEstimate("hist", 2);
  ASSERT_TRUE(point.ok());
  EXPECT_EQ(*point, 2.0);
  auto sum = server->RangeSum("hist", 2, 5);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, 2.0 * 2 + (-1.0) * 2);
  auto avg = server->RangeAverage("hist", 2, 5);
  ASSERT_TRUE(avg.ok());
  EXPECT_EQ(*avg, *sum / 4.0);
}

TEST(SynopsisServer, FailsToOpenWhenAnyEntryIsCorrupt) {
  // A store whose directory is intact but whose blob body was damaged must
  // be rejected at server Open — a server never comes up partially.
  const std::string path = TempPath("server_corrupt_blob.synstore");
  SynopsisStoreWriter writer;
  ASSERT_TRUE(writer.AddHistogram("h", Histogram({{0, 4, 3.0}})).ok());
  ASSERT_TRUE(writer.WriteFile(path).ok());
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is),
                 std::istreambuf_iterator<char>());
  }
  // Flip a byte inside the blob region (offset 32 = first blob, past its
  // 12-byte header into the payload) — store checksums do not cover blob
  // bodies, so Open(store) succeeds but the per-blob checksum fires.
  bytes[44] = static_cast<char>(bytes[44] ^ 0x01);
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  ASSERT_TRUE(SynopsisStore::Open(path).ok());
  EXPECT_FALSE(SynopsisServer::Open(path).ok());
}

// Four unsynchronized reader threads against one server: every thread must
// compute the identical answer stream (run under TSan in CI; the name
// matches the SynopsisServer regex of the TSan job).
TEST(SynopsisServerConcurrent, ReadersAreDeterministicAndRaceFree) {
  SynopsisEngine engine({.parallelism = 1});
  ValuePdfInput input = GenerateRandomValuePdf(
      {.domain_size = 128, .max_support = 4, .max_value = 9, .seed = 99});
  SynopsisRequest hist_request;
  hist_request.kind = SynopsisKind::kHistogram;
  hist_request.budget = 10;
  SynopsisRequest wave_request;
  wave_request.kind = SynopsisKind::kWavelet;
  wave_request.budget = 14;
  auto hist = engine.Build(input, hist_request);
  auto wave = engine.Build(input, wave_request);
  ASSERT_TRUE(hist.ok() && wave.ok());
  const std::string path = TempPath("concurrent.synstore");
  std::vector<NamedSynopsis> named;
  named.push_back({"h", *hist});
  named.push_back({"w", *wave});
  ASSERT_TRUE(engine.Store(path, named).ok());
  auto server = engine.Serve(path);
  ASSERT_TRUE(server.ok());

  constexpr int kThreads = 4;
  std::vector<std::uint64_t> digests(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, &digests, t] {
      // FNV-1a over every query answer's bit pattern.
      std::uint64_t digest = 14695981039346656037ull;
      auto mix = [&digest](std::uint64_t bits) {
        for (int byte = 0; byte < 8; ++byte) {
          digest ^= (bits >> (8 * byte)) & 0xff;
          digest *= 1099511628211ull;
        }
      };
      const ServedSynopsis* sh = server->Find("h");
      const ServedSynopsis* sw = server->Find("w");
      for (int pass = 0; pass < 50; ++pass) {
        for (std::size_t i = 0; i < 128; ++i) {
          mix(Bits(sh->PointEstimate(i)));
          mix(Bits(sw->PointEstimate(i)));
        }
        mix(Bits(sh->RangeSum(3, 120)));
        mix(Bits(sw->RangeSum(3, 120)));
        for (const WaveletCoefficient& c : sw->TopCoefficients(5)) {
          mix(Bits(c.value));
        }
      }
      digests[static_cast<std::size_t>(t)] = digest;
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(digests[0], digests[static_cast<std::size_t>(t)])
        << "thread " << t;
  }
}

}  // namespace
}  // namespace probsyn
