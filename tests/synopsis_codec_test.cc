// Serialization tests for the synopsis codec (io/synopsis_codec.h): bitwise
// round trips for both synopsis kinds (hand-built and engine-built), golden
// byte stability of the v1 format (two-sided: today's encoder reproduces the
// pinned bytes, and the pinned bytes decode to the original synopsis), an
// exhaustive corruption sweep (every truncation and every single-bit flip of
// every byte must fail with a clean Status — never a crash, never a silently
// wrong synopsis), strict-structure rejections that a checksum alone cannot
// catch, and the FaultSite::kPdataRead injection hook on the decode path.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "engine/synopsis_engine.h"
#include "gen/generators.h"
#include "io/synopsis_codec.h"
#include "util/fault_injection.h"

namespace probsyn {
namespace {

std::span<const std::uint8_t> AsBytes(const std::string& blob) {
  return {reinterpret_cast<const std::uint8_t*>(blob.data()), blob.size()};
}

std::string ToHex(const std::string& blob) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  hex.reserve(2 * blob.size());
  for (unsigned char c : blob) {
    hex.push_back(kDigits[c >> 4]);
    hex.push_back(kDigits[c & 0xf]);
  }
  return hex;
}

std::string FromHex(const std::string& hex) {
  std::string bytes;
  bytes.reserve(hex.size() / 2);
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    auto nibble = [](char c) -> unsigned {
      return c <= '9' ? static_cast<unsigned>(c - '0')
                      : static_cast<unsigned>(c - 'a' + 10);
    };
    bytes.push_back(static_cast<char>(nibble(hex[i]) << 4 | nibble(hex[i + 1])));
  }
  return bytes;
}

// Independent reimplementation of the v1 framing (magic, version, kind,
// reserved, payload size, payload, trailing FNV-1a 64) so structure tests
// can hand the decoder payloads the encoder would never emit — with a VALID
// checksum, proving the structural validation itself rejects them.
std::string FrameRaw(std::uint8_t kind, const std::string& payload) {
  std::string blob = "PSYN";
  blob.push_back(static_cast<char>(kSynopsisCodecVersion));
  blob.push_back(static_cast<char>(kind));
  blob.push_back(0);
  blob.push_back(0);
  std::uint32_t size = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) blob.push_back(static_cast<char>(size >> (8 * i)));
  blob.append(payload);
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : blob) {
    h ^= c;
    h *= 1099511628211ull;
  }
  for (int i = 0; i < 8; ++i) blob.push_back(static_cast<char>(h >> (8 * i)));
  return blob;
}

void ExpectBitwiseEqual(const Histogram& want, const Histogram& got) {
  ASSERT_EQ(want.num_buckets(), got.num_buckets());
  for (std::size_t k = 0; k < want.num_buckets(); ++k) {
    EXPECT_EQ(want.buckets()[k].start, got.buckets()[k].start) << "bucket " << k;
    EXPECT_EQ(want.buckets()[k].end, got.buckets()[k].end) << "bucket " << k;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(want.buckets()[k].representative),
              std::bit_cast<std::uint64_t>(got.buckets()[k].representative))
        << "bucket " << k;
  }
}

void ExpectBitwiseEqual(const WaveletSynopsis& want,
                        const WaveletSynopsis& got) {
  EXPECT_EQ(want.domain_size(), got.domain_size());
  EXPECT_EQ(want.transform_size(), got.transform_size());
  ASSERT_EQ(want.num_coefficients(), got.num_coefficients());
  for (std::size_t k = 0; k < want.num_coefficients(); ++k) {
    EXPECT_EQ(want.coefficients()[k].index, got.coefficients()[k].index)
        << "coefficient " << k;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(want.coefficients()[k].value),
              std::bit_cast<std::uint64_t>(got.coefficients()[k].value))
        << "coefficient " << k;
  }
}

// --- Round trips. -----------------------------------------------------------

TEST(SynopsisCodec, HistogramRoundTripIsBitwise) {
  for (std::uint64_t seed : {1u, 7u, 19u, 42u}) {
    ValuePdfInput input = GenerateRandomValuePdf(
        {.domain_size = 60, .max_support = 4, .max_value = 9, .seed = seed});
    SynopsisEngine engine({.parallelism = 1});
    SynopsisRequest request;
    request.kind = SynopsisKind::kHistogram;
    request.budget = 1 + seed % 9;
    auto result = engine.Build(input, request);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    auto blob = EncodeHistogram(result->histogram);
    ASSERT_TRUE(blob.ok()) << blob.status().ToString();
    auto decoded = DecodeHistogram(AsBytes(*blob));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectBitwiseEqual(result->histogram, *decoded);
    EXPECT_TRUE(decoded->Validate(input.domain_size()).ok());
  }
}

TEST(SynopsisCodec, WaveletRoundTripIsBitwise) {
  for (std::uint64_t seed : {2u, 11u, 23u}) {
    ValuePdfInput input = GenerateRandomValuePdf(
        {.domain_size = 50, .max_support = 4, .max_value = 9, .seed = seed});
    SynopsisEngine engine({.parallelism = 1});
    SynopsisRequest request;
    request.kind = SynopsisKind::kWavelet;
    request.budget = 1 + seed % 13;
    auto result = engine.Build(input, request);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    auto blob = EncodeWavelet(result->wavelet);
    ASSERT_TRUE(blob.ok()) << blob.status().ToString();
    auto decoded = DecodeWavelet(AsBytes(*blob));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectBitwiseEqual(result->wavelet, *decoded);
    EXPECT_TRUE(decoded->Validate().ok());
  }
}

TEST(SynopsisCodec, EmptyHistogramRoundTrips) {
  auto blob = EncodeHistogram(Histogram());
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  auto decoded = DecodeHistogram(AsBytes(*blob));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_buckets(), 0u);
  EXPECT_TRUE(decoded->Validate(0).ok());
}

TEST(SynopsisCodec, ZeroCoefficientWaveletRoundTrips) {
  WaveletSynopsis empty(4, 4, {});
  auto blob = EncodeWavelet(empty);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  auto decoded = DecodeWavelet(AsBytes(*blob));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectBitwiseEqual(empty, *decoded);
}

TEST(SynopsisCodec, DecodeSynopsisDispatchesOnKind) {
  Histogram h({{0, 1, 3.0}, {2, 3, -1.0}});
  auto hb = EncodeHistogram(h);
  ASSERT_TRUE(hb.ok());
  auto decoded = DecodeSynopsis(AsBytes(*hb));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->kind, SynopsisBlobKind::kHistogram);
  ExpectBitwiseEqual(h, decoded->histogram);

  WaveletSynopsis w(3, 4, {{1, 0.5}});
  auto wb = EncodeWavelet(w);
  ASSERT_TRUE(wb.ok());
  decoded = DecodeSynopsis(AsBytes(*wb));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->kind, SynopsisBlobKind::kWavelet);
  ExpectBitwiseEqual(w, decoded->wavelet);
}

// --- Golden bytes: the v1 format is pinned. ---------------------------------
//
// These blobs were produced by the v1 encoder; any byte-level change to the
// format (varint layout, bit packing, checksum, header) breaks this test and
// must ship as a NEW format version instead, because stores written by older
// builds must keep decoding forever.

constexpr char kGoldenHistogramHex[] =
    "5053594e010100001d0000000803030203000000000000f83f000000000000d03f000000"
    "00000000c04d63c5e57505459a";
constexpr char kGoldenWaveletHex[] =
    "5053594e010200001d00000006080358010000000000000440000000000000f4bf000000"
    "000000e03f5f65824448f7ce41";

Histogram GoldenHistogram() {
  return Histogram({{0, 2, 1.5}, {3, 4, 0.25}, {5, 7, -2.0}});
}

WaveletSynopsis GoldenWavelet() {
  return WaveletSynopsis(6, 8, {{0, 2.5}, {3, -1.25}, {5, 0.5}});
}

TEST(SynopsisCodecGolden, HistogramBytesAreStable) {
  auto blob = EncodeHistogram(GoldenHistogram());
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(ToHex(*blob), kGoldenHistogramHex);
}

TEST(SynopsisCodecGolden, WaveletBytesAreStable) {
  auto blob = EncodeWavelet(GoldenWavelet());
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(ToHex(*blob), kGoldenWaveletHex);
}

TEST(SynopsisCodecGolden, PinnedBlobsStillDecode) {
  std::string hist_blob = FromHex(kGoldenHistogramHex);
  auto hist = DecodeHistogram(AsBytes(hist_blob));
  ASSERT_TRUE(hist.ok()) << hist.status().ToString();
  ExpectBitwiseEqual(GoldenHistogram(), *hist);

  std::string wave_blob = FromHex(kGoldenWaveletHex);
  auto wave = DecodeWavelet(AsBytes(wave_blob));
  ASSERT_TRUE(wave.ok()) << wave.status().ToString();
  ExpectBitwiseEqual(GoldenWavelet(), *wave);
}

// --- Corruption: every mutation fails cleanly. ------------------------------

void ExpectCleanDecodeFailure(const std::string& blob, const char* label) {
  auto decoded = DecodeSynopsis(AsBytes(blob));
  ASSERT_FALSE(decoded.ok()) << label;
  StatusCode code = decoded.status().code();
  EXPECT_TRUE(code == StatusCode::kIOError ||
              code == StatusCode::kInvalidArgument)
      << label << ": " << decoded.status().ToString();
}

void SweepCorruptions(const std::string& blob) {
  // Every truncation (the empty prefix included).
  for (std::size_t len = 0; len < blob.size(); ++len) {
    ExpectCleanDecodeFailure(
        blob.substr(0, len),
        ("truncated to " + std::to_string(len)).c_str());
  }
  // Every single-bit flip of every byte. The trailing checksum covers the
  // whole header + payload, so no flip anywhere may survive.
  for (std::size_t pos = 0; pos < blob.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = blob;
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 << bit));
      ExpectCleanDecodeFailure(
          corrupt, ("bit " + std::to_string(bit) + " of byte " +
                    std::to_string(pos))
                       .c_str());
    }
  }
  // Appended trailing garbage.
  ExpectCleanDecodeFailure(blob + '\0', "one trailing byte");
}

TEST(SynopsisCodecCorruption, HistogramSweep) {
  auto blob = EncodeHistogram(GoldenHistogram());
  ASSERT_TRUE(blob.ok());
  SweepCorruptions(*blob);
}

TEST(SynopsisCodecCorruption, WaveletSweep) {
  auto blob = EncodeWavelet(GoldenWavelet());
  ASSERT_TRUE(blob.ok());
  SweepCorruptions(*blob);
}

TEST(SynopsisCodecCorruption, KindMismatchIsRejected) {
  auto hist_blob = EncodeHistogram(GoldenHistogram());
  auto wave_blob = EncodeWavelet(GoldenWavelet());
  ASSERT_TRUE(hist_blob.ok() && wave_blob.ok());
  EXPECT_EQ(DecodeWavelet(AsBytes(*hist_blob)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodeHistogram(AsBytes(*wave_blob)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SynopsisCodecCorruption, EncodersRejectInvalidSynopses) {
  // Buckets that do not tile the domain.
  Histogram gap({{0, 1, 1.0}, {3, 4, 2.0}});
  EXPECT_EQ(EncodeHistogram(gap).status().code(),
            StatusCode::kInvalidArgument);
  // Non-power-of-two transform.
  WaveletSynopsis bad(5, 6, {});
  EXPECT_FALSE(EncodeWavelet(bad).ok());
}

// --- Structural attacks with a VALID checksum. ------------------------------
//
// A flipped bit is caught by the checksum; these payloads are framed with a
// correct checksum, so only the structural validation stands between the
// decoder and a bogus synopsis (or a giant allocation).

std::string Varint(std::uint64_t v) {
  std::string out;
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
  return out;
}

TEST(SynopsisCodecStructure, NonCanonicalVarintIsRejected) {
  // Domain size 8 encoded with a redundant continuation byte (0x88 0x00):
  // same value, different bytes — accepting it would break golden-byte
  // uniqueness, so the decoder must insist on the canonical form.
  std::string payload;
  payload.push_back('\x88');
  payload.push_back('\x00');
  payload += Varint(1);  // bucket count
  payload += Varint(8);  // delta
  payload.append(8, '\0');  // representative 0.0
  auto decoded = DecodeHistogram(AsBytes(FrameRaw(1, payload)));
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SynopsisCodecStructure, HugeDeclaredCountIsRejectedWithoutAllocating) {
  // Declares 2^40 buckets over a 2^40 domain; the decoder must refuse at
  // the sanity cap instead of attempting a terabyte-scale allocation.
  std::string payload = Varint(std::uint64_t{1} << 40);
  payload += Varint(std::uint64_t{1} << 40);
  auto decoded = DecodeHistogram(AsBytes(FrameRaw(1, payload)));
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SynopsisCodecStructure, ZeroWidthBucketIsRejected) {
  std::string payload = Varint(4) + Varint(2) + Varint(0) + Varint(4);
  payload.append(16, '\0');
  auto decoded = DecodeHistogram(AsBytes(FrameRaw(1, payload)));
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SynopsisCodecStructure, UncoveredDomainIsRejected) {
  // Deltas sum to 3 over a declared domain of 4.
  std::string payload = Varint(4) + Varint(2) + Varint(1) + Varint(2);
  payload.append(16, '\0');
  auto decoded = DecodeHistogram(AsBytes(FrameRaw(1, payload)));
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SynopsisCodecStructure, NonIncreasingWaveletIndicesAreRejected) {
  // Transform 4 (width 2): packed indices {2, 1} = 0b0110.
  std::string payload = Varint(4) + Varint(4) + Varint(2);
  payload.push_back('\x06');
  payload.append(16, '\0');
  auto decoded = DecodeWavelet(AsBytes(FrameRaw(2, payload)));
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SynopsisCodecStructure, NonzeroPaddingBitsAreRejected) {
  // Transform 4 (width 2), one index (0): the packed byte has 6 padding
  // bits that must be zero; set one.
  std::string payload = Varint(4) + Varint(4) + Varint(1);
  payload.push_back('\x04');
  payload.append(8, '\0');
  auto decoded = DecodeWavelet(AsBytes(FrameRaw(2, payload)));
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SynopsisCodecStructure, TrailingPayloadBytesAreRejected) {
  std::string payload = Varint(2) + Varint(1) + Varint(2);
  payload.append(8, '\0');
  payload.push_back('\0');  // one byte past the declared structure
  auto decoded = DecodeHistogram(AsBytes(FrameRaw(1, payload)));
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

// Synopsis values are finite by contract: the encoders refuse a NaN or an
// infinity, and the decoders refuse one even from a well-formed blob (a
// store file is outside input), so no server ever answers with one.
constexpr double kNonFinite[] = {std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity()};

std::string RawDouble(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  std::string out;
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(bits >> (8 * i)));
  return out;
}

TEST(SynopsisCodecStructure, NonFiniteRepresentativesAreRejected) {
  // Domain 8, buckets [0, 3] and [4, 7].
  const std::string header = Varint(8) + Varint(2) + Varint(4) + Varint(4);
  ASSERT_TRUE(DecodeHistogram(AsBytes(FrameRaw(
                                  1, header + RawDouble(1.0) + RawDouble(2.0))))
                  .ok());
  for (double bad : kNonFinite) {
    EXPECT_EQ(EncodeHistogram(Histogram({{0, 3, 1.0}, {4, 7, bad}}))
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << bad;
    auto decoded = DecodeHistogram(
        AsBytes(FrameRaw(1, header + RawDouble(1.0) + RawDouble(bad))));
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(SynopsisCodecStructure, NonFiniteCoefficientValuesAreRejected) {
  // Transform 4 (width 2): packed indices {0, 2} = 0b1000.
  const std::string header = Varint(4) + Varint(4) + Varint(2) + "\x08";
  ASSERT_TRUE(DecodeWavelet(AsBytes(FrameRaw(
                                2, header + RawDouble(1.0) + RawDouble(2.0))))
                  .ok());
  for (double bad : kNonFinite) {
    EXPECT_EQ(EncodeWavelet(WaveletSynopsis(4, 4, {{0, 1.0}, {2, bad}}))
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << bad;
    auto decoded = DecodeWavelet(
        AsBytes(FrameRaw(2, header + RawDouble(1.0) + RawDouble(bad))));
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

// --- Fault injection: the decode path is a campaign site. -------------------

TEST(SynopsisCodecFaults, DecodeHonorsPdataReadSite) {
  auto blob = EncodeHistogram(GoldenHistogram());
  ASSERT_TRUE(blob.ok());
  std::uint64_t fired_before = FaultInjectionFiredCount();
  {
    ScopedFaultInjection faults(
        {.seed = 7, .rate = 1.0, .only_site = FaultSite::kPdataRead});
    auto decoded = DecodeHistogram(AsBytes(*blob));
    EXPECT_FALSE(decoded.ok());
    auto wave = DecodeWavelet(AsBytes(*blob));
    EXPECT_FALSE(wave.ok());
  }
  EXPECT_GT(FaultInjectionFiredCount(), fired_before);
  // Disarmed again: the same blob decodes.
  EXPECT_TRUE(DecodeHistogram(AsBytes(*blob)).ok());
}

}  // namespace
}  // namespace probsyn
