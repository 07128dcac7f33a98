#ifndef PROBSYN_IO_SYNOPSIS_CODEC_H_
#define PROBSYN_IO_SYNOPSIS_CODEC_H_

#include <cstdint>
#include <span>
#include <string>

#include "core/histogram.h"
#include "core/wavelet.h"
#include "util/status.h"

namespace probsyn {

// Compact, versioned, checksummed binary serialization of the two synopsis
// families — the wire/storage format of the serving tier (the .pdata text
// format in io/pdata.h persists INPUTS; this codec persists the built
// synopses a store serves queries from).
//
// Blob layout (all integers little-endian):
//
//   offset 0   magic "PSYN" (4 bytes)
//          4   format version (u8, currently 1)
//          5   kind (u8: 1 = histogram, 2 = wavelet)
//          6   reserved (u16, must be 0)
//          8   payload size P (u32)
//         12   payload (P bytes, see below)
//       12+P   checksum (u64: FNV-1a 64 over bytes [0, 12+P))
//
// Histogram payload: varint domain size n, varint bucket count B, then B
// varint-encoded bucket-boundary deltas (first is e_0 + 1, then
// e_k - e_{k-1}; each >= 1, summing to n — starts are implied by the
// partition invariant), then B representatives as raw 8-byte doubles.
//
// Wavelet payload: varint domain size, varint transform size (a power of
// two), varint coefficient count B, then B coefficient indices bit-packed
// at fixed width ceil(log2(transform size)) (LSB-first within bytes,
// strictly increasing), then B coefficient values as raw 8-byte doubles.
//
// Decoding is strict: magic/version/kind/reserved mismatches, size
// mismatches, checksum failures, varints running past the payload,
// non-monotone boundaries or indices, non-finite representatives or
// coefficient values, and declared-count blowups all
// return a clean error Status (kInvalidArgument for malformed structure,
// kIOError for truncation/corruption) — never a crash or a silently wrong
// synopsis. Every single-byte corruption is caught by the checksum, which
// the codec tests sweep exhaustively. Decode entry points also pass
// through the FaultSite::kPdataRead injection site, so the seeded fault
// campaigns exercise the serving tier's read path.

/// Kind tag carried in a codec blob header.
enum class SynopsisBlobKind : std::uint8_t {
  kHistogram = 1,
  kWavelet = 2,
};

/// Stable display name ("histogram", "wavelet").
const char* SynopsisBlobKindName(SynopsisBlobKind kind);

/// Current (and only) format version emitted by the encoders.
inline constexpr std::uint8_t kSynopsisCodecVersion = 1;

/// Encodes a histogram as a self-contained v1 blob. Fails with
/// kInvalidArgument if the buckets violate the partition invariants or a
/// representative is not finite.
StatusOr<std::string> EncodeHistogram(const Histogram& histogram);

/// Encodes a wavelet synopsis as a self-contained v1 blob. Fails with
/// kInvalidArgument if the synopsis fails Validate() or a coefficient value
/// is not finite.
StatusOr<std::string> EncodeWavelet(const WaveletSynopsis& synopsis);

/// Decodes a histogram blob. The result is bitwise-identical to the
/// encoded histogram (boundaries and representative doubles round-trip
/// exactly); see the class comment for the error contract.
StatusOr<Histogram> DecodeHistogram(std::span<const std::uint8_t> blob);

/// Decodes a wavelet blob; bitwise round trip, strict errors.
StatusOr<WaveletSynopsis> DecodeWavelet(std::span<const std::uint8_t> blob);

/// Validates the fixed header only (magic, version, reserved, payload size
/// vs. `blob.size()`) and returns the declared kind without touching the
/// payload or checksum. O(1); the store uses it to tag directory entries.
StatusOr<SynopsisBlobKind> PeekSynopsisBlobKind(
    std::span<const std::uint8_t> blob);

/// A decoded blob of either kind: exactly one of the two members is
/// meaningful, selected by `kind`.
struct DecodedSynopsis {
  SynopsisBlobKind kind = SynopsisBlobKind::kHistogram;
  Histogram histogram;      ///< Set when kind == kHistogram.
  WaveletSynopsis wavelet;  ///< Set when kind == kWavelet.
};

/// Decodes a blob of either kind (full validation, checksum included).
StatusOr<DecodedSynopsis> DecodeSynopsis(std::span<const std::uint8_t> blob);

}  // namespace probsyn

#endif  // PROBSYN_IO_SYNOPSIS_CODEC_H_
