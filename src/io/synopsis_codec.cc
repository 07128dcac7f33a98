#include "io/synopsis_codec.h"

#include <bit>
#include <cmath>
#include <cstring>

#include "util/fault_injection.h"

namespace probsyn {

namespace {

constexpr char kMagic[4] = {'P', 'S', 'Y', 'N'};
constexpr std::size_t kHeaderBytes = 12;    // magic + version + kind + rsv + P
constexpr std::size_t kChecksumBytes = 8;   // trailing FNV-1a 64

// Declared element counts above this are treated as corruption: the
// decoders preallocate by the declared count, and a hand-crafted header
// must yield a clean error, not a multi-gigabyte allocation attempt.
// (Checksum verification happens first, so blobs that were merely
// bit-flipped never reach the count checks.)
constexpr std::uint64_t kMaxDeclaredCount = std::uint64_t{1} << 26;

std::uint64_t Fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

void AppendVarint(std::uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void AppendU32(std::uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void AppendU64(std::uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

// Synopsis values are finite by contract: a NaN or infinity would be
// served as every answer that touches it, so no blob may carry one.
Status AppendFiniteDouble(double v, const char* what, std::string* out) {
  if (!std::isfinite(v)) {
    return Status::InvalidArgument(std::string("non-finite ") + what);
  }
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(bits, out);
  return Status::OK();
}

// Sequential reader over the payload span; every Read* reports truncation
// as kIOError with the byte offset, so corruption diagnostics say where.
class PayloadReader {
 public:
  explicit PayloadReader(std::span<const std::uint8_t> payload)
      : payload_(payload) {}

  std::size_t offset() const { return offset_; }
  bool exhausted() const { return offset_ == payload_.size(); }

  StatusOr<std::uint64_t> ReadVarint(const char* what) {
    std::uint64_t value = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      if (offset_ >= payload_.size()) return Truncated(what);
      std::uint8_t byte = payload_[offset_++];
      value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        if (shift > 0 && byte == 0) {
          return Malformed(what, "non-canonical varint");
        }
        return value;
      }
      // A 10th continuation byte would shift past 63 bits: overflow.
      if (shift == 63) return Malformed(what, "varint overflows 64 bits");
    }
    return Malformed(what, "varint overflows 64 bits");
  }

  StatusOr<double> ReadDouble(const char* what) {
    if (payload_.size() - offset_ < 8) return Truncated(what);
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<std::uint64_t>(payload_[offset_ + i]) << (8 * i);
    }
    offset_ += 8;
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    // A store file is outside input: reject what the encoders never write.
    if (!std::isfinite(v)) return Malformed(what, "non-finite value");
    return v;
  }

  StatusOr<std::span<const std::uint8_t>> ReadBytes(std::size_t count,
                                                    const char* what) {
    if (payload_.size() - offset_ < count) return Truncated(what);
    std::span<const std::uint8_t> bytes = payload_.subspan(offset_, count);
    offset_ += count;
    return bytes;
  }

 private:
  Status Truncated(const char* what) const {
    return Status::IOError(std::string("payload truncated reading ") + what +
                           " at offset " + std::to_string(offset_));
  }
  Status Malformed(const char* what, const char* why) const {
    return Status::InvalidArgument(std::string(why) + " reading " + what +
                                   " at offset " + std::to_string(offset_));
  }

  std::span<const std::uint8_t> payload_;
  std::size_t offset_ = 0;
};

// Frames `payload` with the v1 header and trailing checksum.
std::string FrameBlob(SynopsisBlobKind kind, const std::string& payload) {
  std::string blob;
  blob.reserve(kHeaderBytes + payload.size() + kChecksumBytes);
  blob.append(kMagic, sizeof(kMagic));
  blob.push_back(static_cast<char>(kSynopsisCodecVersion));
  blob.push_back(static_cast<char>(kind));
  blob.push_back(0);  // reserved
  blob.push_back(0);
  AppendU32(static_cast<std::uint32_t>(payload.size()), &blob);
  blob.append(payload);
  std::span<const std::uint8_t> covered(
      reinterpret_cast<const std::uint8_t*>(blob.data()), blob.size());
  AppendU64(Fnv1a64(covered), &blob);
  return blob;
}

// Validates header framing + checksum; returns the payload span.
StatusOr<std::span<const std::uint8_t>> OpenBlob(
    std::span<const std::uint8_t> blob, SynopsisBlobKind expected_kind) {
  PROBSYN_RETURN_IF_ERROR(MaybeInjectFault(FaultSite::kPdataRead));
  PROBSYN_ASSIGN_OR_RETURN(SynopsisBlobKind kind, PeekSynopsisBlobKind(blob));
  if (kind != expected_kind) {
    return Status::InvalidArgument(
        std::string("expected a ") + SynopsisBlobKindName(expected_kind) +
        " blob, got " + SynopsisBlobKindName(kind));
  }
  std::span<const std::uint8_t> covered =
      blob.subspan(0, blob.size() - kChecksumBytes);
  std::uint64_t declared = 0;
  for (std::size_t i = 0; i < kChecksumBytes; ++i) {
    declared |= static_cast<std::uint64_t>(blob[covered.size() + i]) << (8 * i);
  }
  if (Fnv1a64(covered) != declared) {
    return Status::IOError("synopsis blob checksum mismatch (corrupt data)");
  }
  return blob.subspan(kHeaderBytes, blob.size() - kHeaderBytes -
                                        kChecksumBytes);
}

Status CheckDeclaredCount(const char* what, std::uint64_t count) {
  if (count > kMaxDeclaredCount) {
    return Status::InvalidArgument(
        std::string("declared ") + what + " count " + std::to_string(count) +
        " exceeds the sanity cap " + std::to_string(kMaxDeclaredCount));
  }
  return Status::OK();
}

// Fixed bit width of a packed coefficient index over `transform_size`
// (a power of two >= 1): the number of bits needed for transform_size - 1,
// at least 1 so zero-width packing never arises.
unsigned IndexBitWidth(std::uint64_t transform_size) {
  unsigned width = static_cast<unsigned>(std::bit_width(
      transform_size > 1 ? transform_size - 1 : std::uint64_t{1}));
  return width == 0 ? 1 : width;
}

}  // namespace

const char* SynopsisBlobKindName(SynopsisBlobKind kind) {
  switch (kind) {
    case SynopsisBlobKind::kHistogram: return "histogram";
    case SynopsisBlobKind::kWavelet: return "wavelet";
  }
  return "?";
}

StatusOr<SynopsisBlobKind> PeekSynopsisBlobKind(
    std::span<const std::uint8_t> blob) {
  if (blob.size() < kHeaderBytes + kChecksumBytes) {
    return Status::IOError("synopsis blob truncated: " +
                           std::to_string(blob.size()) + " bytes");
  }
  if (std::memcmp(blob.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("bad synopsis blob magic");
  }
  if (blob[4] != kSynopsisCodecVersion) {
    return Status::InvalidArgument("unsupported synopsis codec version " +
                                   std::to_string(blob[4]));
  }
  std::uint8_t kind = blob[5];
  if (kind != static_cast<std::uint8_t>(SynopsisBlobKind::kHistogram) &&
      kind != static_cast<std::uint8_t>(SynopsisBlobKind::kWavelet)) {
    return Status::InvalidArgument("unknown synopsis blob kind " +
                                   std::to_string(kind));
  }
  if (blob[6] != 0 || blob[7] != 0) {
    return Status::InvalidArgument("nonzero reserved bytes in blob header");
  }
  std::uint32_t payload_size = 0;
  for (int i = 0; i < 4; ++i) {
    payload_size |= static_cast<std::uint32_t>(blob[8 + i]) << (8 * i);
  }
  if (blob.size() != kHeaderBytes + payload_size + kChecksumBytes) {
    return Status::IOError(
        "synopsis blob size mismatch: header declares " +
        std::to_string(payload_size) + " payload bytes, blob has " +
        std::to_string(blob.size()));
  }
  return static_cast<SynopsisBlobKind>(kind);
}

StatusOr<std::string> EncodeHistogram(const Histogram& histogram) {
  PROBSYN_RETURN_IF_ERROR(histogram.Validate(histogram.domain_size()));
  std::string payload;
  AppendVarint(histogram.domain_size(), &payload);
  AppendVarint(histogram.num_buckets(), &payload);
  std::size_t previous_end_plus_1 = 0;
  for (const HistogramBucket& bucket : histogram.buckets()) {
    AppendVarint(bucket.end + 1 - previous_end_plus_1, &payload);
    previous_end_plus_1 = bucket.end + 1;
  }
  for (const HistogramBucket& bucket : histogram.buckets()) {
    PROBSYN_RETURN_IF_ERROR(
        AppendFiniteDouble(bucket.representative, "representative", &payload));
  }
  return FrameBlob(SynopsisBlobKind::kHistogram, payload);
}

StatusOr<Histogram> DecodeHistogram(std::span<const std::uint8_t> blob) {
  PROBSYN_ASSIGN_OR_RETURN(std::span<const std::uint8_t> payload,
                           OpenBlob(blob, SynopsisBlobKind::kHistogram));
  PayloadReader reader(payload);
  PROBSYN_ASSIGN_OR_RETURN(std::uint64_t n, reader.ReadVarint("domain size"));
  PROBSYN_RETURN_IF_ERROR(CheckDeclaredCount("domain", n));
  PROBSYN_ASSIGN_OR_RETURN(std::uint64_t num_buckets,
                           reader.ReadVarint("bucket count"));
  PROBSYN_RETURN_IF_ERROR(CheckDeclaredCount("bucket", num_buckets));
  if ((n == 0) != (num_buckets == 0)) {
    return Status::InvalidArgument("bucket count / domain size mismatch");
  }
  if (num_buckets > n) {
    return Status::InvalidArgument("more buckets than domain items");
  }
  std::vector<HistogramBucket> buckets(num_buckets);
  std::uint64_t end_plus_1 = 0;
  for (std::size_t k = 0; k < num_buckets; ++k) {
    PROBSYN_ASSIGN_OR_RETURN(std::uint64_t delta,
                             reader.ReadVarint("boundary delta"));
    if (delta == 0) {
      return Status::InvalidArgument("zero bucket-boundary delta (bucket " +
                                     std::to_string(k) + ")");
    }
    if (delta > n - end_plus_1) {
      return Status::InvalidArgument("bucket boundaries overrun the domain");
    }
    buckets[k].start = end_plus_1;
    end_plus_1 += delta;
    buckets[k].end = end_plus_1 - 1;
  }
  if (end_plus_1 != n) {
    return Status::InvalidArgument("bucket boundaries do not cover the domain");
  }
  for (std::size_t k = 0; k < num_buckets; ++k) {
    PROBSYN_ASSIGN_OR_RETURN(buckets[k].representative,
                             reader.ReadDouble("representative"));
  }
  if (!reader.exhausted()) {
    return Status::InvalidArgument("trailing bytes after histogram payload");
  }
  return Histogram(std::move(buckets));
}

StatusOr<std::string> EncodeWavelet(const WaveletSynopsis& synopsis) {
  PROBSYN_RETURN_IF_ERROR(synopsis.Validate());
  std::string payload;
  AppendVarint(synopsis.domain_size(), &payload);
  AppendVarint(synopsis.transform_size(), &payload);
  AppendVarint(synopsis.num_coefficients(), &payload);
  const unsigned width = IndexBitWidth(synopsis.transform_size());
  std::uint64_t bit_buffer = 0;
  unsigned bits_pending = 0;
  for (const WaveletCoefficient& c : synopsis.coefficients()) {
    bit_buffer |= static_cast<std::uint64_t>(c.index) << bits_pending;
    bits_pending += width;
    while (bits_pending >= 8) {
      payload.push_back(static_cast<char>(bit_buffer & 0xff));
      bit_buffer >>= 8;
      bits_pending -= 8;
    }
  }
  if (bits_pending > 0) payload.push_back(static_cast<char>(bit_buffer & 0xff));
  for (const WaveletCoefficient& c : synopsis.coefficients()) {
    PROBSYN_RETURN_IF_ERROR(
        AppendFiniteDouble(c.value, "coefficient value", &payload));
  }
  return FrameBlob(SynopsisBlobKind::kWavelet, payload);
}

StatusOr<WaveletSynopsis> DecodeWavelet(std::span<const std::uint8_t> blob) {
  PROBSYN_ASSIGN_OR_RETURN(std::span<const std::uint8_t> payload,
                           OpenBlob(blob, SynopsisBlobKind::kWavelet));
  PayloadReader reader(payload);
  PROBSYN_ASSIGN_OR_RETURN(std::uint64_t domain,
                           reader.ReadVarint("domain size"));
  PROBSYN_RETURN_IF_ERROR(CheckDeclaredCount("domain", domain));
  PROBSYN_ASSIGN_OR_RETURN(std::uint64_t transform,
                           reader.ReadVarint("transform size"));
  PROBSYN_RETURN_IF_ERROR(CheckDeclaredCount("transform", transform));
  if (transform == 0 || (transform & (transform - 1)) != 0) {
    return Status::InvalidArgument("transform size is not a power of two");
  }
  if (domain > transform) {
    return Status::InvalidArgument("domain exceeds transform size");
  }
  PROBSYN_ASSIGN_OR_RETURN(std::uint64_t num_coeffs,
                           reader.ReadVarint("coefficient count"));
  if (num_coeffs > transform) {
    return Status::InvalidArgument("more coefficients than transform slots");
  }
  const unsigned width = IndexBitWidth(transform);
  const std::size_t packed_bytes =
      (static_cast<std::size_t>(num_coeffs) * width + 7) / 8;
  PROBSYN_ASSIGN_OR_RETURN(std::span<const std::uint8_t> packed,
                           reader.ReadBytes(packed_bytes, "packed indices"));
  std::vector<WaveletCoefficient> coefficients(num_coeffs);
  std::uint64_t bit_buffer = 0;
  unsigned bits_pending = 0;
  std::size_t next_byte = 0;
  std::uint64_t previous_index = 0;
  for (std::size_t k = 0; k < num_coeffs; ++k) {
    while (bits_pending < width) {
      bit_buffer |= static_cast<std::uint64_t>(packed[next_byte++])
                    << bits_pending;
      bits_pending += 8;
    }
    std::uint64_t index = bit_buffer & ((std::uint64_t{1} << width) - 1);
    bit_buffer >>= width;
    bits_pending -= width;
    if (index >= transform) {
      return Status::InvalidArgument("coefficient index outside transform");
    }
    if (k > 0 && index <= previous_index) {
      return Status::InvalidArgument("coefficient indices not increasing");
    }
    previous_index = index;
    coefficients[k].index = index;
  }
  if (bit_buffer != 0) {
    return Status::InvalidArgument("nonzero padding bits in packed indices");
  }
  for (std::size_t k = 0; k < num_coeffs; ++k) {
    PROBSYN_ASSIGN_OR_RETURN(coefficients[k].value,
                             reader.ReadDouble("coefficient value"));
  }
  if (!reader.exhausted()) {
    return Status::InvalidArgument("trailing bytes after wavelet payload");
  }
  return WaveletSynopsis(domain, transform, std::move(coefficients));
}

StatusOr<DecodedSynopsis> DecodeSynopsis(std::span<const std::uint8_t> blob) {
  PROBSYN_ASSIGN_OR_RETURN(SynopsisBlobKind kind, PeekSynopsisBlobKind(blob));
  DecodedSynopsis decoded;
  decoded.kind = kind;
  if (kind == SynopsisBlobKind::kHistogram) {
    PROBSYN_ASSIGN_OR_RETURN(decoded.histogram, DecodeHistogram(blob));
  } else {
    PROBSYN_ASSIGN_OR_RETURN(decoded.wavelet, DecodeWavelet(blob));
  }
  return decoded;
}

}  // namespace probsyn
