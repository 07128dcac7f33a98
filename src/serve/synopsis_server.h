#ifndef PROBSYN_SERVE_SYNOPSIS_SERVER_H_
#define PROBSYN_SERVE_SYNOPSIS_SERVER_H_

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/histogram.h"
#include "core/wavelet.h"
#include "serve/synopsis_store.h"
#include "util/status.h"

namespace probsyn {

/// One synopsis decoded out of a store and laid out for query answering:
/// for histograms, flat arrays of bucket ends, representatives and prefix
/// masses (see PrefixMassRangeSum in core/histogram.h); for wavelets, the
/// SparseHaar lookup (coefficients sorted by index behind a presence
/// bitmap with per-word ranks, O(n/8) bytes) plus a cached top-|value|
/// ranking. Immutable after construction, so any number of reader threads
/// may query one instance concurrently without locking.
///
/// Answer contract: every query is BITWISE-equal to evaluating the same
/// query on the construction-side object (Histogram::Estimate /
/// EstimateRangeSum, WaveletSynopsis::Estimate / EstimateRangeSum) — a
/// histogram point reads the same bucket's representative, a histogram
/// range combines prefix masses summed with the same helper in the same
/// order, and both wavelet sides run SparseHaar's one arithmetic (only the
/// coefficient lookup differs), over the round-tripped doubles. The
/// 200-case differential sweep in tests/synopsis_server_test.cc pins this
/// across SIMD dispatch modes. The
/// hot-path accessors below skip per-call validation (bounds are DCHECKed);
/// the SynopsisServer wrappers validate and return Status instead.
class ServedSynopsis {
 public:
  /// Builds the serving layout from a decoded blob.
  explicit ServedSynopsis(DecodedSynopsis decoded);

  SynopsisBlobKind kind() const { return kind_; }
  /// Domain size n the synopsis answers queries over.
  std::size_t domain_size() const { return domain_size_; }
  /// Retained coefficient count (0 for histograms).
  std::size_t num_coefficients() const {
    return wavelet_.coefficients().size();
  }
  /// Bucket count (0 for wavelets).
  std::size_t num_buckets() const { return bucket_reps_.size(); }

  /// ghat_i. O(log B) for histograms, O(log n) for wavelets. A histogram
  /// finds i's bucket with a branch-free binary search over the bucket
  /// ends (a select per halving step, log2 B steps for every i).
  /// Precondition: i < domain_size().
  double PointEstimate(std::size_t i) const;

  /// Estimate of sum_{i=a..b} g_i: O(log B) for histograms, O(log n) for
  /// wavelets. A histogram finds the buckets ka and kb of a and b as
  /// PointEstimate does and reads the prefix masses P_k = sum_{j<k}
  /// width_j rep_j, summed left to right at open:
  /// (head + (P_kb - P_{ka+1})) + tail. The masses round, so the sum can
  /// differ in its last bits from adding the estimates one by one; the
  /// error grows with kb (see PrefixMassRangeSum).
  /// Precondition: a <= b < domain_size().
  double RangeSum(std::size_t a, std::size_t b) const;

  /// RangeSum(a, b) / (b - a + 1).
  double RangeAverage(std::size_t a, std::size_t b) const {
    return RangeSum(a, b) / static_cast<double>(b - a + 1);
  }

  /// The k largest-magnitude retained coefficients, ordered by |value|
  /// descending with index-ascending ties (clamped to the retained count).
  /// O(k) — the ranking is precomputed. Wavelets only (empty otherwise).
  std::vector<WaveletCoefficient> TopCoefficients(std::size_t k) const;

 private:
  SynopsisBlobKind kind_;
  std::size_t domain_size_ = 0;

  // Histogram layout: bucket ends (ascending), representatives, and the
  // B + 1 prefix masses P_0 = 0 .. P_B.
  std::vector<std::size_t> bucket_ends_;
  std::vector<double> bucket_reps_;
  std::vector<double> bucket_masses_;

  // Wavelet layout: the coefficient lookup and the |value| ranking (slots
  // of wavelet_.coefficients()).
  SparseHaar wavelet_;
  std::vector<std::size_t> magnitude_order_;
};

/// The query tier over a synopsis store: maps the file, decodes (and
/// checksum-verifies) every blob once at Open, then answers point/range/
/// top-k queries with no per-query allocation or I/O. All methods are
/// const and the server is immutable after Open — concurrent readers need
/// no synchronization, which the SynopsisServerConcurrent tests pin under
/// TSan.
///
/// For sub-microsecond hot paths, resolve the name once with Find and
/// query the ServedSynopsis directly (the name-keyed wrappers below add
/// one hash lookup and Status boxing per call).
class SynopsisServer {
 public:
  /// Opens the store at `path` and decodes every synopsis. Fails (with the
  /// store's or codec's Status) on any corrupt entry — a server never
  /// comes up partially.
  static StatusOr<SynopsisServer> Open(const std::string& path);

  /// Decodes every synopsis of an already-opened store.
  static StatusOr<SynopsisServer> FromStore(SynopsisStore store);

  /// Number of served synopses.
  std::size_t size() const { return served_.size(); }

  /// All served names, sorted.
  std::vector<std::string> Names() const { return store_.Names(); }

  /// The underlying mapped store (raw blob access, directory metadata).
  const SynopsisStore& store() const { return store_; }

  /// Handle lookup for hot paths; nullptr when the name is not served.
  const ServedSynopsis* Find(const std::string& name) const;

  /// ghat_i from synopsis `name`; kNotFound / kOutOfRange on bad input.
  StatusOr<double> PointEstimate(const std::string& name,
                                 std::size_t i) const;

  /// Estimate of sum_{i=a..b} g_i from synopsis `name`.
  StatusOr<double> RangeSum(const std::string& name, std::size_t a,
                            std::size_t b) const;

  /// RangeSum / item count.
  StatusOr<double> RangeAverage(const std::string& name, std::size_t a,
                                std::size_t b) const;

  /// The k largest-magnitude coefficients of wavelet synopsis `name`;
  /// kInvalidArgument when `name` is a histogram.
  StatusOr<std::vector<WaveletCoefficient>> TopCoefficients(
      const std::string& name, std::size_t k) const;

 private:
  SynopsisServer(SynopsisStore store,
                 std::unordered_map<std::string, ServedSynopsis> served)
      : store_(std::move(store)), served_(std::move(served)) {}

  StatusOr<const ServedSynopsis*> FindChecked(const std::string& name) const;

  SynopsisStore store_;
  std::unordered_map<std::string, ServedSynopsis> served_;
};

}  // namespace probsyn

#endif  // PROBSYN_SERVE_SYNOPSIS_SERVER_H_
