#ifndef PROBSYN_UTIL_RANDOM_H_
#define PROBSYN_UTIL_RANDOM_H_

#include <cstdint>
#include <span>
#include <vector>

namespace probsyn {

/// Deterministic, fast PRNG (xoshiro256++), seeded via SplitMix64.
///
/// We avoid std::mt19937 for two reasons common to database benchmarking
/// code: (1) reproducibility of the generated workloads across standard
/// library versions — our experiments must be re-runnable bit-for-bit from a
/// seed, and libstdc++/libc++ may disagree on distribution algorithms;
/// (2) speed, as world sampling draws one variate per tuple.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform 64-bit value.
  std::uint64_t NextUint64();

  /// Uniform in [0, 1).
  double NextDouble();

  /// Uniform integer in [0, bound) without modulo bias; bound > 0.
  std::uint64_t NextBounded(std::uint64_t bound);

  /// Uniform in [lo, hi).
  double NextUniform(double lo, double hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool NextBernoulli(double p);

  /// Standard normal via Box-Muller (stateless variant, no caching).
  double NextGaussian();

  /// Forks an independent stream (for per-run generator isolation).
  Rng Fork();

 private:
  std::uint64_t state_[4];
};

/// Draws from a Zipf(alpha) distribution over {1, ..., n} by inversion on a
/// precomputed CDF. Zipf rank-frequency skew is the standard stand-in for
/// the match-count skew of record-linkage data.
class ZipfDistribution {
 public:
  ZipfDistribution(std::size_t n, double alpha);

  /// Value in {1, ..., n}.
  std::size_t Sample(Rng& rng) const;

  std::size_t n() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// O(1) sampling from a fixed discrete distribution (Walker/Vose alias
/// method). Used by the possible-world sampler, which must draw one
/// alternative per input tuple per sampled world.
class AliasSampler {
 public:
  /// `weights` are nonnegative, not necessarily normalized; at least one
  /// must be positive.
  explicit AliasSampler(std::span<const double> weights);

  /// Index in [0, weights.size()).
  std::size_t Sample(Rng& rng) const;

  std::size_t size() const { return probability_.size(); }

 private:
  std::vector<double> probability_;
  std::vector<std::uint32_t> alias_;
};

}  // namespace probsyn

#endif  // PROBSYN_UTIL_RANDOM_H_
