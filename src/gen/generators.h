#ifndef PROBSYN_GEN_GENERATORS_H_
#define PROBSYN_GEN_GENERATORS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "model/basic.h"
#include "model/tuple_pdf.h"
#include "model/value_pdf.h"

namespace probsyn {

/// Synthetic stand-in for the MystiQ movie-linkage data set the paper's
/// experiments use (section 5: ~127k basic-model tuples over ~27.7k items,
/// "links between a movie database and an e-commerce inventory" — per-item
/// tuples are candidate matches with confidence probabilities).
///
/// The generator reproduces the statistical regime that makes that data
/// interesting for synopses:
///  * per-item match counts follow a Zipf tail (most items have 1-2
///    candidate matches, a heavy tail has many);
///  * match confidences are bimodal — a high-confidence mode (clean links)
///    and a low-confidence mode (fuzzy links) — so some items are
///    near-deterministic and others highly uncertain;
///  * the domain is segmented into contiguous "genres" whose regimes
///    (typical match count / confidence mix) differ, giving histograms
///    real bucket structure to find.
struct MovieLinkageOptions {
  std::size_t domain_size = 1024;
  /// Zipf skew of per-item match counts.
  double zipf_alpha = 1.2;
  /// Cap on candidate matches per item.
  std::size_t max_matches = 12;
  /// Expected number of contiguous regime segments.
  std::size_t num_segments = 24;
  /// Fraction of matches drawn from the high-confidence mode.
  double high_confidence_fraction = 0.35;
  /// When true, match counts and confidence levels are (nearly) constant
  /// within each segment, so *expected* frequencies are locally smooth
  /// while per-item variance stays high. This is the regime where sampled
  /// possible worlds mis-rank wavelet coefficients hardest (spurious
  /// fine-scale noise displaces true coarse structure) — used by the
  /// Figure 4 reproduction. The default (false) draws per-item match
  /// counts i.i.d., the regime the histogram experiments use.
  bool smooth_segments = false;
  std::uint64_t seed = 42;
};
BasicModelInput GenerateMovieLinkage(const MovieLinkageOptions& options);

/// Synthetic stand-in for the MayBMS-extended TPC-H generator the paper
/// uses for tuple-pdf input (section 5: lineitem-partkey "where the
/// multiple possibilities for each uncertain item are interpreted as tuples
/// with uniform probability over the set of values"). Each row spreads its
/// mass uniformly over a small set of alternative keys near a Zipf-popular
/// base key.
struct MaybmsTpchOptions {
  std::size_t domain_size = 1024;
  std::size_t num_tuples = 4096;
  /// Alternatives per row are uniform over {1, ..., max_alternatives}.
  std::size_t max_alternatives = 4;
  /// How far alternatives may scatter around the base key.
  std::size_t alternative_spread = 8;
  /// Probability mass reserved for "row absent" (0 = rows always present).
  double absent_probability = 0.1;
  /// Zipf skew of the base-key popularity.
  double zipf_alpha = 0.8;
  std::uint64_t seed = 7;
};
TuplePdfInput GenerateMaybmsTpch(const MaybmsTpchOptions& options);

/// Unstructured random value-pdf input for tests and micro-benchmarks:
/// each item gets a pdf over at most `max_support` integer frequencies in
/// [0, max_value] with Dirichlet-ish random probabilities.
struct RandomValuePdfOptions {
  std::size_t domain_size = 64;
  std::size_t max_support = 4;
  std::size_t max_value = 8;
  std::uint64_t seed = 1;
};
ValuePdfInput GenerateRandomValuePdf(const RandomValuePdfOptions& options);

/// Unstructured random tuple-pdf input for tests.
struct RandomTuplePdfOptions {
  std::size_t domain_size = 8;
  std::size_t num_tuples = 6;
  std::size_t max_alternatives = 3;
  /// If true, alternative probabilities may sum to < 1 (absent rows).
  bool allow_absent = true;
  std::uint64_t seed = 1;
};
TuplePdfInput GenerateRandomTuplePdf(const RandomTuplePdfOptions& options);

/// Deterministic Zipf-ish frequency vector (classic synopsis test data).
std::vector<double> GenerateZipfFrequencies(std::size_t domain_size,
                                            double alpha, double total_mass,
                                            std::uint64_t seed);

}  // namespace probsyn

#endif  // PROBSYN_GEN_GENERATORS_H_
