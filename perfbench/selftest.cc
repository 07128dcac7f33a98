// Self-test of the output checks: each check passes on the true reference
// and fails once the reference is deliberately changed by one ulp, one
// bucket boundary or one coefficient.

#include <cmath>
#include <cstdio>
#include <functional>

#include "bench.h"
#include "gen/generators.h"

namespace perfbench {

using probsyn::NamedSynopsis;

bool SelfTest(const std::string& work_dir) {
  probsyn::SynopsisEngine engine;
  const probsyn::TuplePdfInput input = probsyn::GenerateMaybmsTpch(
      {.domain_size = 256, .num_tuples = 1024, .seed = 5});
  std::vector<probsyn::SynopsisRequest> requests(2);
  requests[0].budget = 8;
  requests[1].kind = probsyn::SynopsisKind::kWavelet;
  requests[1].budget = 16;
  requests[1].wavelet_method = probsyn::WaveletMethod::kGreedySse;
  auto results = engine.BuildBatch(input, requests);
  const char* const names[] = {"hist", "wave"};
  if (!results.ok()) return false;
  const std::vector<NamedSynopsis> built = NameResults(std::move(*results), names);
  const std::string store_path = work_dir + "/selftest.synstore";
  if (!engine.Store(store_path, built).ok()) return false;
  auto server = engine.Serve(store_path);
  if (!server.ok()) return false;
  const QuerySample sample = MakeQuerySample(256, 1);

  std::vector<double> recorded = {built[0].result.cost, built[1].result.cost};
  std::vector<double> off_by_ulp = recorded;
  off_by_ulp[1] = std::nextafter(off_by_ulp[1], INFINITY);

  std::vector<double> tolerance_off = recorded;
  tolerance_off[0] = tolerance_off[0] / (1.0 + 2.0 * kCostTolerance);

  std::vector<NamedSynopsis> moved_boundary = built;
  auto buckets = built[0].result.histogram.buckets();
  buckets[0].end += 1;
  buckets[1].start += 1;
  moved_boundary[0].result.histogram = probsyn::Histogram(buckets);

  std::vector<NamedSynopsis> changed_rep = built;
  buckets = built[0].result.histogram.buckets();
  buckets[3].representative = std::nextafter(buckets[3].representative, INFINITY);
  changed_rep[0].result.histogram = probsyn::Histogram(buckets);

  std::vector<NamedSynopsis> changed_coefficient = built;
  auto coefficients = built[1].result.wavelet.coefficients();
  coefficients[0].value = std::nextafter(coefficients[0].value, INFINITY);
  changed_coefficient[1].result.wavelet = probsyn::WaveletSynopsis(
      256, built[1].result.wavelet.transform_size(), coefficients);

  // One stream through the ingest coordinator against a single builder.
  const auto items =
      probsyn::GenerateRandomValuePdf({.domain_size = 600, .seed = 9}).items();
  probsyn::IngestOptions options;
  options.max_buckets = 8;
  options.epsilon = 0.1;
  auto coordinator = engine.OpenIngest(options);
  if (!coordinator.ok()) return false;
  (*coordinator)->OpenStream();
  if (!(*coordinator)->SubmitBatch(0, items).ok()) return false;
  auto streamed = (*coordinator)->Finish(0);
  probsyn::StreamingHistogramBuilder builder(8, 0.1);
  builder.PushBatch(items);
  auto replayed = builder.Finish();
  if (!streamed.ok() || !replayed.ok()) return false;
  probsyn::StreamingHistogramBuilder::Result changed_replay = *replayed;
  changed_replay.cost = std::nextafter(changed_replay.cost, INFINITY);

  struct Case {
    const char* what;
    bool changed;
    std::function<void(Report&)> check;
  };
  const Case cases[] = {
      {"recorded costs", false,
       [&](Report& r) { CheckRecordedCosts(built, recorded, r); }},
      {"recorded cost one ulp off", true,
       [&](Report& r) { CheckRecordedCosts(built, off_by_ulp, r); }},
      {"costs within tolerance of recorded", false,
       [&](Report& r) { CheckCostsWithin(built, recorded, r); }},
      {"costs against a recorded cost twice the tolerance lower", true,
       [&](Report& r) { CheckCostsWithin(built, tolerance_off, r); }},
      {"rebuild against set-up build", false,
       [&](Report& r) { CheckSameResults(built, built, r); }},
      {"set-up build with a moved bucket boundary", true,
       [&](Report& r) { CheckSameResults(built, moved_boundary, r); }},
      {"served answers", false,
       [&](Report& r) { CheckServed(*server, built, sample, r); }},
      {"served answers against a representative one ulp off", true,
       [&](Report& r) { CheckServed(*server, changed_rep, sample, r); }},
      {"served answers against a coefficient one ulp off", true,
       [&](Report& r) { CheckServed(*server, changed_coefficient, sample, r); }},
      {"stream against single-builder replay", false,
       [&](Report& r) { CheckStreamResult(*streamed, *replayed, 0, r); }},
      {"stream against a replay cost one ulp off", true,
       [&](Report& r) { CheckStreamResult(*streamed, changed_replay, 0, r); }},
  };
  bool all_as_expected = true;
  for (const Case& c : cases) {
    Report report;
    c.check(report);
    const bool as_expected = report.correct() != c.changed;
    all_as_expected &= as_expected;
    std::printf("self-test %-55s %s (%s)\n", c.what,
                report.correct() ? "passes" : "fails",
                as_expected ? "as expected" : "WRONG");
  }
  return all_as_expected;
}

}  // namespace perfbench
