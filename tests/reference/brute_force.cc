#include "reference/brute_force.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/math.h"

namespace probsyn::reference {

namespace {

// Recursively extends the partial assignment over items (value pdf).
Status EnumerateValueRec(const ValuePdfInput& input, std::size_t item,
                         std::vector<double>& freq, double prob,
                         std::size_t max_worlds,
                         std::vector<PossibleWorld>& out) {
  if (item == input.domain_size()) {
    if (out.size() >= max_worlds) {
      return Status::OutOfRange("possible-world enumeration exceeded cap");
    }
    out.push_back({freq, prob});
    return Status::OK();
  }
  for (const ValueProb& e : input.item(item).entries()) {
    freq[item] = e.value;
    PROBSYN_RETURN_IF_ERROR(EnumerateValueRec(
        input, item + 1, freq, prob * e.probability, max_worlds, out));
  }
  freq[item] = 0.0;
  return Status::OK();
}

// Recursively extends the partial assignment over tuples (tuple pdf).
Status EnumerateTupleRec(const TuplePdfInput& input, std::size_t tuple_index,
                         std::vector<double>& freq, double prob,
                         std::size_t max_worlds,
                         std::vector<PossibleWorld>& out) {
  if (prob == 0.0) return Status::OK();  // Prune impossible branches.
  if (tuple_index == input.num_tuples()) {
    if (out.size() >= max_worlds) {
      return Status::OutOfRange("possible-world enumeration exceeded cap");
    }
    out.push_back({freq, prob});
    return Status::OK();
  }
  const ProbTuple& t = input.tuples()[tuple_index];
  for (const TupleAlternative& a : t.alternatives()) {
    freq[a.item] += 1.0;
    PROBSYN_RETURN_IF_ERROR(EnumerateTupleRec(
        input, tuple_index + 1, freq, prob * a.probability, max_worlds, out));
    freq[a.item] -= 1.0;
  }
  if (t.ProbAbsent() > 0.0) {
    PROBSYN_RETURN_IF_ERROR(EnumerateTupleRec(input, tuple_index + 1, freq,
                                              prob * t.ProbAbsent(),
                                              max_worlds, out));
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::vector<PossibleWorld>> EnumerateWorlds(const ValuePdfInput& input,
                                                     std::size_t max_worlds) {
  PROBSYN_RETURN_IF_ERROR(input.Validate());
  std::vector<PossibleWorld> out;
  std::vector<double> freq(input.domain_size(), 0.0);
  PROBSYN_RETURN_IF_ERROR(
      EnumerateValueRec(input, 0, freq, 1.0, max_worlds, out));
  return out;
}

StatusOr<std::vector<PossibleWorld>> EnumerateWorlds(const TuplePdfInput& input,
                                                     std::size_t max_worlds) {
  PROBSYN_RETURN_IF_ERROR(input.Validate());
  std::vector<PossibleWorld> out;
  std::vector<double> freq(input.domain_size(), 0.0);
  PROBSYN_RETURN_IF_ERROR(
      EnumerateTupleRec(input, 0, freq, 1.0, max_worlds, out));
  return out;
}

StatusOr<std::vector<PossibleWorld>> EnumerateWorlds(
    const BasicModelInput& input, std::size_t max_worlds) {
  auto tuple_pdf = input.ToTuplePdf();
  if (!tuple_pdf.ok()) return tuple_pdf.status();
  return EnumerateWorlds(tuple_pdf.value(), max_worlds);
}

double ExpectationOverWorlds(
    const std::vector<PossibleWorld>& worlds,
    const std::function<double(const std::vector<double>&)>& f) {
  double total = 0.0;
  for (const PossibleWorld& w : worlds) {
    total += w.probability * f(w.frequencies);
  }
  return total;
}

void ForEachBucketization(
    std::size_t n, std::size_t num_buckets,
    const std::function<void(const std::vector<std::size_t>&)>& fn) {
  if (num_buckets == 0 || num_buckets > n) return;
  // Choose num_buckets-1 interior boundaries among positions 0..n-2, then
  // append the forced final boundary n-1.
  std::vector<std::size_t> ends(num_buckets);
  std::function<void(std::size_t, std::size_t)> rec =
      [&](std::size_t k, std::size_t next_start) {
        if (k + 1 == num_buckets) {
          ends[k] = n - 1;
          fn(ends);
          return;
        }
        // Bucket k may end anywhere leaving room for the remaining buckets.
        for (std::size_t e = next_start; e + (num_buckets - 1 - k) <= n - 1;
             ++e) {
          ends[k] = e;
          rec(k + 1, e + 1);
        }
      };
  rec(0, 0);
}

double TernarySearchMinContinuous(double lo, double hi,
                                  const std::function<double(double)>& f,
                                  int iterations) {
  PROBSYN_CHECK(lo <= hi);
  for (int it = 0; it < iterations && hi - lo > 0; ++it) {
    double m1 = lo + (hi - lo) / 3.0;
    double m2 = hi - (hi - lo) / 3.0;
    if (f(m1) <= f(m2)) {
      hi = m2;
    } else {
      lo = m1;
    }
  }
  return 0.5 * (lo + hi);
}

double SumStable(std::span<const double> xs) {
  KahanSum sum;
  for (double x : xs) sum.Add(x);
  return sum.value();
}

double Variance(const ValuePdf& pdf) {
  double mean = pdf.Mean();
  return ClampTinyNegative(pdf.SecondMoment() - mean * mean);
}

double ProbEquals(const ValuePdf& pdf, double v) {
  const std::vector<ValueProb>& entries = pdf.entries();
  auto it = std::lower_bound(
      entries.begin(), entries.end(), v,
      [](const ValueProb& e, double x) { return e.value < x; });
  if (it != entries.end() && it->value == v) return it->probability;
  return 0.0;
}

double ProbAtMost(const ValuePdf& pdf, double v) {
  double total = 0.0;
  for (const ValueProb& e : pdf.entries()) {
    if (e.value > v) break;
    total += e.probability;
  }
  return total;
}

double ProbGreater(const ValuePdf& pdf, double v) {
  return 1.0 - ProbAtMost(pdf, v);
}

double ExpectedAbsDeviation(const ValuePdf& pdf, double a) {
  KahanSum sum;
  for (const ValueProb& e : pdf.entries()) {
    sum.Add(e.probability * std::fabs(e.value - a));
  }
  return sum.value();
}

double ExpectedRelDeviation(const ValuePdf& pdf, double a, double c) {
  KahanSum sum;
  for (const ValueProb& e : pdf.entries()) {
    sum.Add(e.probability * RelativeWeight(e.value, c) *
            std::fabs(e.value - a));
  }
  return sum.value();
}

}  // namespace probsyn::reference
