#include "model/value_pdf.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/math.h"

namespace probsyn {

namespace {

// Tolerance for "probabilities sum to at most 1". Generators produce exact
// rationals, but round-tripping through text serialization can add ulps.
constexpr double kProbSlack = 1e-9;

}  // namespace

StatusOr<ValuePdf> ValuePdf::Create(std::vector<ValueProb> entries) {
  double total = 0.0;
  for (const ValueProb& e : entries) {
    if (!(e.probability >= 0.0) || !(e.probability <= 1.0 + kProbSlack)) {
      return Status::InvalidArgument("value pdf probability out of [0,1]");
    }
    if (!(e.value >= 0.0) || !std::isfinite(e.value)) {
      return Status::InvalidArgument("value pdf frequency must be >= 0 and finite");
    }
    total += e.probability;
  }
  if (total > 1.0 + kProbSlack) {
    return Status::InvalidArgument("value pdf probabilities sum to more than 1");
  }

  std::sort(entries.begin(), entries.end(),
            [](const ValueProb& a, const ValueProb& b) { return a.value < b.value; });
  // Merge duplicate values, drop zero-probability entries.
  std::vector<ValueProb> merged;
  merged.reserve(entries.size() + 1);
  for (const ValueProb& e : entries) {
    if (e.probability <= 0.0) continue;
    if (!merged.empty() && merged.back().value == e.value) {
      merged.back().probability += e.probability;
    } else {
      merged.push_back(e);
    }
  }
  // Materialize the implicit zero-frequency remainder (Definition 3).
  double remainder = 1.0 - total;
  if (remainder > 0.0) {
    if (!merged.empty() && merged.front().value == 0.0) {
      merged.front().probability += remainder;
    } else {
      merged.insert(merged.begin(), ValueProb{0.0, remainder});
    }
  }
  // Renormalize away the slack so downstream sums are exact-ish.
  double mass = 0.0;
  for (const ValueProb& e : merged) mass += e.probability;
  PROBSYN_CHECK(mass > 0.0);
  for (ValueProb& e : merged) e.probability /= mass;

  ValuePdf pdf;
  pdf.entries_ = std::move(merged);
  return pdf;
}

ValuePdf ValuePdf::PointMass(double value) {
  auto result = Create({{value, 1.0}});
  PROBSYN_CHECK(result.ok());
  return std::move(result).value();
}

double ValuePdf::Mean() const {
  KahanSum sum;
  for (const ValueProb& e : entries_) sum.Add(e.probability * e.value);
  return sum.value();
}

double ValuePdf::SecondMoment() const {
  KahanSum sum;
  for (const ValueProb& e : entries_) sum.Add(e.probability * e.value * e.value);
  return sum.value();
}

double ValuePdf::ExpectedSquaredDeviation(double a) const {
  KahanSum sum;
  for (const ValueProb& e : entries_) {
    double d = e.value - a;
    sum.Add(e.probability * d * d);
  }
  return sum.value();
}

double ValuePdf::ExpectedSquaredRelDeviation(double a, double c) const {
  KahanSum sum;
  for (const ValueProb& e : entries_) {
    double d = e.value - a;
    sum.Add(e.probability * SquaredRelativeWeight(e.value, c) * d * d);
  }
  return sum.value();
}

std::size_t ValuePdfInput::total_pairs() const {
  std::size_t m = 0;
  for (const ValuePdf& pdf : items_) m += pdf.size();
  return m;
}

Status ValuePdfInput::Validate() const {
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const ValuePdf& pdf = items_[i];
    if (pdf.empty()) {
      return Status::InvalidArgument("item " + std::to_string(i) +
                                     " has an empty pdf");
    }
    double total = 0.0;
    double prev = -1.0;
    for (const ValueProb& e : pdf.entries()) {
      if (e.value <= prev) {
        return Status::Internal("item " + std::to_string(i) +
                                " pdf values not strictly increasing");
      }
      prev = e.value;
      if (e.probability <= 0.0 || e.probability > 1.0 + 1e-9) {
        return Status::InvalidArgument("item " + std::to_string(i) +
                                       " has probability out of (0,1]");
      }
      total += e.probability;
    }
    if (!AlmostEqual(total, 1.0, 1e-9, 1e-9)) {
      return Status::Internal("item " + std::to_string(i) +
                              " pdf mass != 1 after normalization");
    }
  }
  return Status::OK();
}

std::vector<double> ValuePdfInput::ValueGrid() const {
  std::vector<double> grid;
  grid.push_back(0.0);
  for (const ValuePdf& pdf : items_) {
    for (const ValueProb& e : pdf.entries()) grid.push_back(e.value);
  }
  std::sort(grid.begin(), grid.end());
  grid.erase(std::unique(grid.begin(), grid.end()), grid.end());
  return grid;
}

std::vector<double> ValuePdfInput::ExpectedFrequencies() const {
  std::vector<double> out(items_.size());
  for (std::size_t i = 0; i < items_.size(); ++i) out[i] = items_[i].Mean();
  return out;
}

std::vector<double> ValuePdfInput::FrequencyVariances() const {
  std::vector<double> out(items_.size());
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const double mean = items_[i].Mean();
    out[i] = ClampTinyNegative(items_[i].SecondMoment() - mean * mean);
  }
  return out;
}

std::vector<double> ValuePdfInput::FrequencySecondMoments() const {
  std::vector<double> out(items_.size());
  for (std::size_t i = 0; i < items_.size(); ++i) {
    out[i] = items_[i].SecondMoment();
  }
  return out;
}

ValuePdfInput PointMassInput(std::span<const double> frequencies) {
  std::vector<ValuePdf> items;
  items.reserve(frequencies.size());
  for (double f : frequencies) items.push_back(ValuePdf::PointMass(f));
  return ValuePdfInput(std::move(items));
}

}  // namespace probsyn
