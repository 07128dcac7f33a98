#include "model/worlds.h"

namespace probsyn {

ValuePdfWorldSampler::ValuePdfWorldSampler(const ValuePdfInput& input) {
  samplers_.reserve(input.domain_size());
  values_.reserve(input.domain_size());
  for (const ValuePdf& pdf : input.items()) {
    std::vector<double> weights;
    std::vector<double> values;
    weights.reserve(pdf.size());
    values.reserve(pdf.size());
    for (const ValueProb& e : pdf.entries()) {
      weights.push_back(e.probability);
      values.push_back(e.value);
    }
    samplers_.emplace_back(weights);
    values_.push_back(std::move(values));
  }
}

std::vector<double> ValuePdfWorldSampler::Sample(Rng& rng) const {
  std::vector<double> freq(samplers_.size());
  for (std::size_t i = 0; i < samplers_.size(); ++i) {
    freq[i] = values_[i][samplers_[i].Sample(rng)];
  }
  return freq;
}

TuplePdfWorldSampler::TuplePdfWorldSampler(const TuplePdfInput& input)
    : domain_size_(input.domain_size()) {
  samplers_.reserve(input.num_tuples());
  choice_items_.reserve(input.num_tuples());
  for (const ProbTuple& t : input.tuples()) {
    std::vector<double> weights;
    std::vector<std::size_t> items;
    weights.reserve(t.size() + 1);
    items.reserve(t.size() + 1);
    for (const TupleAlternative& a : t.alternatives()) {
      weights.push_back(a.probability);
      items.push_back(a.item);
    }
    if (t.ProbAbsent() > 0.0) {
      weights.push_back(t.ProbAbsent());
      items.push_back(kAbsent);
    }
    samplers_.emplace_back(weights);
    choice_items_.push_back(std::move(items));
  }
}

std::vector<double> TuplePdfWorldSampler::Sample(Rng& rng) const {
  std::vector<double> freq(domain_size_, 0.0);
  for (std::size_t j = 0; j < samplers_.size(); ++j) {
    std::size_t choice = samplers_[j].Sample(rng);
    std::size_t item = choice_items_[j][choice];
    if (item != kAbsent) freq[item] += 1.0;
  }
  return freq;
}

}  // namespace probsyn
