#include "core/priority.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/stats.hpp"

namespace pulse::core {

PriorityStructure::PriorityStructure(std::size_t model_count)
    : counts_(model_count, 0), at_min_(model_count) {}

void PriorityStructure::record_downgrade(trace::FunctionId f) {
  std::uint64_t& count = counts_.at(f);
  ++count;
  ++total_;
  max_ = std::max(max_, count);
  if (count - 1 == min_ && --at_min_ == 0) {
    ++min_;
    at_min_ = static_cast<std::size_t>(std::count(counts_.begin(), counts_.end(), min_));
  }
}

std::uint64_t PriorityStructure::downgrade_count(trace::FunctionId f) const {
  return counts_.at(f);
}

std::vector<double> PriorityStructure::normalized() const {
  std::vector<double> values;
  normalized_into(values);
  return values;
}

void PriorityStructure::normalized_into(std::vector<double>& out) const {
  out.resize(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out[i] = static_cast<double>(counts_[i]);
  }
  util::minmax_normalize_inplace(out);
}

double PriorityStructure::normalized_priority(trace::FunctionId f) const {
  if (f >= counts_.size()) throw std::out_of_range("PriorityStructure::normalized_priority");
  // The arithmetic of util::minmax_normalize_inplace, element by element:
  // counts convert to double exactly, so lo/hi are the doubles it would find.
  const double x = static_cast<double>(counts_[f]);
  const double lo = static_cast<double>(min_);
  const double hi = static_cast<double>(max_);
  return hi != lo ? (x - lo) / (hi - lo) : x - lo;
}

}  // namespace pulse::core
