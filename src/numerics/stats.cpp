#include "numerics/stats.hpp"

#include <algorithm>
#include <cmath>

namespace cps::num {

void RunningStats::add(double x) noexcept {
  ++n_;
  const double d = x - mean_;
  mean_ += d / static_cast<double>(n_);
  m2_ += d * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const noexcept {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

std::size_t convergence_index(std::span<const double> data, double tolerance) {
  if (data.empty()) return 0;
  const double target = data.back();
  const double band =
      tolerance * std::max(std::abs(target), 1e-12);
  std::size_t idx = data.size();
  for (std::size_t i = data.size(); i-- > 0;) {
    if (std::abs(data[i] - target) <= band) {
      idx = i;
    } else {
      break;
    }
  }
  return idx;
}

}  // namespace cps::num
