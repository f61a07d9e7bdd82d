// Streaming statistics and the convergence slot, used by benches and trace
// analysis.
#pragma once

#include <cstddef>
#include <limits>
#include <span>

namespace cps::num {

/// Welford streaming accumulator: numerically stable mean/variance plus
/// min/max, with O(1) state.
class RunningStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return mean_; }

  /// Sample variance (n-1 denominator); 0 for fewer than 2 samples.
  double variance() const noexcept;
  double stddev() const noexcept;

  /// +inf / -inf when empty, mirroring std::numeric_limits conventions.
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Index of the first element from which the series stays within
/// `tolerance` (relative to the final value) until the end — the
/// "convergence slot" measurement used by the Fig. 10 bench.  Returns
/// data.size() when the series never settles.
std::size_t convergence_index(std::span<const double> data, double tolerance);

}  // namespace cps::num
