// Deterministic pseudo-random number generation for reproducible simulation.
//
// All stochastic components of the library (random deployment baselines,
// synthetic trace generation, property-test sweeps) draw from cps::num::Rng
// so that a (seed, parameter) pair always reproduces the same run.  The
// generator is xoshiro256**, which is small, fast, and has no measurable
// bias for the statistical loads used here.
#pragma once

#include <cstdint>

namespace cps::num {

/// Deterministic 64-bit PRNG (xoshiro256**) with convenience samplers.
class Rng {
 public:
  /// Seeds the state via splitmix64 so that nearby seeds give unrelated
  /// streams.  Any seed, including 0, is valid.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Next raw 64-bit value.
  std::uint64_t next_u64() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi).  Requires lo <= hi; returns lo when equal.
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal variate (Box-Muller; caches the second value).
  double normal() noexcept;

  /// Normal variate with the given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma) noexcept;

  /// True with probability p (clamped to [0, 1]).
  bool bernoulli(double p) noexcept;

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace cps::num
