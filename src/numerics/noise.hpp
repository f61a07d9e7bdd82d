// Smooth deterministic 2-D value noise.  The synthetic GreenOrbs-like trace
// layers this under the RBF bumps to mimic small-scale canopy texture.
#pragma once

#include <cstdint>
#include <span>

namespace cps::num {

/// Lattice value noise with cosine interpolation plus fractal octaves.
/// Output of `sample` is in roughly [-1, 1]; `fbm` sums `octaves` layers at
/// doubling frequency and halving amplitude (normalised back to ~[-1, 1]).
class ValueNoise {
 public:
  /// `frequency` is cells per unit distance (> 0, else
  /// std::invalid_argument).
  explicit ValueNoise(std::uint64_t seed, double frequency = 0.05);

  /// Single-octave smooth noise at (x, y).
  double sample(double x, double y) const noexcept;

  /// Fractal Brownian motion: octaves >= 1 (else std::invalid_argument).
  /// The one-abscissa case of fbm_row.
  double fbm(double x, double y, int octaves) const;

  /// fbm(xs[i], y, octaves) into out[i] for every i, bit for bit.  Per
  /// octave the row's cell ordinate and ease weight are computed once, and
  /// a cell's four lattice values once per run of consecutive abscissae
  /// inside it (xs need not be sorted; a sorted row is one run per cell).
  void fbm_row(double y, std::span<const double> xs, int octaves,
               double* out) const;

 private:
  double lattice(std::int64_t ix, std::int64_t iy) const noexcept;
  /// out[i] += amp * sample(xs[i], y).
  void accumulate_row(double y, std::span<const double> xs, double amp,
                      double* out) const noexcept;

  std::uint64_t seed_;
  double frequency_;
};

}  // namespace cps::num
