// Local curvature estimation (Section 5.2).
//
// A CPS node can sense the environment on the m = ~floor(pi Rs^2) lattice
// positions inside its sensing disk.  From those samples it estimates the
// local quadric z = a x^2 + b x y + c y^2 by least squares (Eqn. 11); the
// principal curvatures are g1,2 = a + c -/+ sqrt((a-c)^2 + b^2)
// (Eqns. 12-13) and the Gaussian curvature is G = g1 * g2.
//
// SensingPatch encapsulates one such sensing action: which lattice points
// fall in the disk, what the node measured there, the fitted quadric, and
// the highest-curvature position inside the disk (the target of the F1
// attraction force).  Curvature at non-centre lattice points is estimated
// by finite differences on the lattice, which equals the quadric-fit value
// for quadratic surfaces and stays strictly local (no data beyond Rs).
#pragma once

#include <optional>
#include <vector>

#include "core/types.hpp"
#include "field/field.hpp"
#include "numerics/least_squares.hpp"
#include "numerics/quadrature.hpp"

namespace cps::core {

/// One sensing action of a node over its disk.
class SensingPatch {
 public:
  /// Senses `f` on the spacing-pitched lattice inside the disk of
  /// `radius` around `center`.  Throws std::invalid_argument when radius
  /// or spacing is <= 0, when the disk holds fewer than 3 lattice points,
  /// or when radius / spacing exceeds 23169 (the lattice would outgrow its
  /// int index; an infinite radius included).
  SensingPatch(const field::Field& f, geo::Vec2 center, double radius,
               double spacing = 1.0);

  geo::Vec2 center() const noexcept { return center_; }
  double radius() const noexcept { return radius_; }
  double spacing() const noexcept { return spacing_; }

  /// The m sensed samples (lattice points inside the disk).
  const std::vector<Sample>& samples() const noexcept { return samples_; }
  std::size_t sample_count() const noexcept { return samples_.size(); }

  /// Least-squares quadric centred on the node (Eqn. 11).
  const num::QuadricFit& quadric() const noexcept { return fit_; }

  /// Gaussian curvature at the node, G = g1 * g2.
  double gaussian() const noexcept { return fit_.gaussian(); }

  /// The highest-|G| position inside the disk and its curvature magnitude;
  /// std::nullopt when no interior lattice point has a full finite-
  /// difference stencil (tiny disks).
  struct Peak {
    geo::Vec2 position;
    double gaussian_abs = 0.0;
  };
  std::optional<Peak> peak_curvature() const noexcept { return peak_; }

  /// Mean |G| over lattice points with a full stencil; 0 when none.  Used
  /// to normalise curvature weights in the force balance (see
  /// core/forces.hpp).
  double mean_abs_gaussian() const noexcept { return mean_abs_gaussian_; }

  /// RMS residual of the quadric fit over the sensed samples — how well
  /// the local surface actually is a quadric.  Large residuals mean the
  /// curvature estimate (and the forces derived from it) is extrapolating.
  double rms_residual() const noexcept { return rms_residual_; }

 private:
  geo::Vec2 center_;
  double radius_;
  double spacing_;
  std::vector<Sample> samples_;
  num::QuadricFit fit_;
  std::optional<Peak> peak_;
  double mean_abs_gaussian_ = 0.0;
  double rms_residual_ = 0.0;
};

/// Region-level curvature queries against a known field — the centralised
/// counterpart of SensingPatch, used by the CWD reference solver (Fig. 3)
/// and the FRA curvature-selection ablation.
class CurvatureEstimator {
 public:
  /// Throws std::invalid_argument when radius or spacing <= 0.
  explicit CurvatureEstimator(double sensing_radius, double spacing = 1.0);

  double sensing_radius() const noexcept { return radius_; }

  /// Quadric fit of `f` centred at p.
  num::QuadricFit fit_at(const field::Field& f, geo::Vec2 p) const;

  /// Gaussian curvature of `f` at p.
  double gaussian_at(const field::Field& f, geo::Vec2 p) const;

  /// |G| rasterised over a region lattice (nx * ny values, row-major).
  std::vector<double> abs_gaussian_grid(const field::Field& f,
                                        const num::Rect& region,
                                        std::size_t nx, std::size_t ny) const;

 private:
  double radius_;
  double spacing_;
};

}  // namespace cps::core
