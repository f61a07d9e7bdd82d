// The quadric surface fit used by the paper's curvature estimator
// (Section 5.2, Eqn. 11).
//
// The m nearest-neighbours method fits z = a x^2 + b x y + c y^2 to samples
// expressed in node-local coordinates; principal curvatures follow from
// Eqns. 12-13 and the Gaussian curvature is their product.
#pragma once

#include <span>

namespace cps::num {

/// One sample for the quadric fit, in coordinates local to the fitting node
/// (dx = x - x0, dy = y - y0, dz = z - z0).
struct QuadricSample {
  double dx = 0.0;
  double dy = 0.0;
  double dz = 0.0;
};

/// Coefficients of z = a x^2 + b x y + c y^2 plus derived curvatures.
struct QuadricFit {
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;

  /// Principal curvatures per the paper's m nearest-neighbours formulas:
  /// g1 = a + c - sqrt((a-c)^2 + b^2), g2 = a + c + sqrt((a-c)^2 + b^2).
  double g1() const noexcept;
  double g2() const noexcept;

  /// Gaussian curvature G = g1 * g2.
  double gaussian() const noexcept;

  /// Evaluates the fitted quadric at local offset (dx, dy).
  double evaluate(double dx, double dy) const noexcept;
};

/// Fits the quadric to >= 3 samples (paper: m = floor(pi Rs^2) grid samples
/// inside the sensing disk) by solving the 3x3 normal equations.  Throws
/// std::invalid_argument with fewer than 3 samples; adds a tiny ridge term
/// so a singular design (all samples collinear through the origin) still
/// gives a finite fit.
QuadricFit fit_quadric(std::span<const QuadricSample> samples);

}  // namespace cps::num
