#include "core/curvature.hpp"

#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"

namespace cps::core {
namespace {

// Lattice half-width in cells for a disk of `radius` at `spacing` pitch.
int half_cells(double radius, double spacing) {
  return static_cast<int>(std::floor(radius / spacing));
}

}  // namespace

SensingPatch::SensingPatch(const field::Field& f, geo::Vec2 center,
                           double radius, double spacing)
    : center_(center), radius_(radius), spacing_(spacing) {
  if (!(radius > 0.0)) throw std::invalid_argument("SensingPatch: radius");
  if (!(spacing > 0.0)) throw std::invalid_argument("SensingPatch: spacing");

  const int h = half_cells(radius, spacing);
  const int side = 2 * h + 1;
  const double r2 = radius * radius;

  // Sense the whole square lattice once; `inside` masks the disk.  The
  // square grid keeps finite-difference stencils trivial to address.
  // The disk's intersection with a lattice row is one contiguous column
  // interval, so each row is a single batched value_row call over that
  // interval (bit-identical to per-point sensing by the batch contract);
  // the in-disk test itself touches no field values.
  std::vector<double> z(static_cast<std::size_t>(side * side), 0.0);
  std::vector<char> inside(static_cast<std::size_t>(side * side), 0);
  const auto idx = [side](int i, int j) {
    return static_cast<std::size_t>(j * side + i);
  };
  std::vector<double> xs(static_cast<std::size_t>(side));
  for (int i = 0; i < side; ++i) {
    xs[static_cast<std::size_t>(i)] =
        center.x + static_cast<double>(i - h) * spacing;
  }
  for (int j = 0; j < side; ++j) {
    const double oy = static_cast<double>(j - h) * spacing;
    const double y = center.y + oy;
    int ilo = -1;
    int ihi = -1;
    for (int i = 0; i < side; ++i) {
      const double ox = static_cast<double>(i - h) * spacing;
      if (ox * ox + oy * oy > r2) continue;
      if (ilo < 0) ilo = i;
      ihi = i;
    }
    if (ilo < 0) continue;
    const auto count = static_cast<std::size_t>(ihi - ilo + 1);
    f.value_row(y,
                std::span<const double>(xs).subspan(
                    static_cast<std::size_t>(ilo), count),
                &z[idx(ilo, j)]);
    CPS_COUNT("core.curvature.batch_rows", 1);
    for (int i = ilo; i <= ihi; ++i) {
      inside[idx(i, j)] = 1;
      samples_.push_back(
          Sample{geo::Vec2{xs[static_cast<std::size_t>(i)], y}, z[idx(i, j)]});
    }
  }
  if (samples_.size() < 3) {
    throw std::invalid_argument("SensingPatch: fewer than 3 lattice points");
  }

  // Quadric fit in node-local coordinates (Eqn. 11): dz relative to the
  // node's own measurement.
  const double z_center = f.value(center);
  std::vector<num::QuadricSample> qs;
  qs.reserve(samples_.size());
  for (const auto& s : samples_) {
    qs.push_back(num::QuadricSample{s.position.x - center.x,
                                    s.position.y - center.y,
                                    s.z - z_center});
  }
  fit_ = num::fit_quadric(qs);
  double sq_sum = 0.0;
  for (const auto& s : qs) {
    const double r = s.dz - fit_.evaluate(s.dx, s.dy);
    sq_sum += r * r;
  }
  rms_residual_ = std::sqrt(sq_sum / static_cast<double>(qs.size()));

  // Finite-difference Gaussian curvature on interior lattice points.  For a
  // graph surface z(x, y), G's numerator is zxx * zyy - zxy^2; the paper's
  // variance-ratio definition drops the metric denominator, and so do we.
  const double s2 = spacing * spacing;
  double abs_sum = 0.0;
  std::size_t abs_count = 0;
  double best = -1.0;
  geo::Vec2 best_pos = center;
  for (int j = 1; j + 1 < side; ++j) {
    for (int i = 1; i + 1 < side; ++i) {
      if (!inside[idx(i, j)] || !inside[idx(i - 1, j)] ||
          !inside[idx(i + 1, j)] || !inside[idx(i, j - 1)] ||
          !inside[idx(i, j + 1)] || !inside[idx(i - 1, j - 1)] ||
          !inside[idx(i + 1, j - 1)] || !inside[idx(i - 1, j + 1)] ||
          !inside[idx(i + 1, j + 1)]) {
        continue;
      }
      const double zxx =
          (z[idx(i + 1, j)] - 2.0 * z[idx(i, j)] + z[idx(i - 1, j)]) / s2;
      const double zyy =
          (z[idx(i, j + 1)] - 2.0 * z[idx(i, j)] + z[idx(i, j - 1)]) / s2;
      const double zxy = (z[idx(i + 1, j + 1)] - z[idx(i + 1, j - 1)] -
                          z[idx(i - 1, j + 1)] + z[idx(i - 1, j - 1)]) /
                         (4.0 * s2);
      const double g = std::abs(zxx * zyy - zxy * zxy);
      abs_sum += g;
      ++abs_count;
      if (g > best) {
        best = g;
        best_pos = center + geo::Vec2{static_cast<double>(i - h) * spacing,
                                      static_cast<double>(j - h) * spacing};
      }
    }
  }
  if (abs_count > 0) {
    mean_abs_gaussian_ = abs_sum / static_cast<double>(abs_count);
    peak_ = Peak{best_pos, best};
  }
}

CurvatureEstimator::CurvatureEstimator(double sensing_radius, double spacing)
    : radius_(sensing_radius), spacing_(spacing) {
  if (!(sensing_radius > 0.0)) {
    throw std::invalid_argument("CurvatureEstimator: radius");
  }
  if (!(spacing > 0.0)) {
    throw std::invalid_argument("CurvatureEstimator: spacing");
  }
}

num::QuadricFit CurvatureEstimator::fit_at(const field::Field& f,
                                           geo::Vec2 p) const {
  return SensingPatch(f, p, radius_, spacing_).quadric();
}

double CurvatureEstimator::gaussian_at(const field::Field& f,
                                       geo::Vec2 p) const {
  return fit_at(f, p).gaussian();
}

std::vector<double> CurvatureEstimator::abs_gaussian_grid(
    const field::Field& f, const num::Rect& region, std::size_t nx,
    std::size_t ny) const {
  if (nx < 2 || ny < 2) {
    throw std::invalid_argument("abs_gaussian_grid: nx, ny >= 2");
  }
  std::vector<double> out;
  out.reserve(nx * ny);
  const double dx = region.width() / static_cast<double>(nx - 1);
  const double dy = region.height() / static_cast<double>(ny - 1);
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      const geo::Vec2 p{region.x0 + static_cast<double>(i) * dx,
                        region.y0 + static_cast<double>(j) * dy};
      out.push_back(std::abs(gaussian_at(f, p)));
    }
  }
  return out;
}

}  // namespace cps::core
