// Surface reconstruction: samples -> Delaunay-interpolated surface.
//
// This is the paper's environment-rebuilding step (Section 3.1): the
// sampled data at the k node positions are rendered into the virtual
// surface z* = DT(x, y) by Delaunay triangulation.  The triangulation is
// corner-seeded so it covers the whole region; the corner policy decides
// what value the scaffolding corners carry.
#pragma once

#include <span>
#include <vector>

#include "core/types.hpp"
#include "field/field.hpp"
#include "geometry/delaunay.hpp"
#include "numerics/quadrature.hpp"

namespace cps::core {

/// How to value the four corner scaffolding vertices.
enum class CornerPolicy {
  /// Corner takes the z of the nearest sample — the only information a
  /// real deployment has.  Default for all planners and CMA.
  kNearestSample,
  /// Corner takes the referential field's true value; used by tests that
  /// want interpolation error isolated from corner extrapolation error.
  kFieldValue,
};

/// Builds the rebuilt surface DT from samples.  With kFieldValue,
/// `reference` must be non-null (std::invalid_argument otherwise); samples
/// may be empty (the surface is then flat at the corner values, or 0 when
/// there are no samples under kNearestSample).  When `vertex_of_sample` is
/// non-null it receives, for each sample in order, the id of the vertex
/// that carries it (a duplicate position reports the vertex it merged
/// into).
geo::Delaunay reconstruct_surface(std::span<const Sample> samples,
                                  const num::Rect& region,
                                  CornerPolicy policy =
                                      CornerPolicy::kNearestSample,
                                  const field::Field* reference = nullptr,
                                  std::vector<int>* vertex_of_sample = nullptr);

/// Samples `f` at the deployment's positions (the act of sensing).
std::vector<Sample> take_samples(const field::Field& f,
                                 std::span<const geo::Vec2> positions);

}  // namespace cps::core
