#include "core/reconstruction.hpp"

#include <limits>
#include <stdexcept>

#include "obs/obs.hpp"

namespace cps::core {

geo::Delaunay reconstruct_surface(std::span<const Sample> samples,
                                  const num::Rect& region,
                                  CornerPolicy policy,
                                  const field::Field* reference,
                                  std::vector<int>* vertex_of_sample) {
  if (policy == CornerPolicy::kFieldValue && reference == nullptr) {
    throw std::invalid_argument(
        "reconstruct_surface: kFieldValue needs a reference field");
  }
  CPS_TIMER("core.delta.reconstruct");
  geo::Delaunay dt(region);
  if (vertex_of_sample != nullptr) vertex_of_sample->clear();
  for (const auto& s : samples) {
    const int v = dt.insert(s.position, s.z).vertex;
    if (vertex_of_sample != nullptr) vertex_of_sample->push_back(v);
  }

  for (int corner = 0; corner < geo::Delaunay::kCorners; ++corner) {
    const geo::Vec2 cp = dt.vertex(corner).pos;
    if (policy == CornerPolicy::kFieldValue) {
      dt.set_vertex_z(corner, reference->value(cp));
      continue;
    }
    double best = std::numeric_limits<double>::infinity();
    double z = 0.0;
    for (const auto& s : samples) {
      const double d2 = geo::distance_sq(cp, s.position);
      // <= so ties resolve to the latest sample, matching the insert
      // semantics where a re-sampled position carries its newest value.
      if (d2 <= best) {
        best = d2;
        z = s.z;
      }
    }
    dt.set_vertex_z(corner, z);
  }
  return dt;
}

std::vector<Sample> take_samples(const field::Field& f,
                                 std::span<const geo::Vec2> positions) {
  std::vector<Sample> out;
  out.reserve(positions.size());
  for (const auto& p : positions) out.push_back(Sample{p, f.value(p)});
  return out;
}

}  // namespace cps::core
