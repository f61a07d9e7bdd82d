// Per-slot δ trajectory for CMA: a fresh reconstruction every slot.
//
// CMA moves nearly every node in every slot (about 930 of 1000 in the
// Fig. 10 set-up), so a persistent triangulation fed one Delaunay event
// per moved node re-evaluates several full lattice sweeps' worth of
// points per slot.  Rebuilding the surface from the slot's samples and
// running one raster sweep is the cheaper way to the same number.
//
// CmaDeltaTracker is therefore a thin shell over exactly that pipeline:
// construction and update() both run
// reconstruct_surface(sim.sense_at_nodes(), region, kNearestSample) into
// the kept triangulation and measure it with DeltaMetric::delta.  The
// value is bit-identical to sim.current_delta(metric), cocircular tie
// order included, because it is the same computation.  The triangulation
// stays readable so callers can check δ against it independently.
#pragma once

#include "core/cma.hpp"
#include "core/delta.hpp"
#include "geometry/delaunay.hpp"

namespace cps::core {

/// Per-slot δ of a CmaSimulation's living deployment.  Not thread-safe;
/// call update() after each sim.step(), from one thread.
class CmaDeltaTracker {
 public:
  /// Measures the simulation's current state.  The metric is retained by
  /// reference and must outlive the tracker; its region should equal the
  /// simulation's.
  CmaDeltaTracker(const CmaSimulation& sim, const DeltaMetric& metric);

  /// Rebuilds the surface from the simulation's current samples and
  /// returns its δ against the current time slice.
  double update(const CmaSimulation& sim);

  /// δ measured by the last update() (or by construction).
  double value() const noexcept { return value_; }

  /// The surface the last update() (or construction) measured.
  const geo::Delaunay& triangulation() const noexcept { return dt_; }

 private:
  const DeltaMetric* metric_;
  geo::Delaunay dt_;
  double value_ = 0.0;
};

}  // namespace cps::core
