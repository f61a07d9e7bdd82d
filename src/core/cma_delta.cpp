#include "core/cma_delta.hpp"

#include "core/reconstruction.hpp"

namespace cps::core {

CmaDeltaTracker::CmaDeltaTracker(const CmaSimulation& sim,
                                 const DeltaMetric& metric)
    : metric_(&metric), dt_(metric.region()) {
  update(sim);
}

double CmaDeltaTracker::update(const CmaSimulation& sim) {
  // CmaSimulation::current_delta's pipeline, with the surface kept.
  const field::FieldSlice slice(sim.environment(), sim.time());
  dt_ = reconstruct_surface(sim.sense_at_nodes(), metric_->region(),
                            CornerPolicy::kNearestSample, &slice);
  value_ = metric_->delta(slice, dt_);
  return value_;
}

}  // namespace cps::core
