#include "net/fault.hpp"

#include <algorithm>
#include <stdexcept>

#include "numerics/rng.hpp"

namespace cps::net {
namespace {

/// Sort key: slot-major, node, then deaths before revivals so a same-slot
/// death+revival pair nets out to "alive with reset protocol state".
bool event_less(const FaultEvent& a, const FaultEvent& b) {
  if (a.slot != b.slot) return a.slot < b.slot;
  if (a.node != b.node) return a.node < b.node;
  return static_cast<int>(a.kind) < static_cast<int>(b.kind);
}

}  // namespace

void FaultSchedule::add(const FaultEvent& event) {
  const auto it =
      std::upper_bound(events_.begin(), events_.end(), event, event_less);
  events_.insert(it, event);
}

FaultSchedule FaultSchedule::random_deaths(std::size_t node_count,
                                           double death_probability,
                                           std::size_t first_slot,
                                           std::size_t last_slot,
                                           std::uint64_t seed) {
  if (!(death_probability >= 0.0 && death_probability <= 1.0)) {
    throw std::invalid_argument("FaultSchedule: death probability");
  }
  if (last_slot < first_slot) {
    throw std::invalid_argument("FaultSchedule: slot window");
  }
  num::Rng rng(seed);
  FaultSchedule schedule;
  for (std::size_t node = 0; node < node_count; ++node) {
    // Draw per node in index order so the schedule is invariant to how
    // many nodes actually die (fixed two-draw budget per node).
    const bool dies = rng.bernoulli(death_probability);
    const auto slot = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(first_slot),
                        static_cast<std::int64_t>(last_slot)));
    if (dies) schedule.add_death(slot, node);
  }
  return schedule;
}

std::size_t FaultSchedule::death_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(events_.begin(), events_.end(), [](const FaultEvent& e) {
        return e.kind == FaultKind::kDeath;
      }));
}

std::span<const FaultEvent> FaultSchedule::events_at(
    std::size_t slot) const noexcept {
  const FaultEvent probe{slot, 0, FaultKind::kDeath};
  const auto lo = std::lower_bound(
      events_.begin(), events_.end(), probe,
      [](const FaultEvent& a, const FaultEvent& b) { return a.slot < b.slot; });
  auto hi = lo;
  while (hi != events_.end() && hi->slot == slot) ++hi;
  return {events_.data() + (lo - events_.begin()),
          static_cast<std::size_t>(hi - lo)};
}

std::size_t FaultSchedule::last_slot() const noexcept {
  return events_.empty() ? 0 : events_.back().slot;
}

}  // namespace cps::net
