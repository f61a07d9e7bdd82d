#include "core/cma.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/cma_sharding.hpp"
#include "core/curvature.hpp"
#include "core/reconstruction.hpp"
#include "graph/geometric_graph.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace cps::core {

CmaSimulation::CmaSimulation(const field::TimeVaryingField& environment,
                             const num::Rect& region,
                             std::vector<geo::Vec2> initial,
                             const CmaConfig& config, double start_time)
    : environment_(&environment),
      region_(region),
      config_(config),
      positions_(std::move(initial)),
      bus_(positions_.size(),
           net::DiskRadio(config.rc, config.packet_loss, config.seed)),
      time_(start_time) {
  if (positions_.empty()) {
    throw std::invalid_argument("CmaSimulation: no nodes");
  }
  // Written as !(x > 0) so a NaN parameter is rejected too.
  if (!(config.rs > 0.0) || !(config.rc > 0.0) ||
      !(config.velocity >= 0.0) || !(config.dt > 0.0) ||
      !(config.force_gain > 0.0) || config.neighbor_ttl == 0) {
    throw std::invalid_argument("CmaSimulation: bad config");
  }
  for (const auto& p : positions_) {
    if (!region.contains(p.x, p.y)) {
      throw std::invalid_argument("CmaSimulation: node outside region");
    }
  }
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    bus_.set_position(i, positions_[i]);
  }
  last_forces_.resize(positions_.size());
  distance_traveled_.resize(positions_.size(), 0.0);
  alive_.assign(positions_.size(), 1);
  alive_count_ = positions_.size();
  known_.resize(positions_.size());
}

CmaSimulation::~CmaSimulation() = default;

template <typename Body>
void CmaSimulation::for_each_node(Body&& body) {
  // One chunk per tile: the chunk layout depends only on the tiling,
  // never the thread count, and every body is pure per-node.
  par::parallel_for_chunks(
      shard_->tile_count(),
      [&](std::size_t t0, std::size_t t1) {
        for (std::size_t t = t0; t < t1; ++t) {
          for (const std::uint32_t id : shard_->owned(t)) {
            body(static_cast<std::size_t>(id));
          }
        }
      },
      /*grain=*/1);
}

void CmaSimulation::deliver_round() {
  bus_.step([this](net::NodeId from) { return shard_->receivers_of(from); });
}

void CmaSimulation::set_fault_schedule(net::FaultSchedule schedule) {
  for (const auto& event : schedule.events()) {
    if (event.node >= positions_.size()) {
      throw std::invalid_argument("CmaSimulation: fault event node index");
    }
  }
  faults_ = std::move(schedule);
}

void CmaSimulation::apply_faults(std::size_t slot) {
  for (const auto& event : faults_.events_at(slot)) {
    const std::size_t i = event.node;
    if (event.kind == net::FaultKind::kDeath) {
      if (!alive_[i]) continue;  // Already dead: idempotent.
      alive_[i] = 0;
      --alive_count_;
      ++deaths_applied_;
      bus_.set_alive(i, false);
      known_[i].clear();
      last_forces_[i] = ForceBreakdown{};
      CPS_COUNT("core.cma.node_deaths", 1);
    } else {
      if (alive_[i]) continue;
      alive_[i] = 1;
      ++alive_count_;
      bus_.set_alive(i, true);
      // A revived node rejoins with blank protocol state; neighbours
      // relearn it (and it them) from the next beacon round.
      known_[i].clear();
      CPS_COUNT("core.cma.node_revivals", 1);
    }
  }
  CPS_GAUGE("core.cma.alive_nodes", static_cast<double>(alive_count_));
}

std::vector<std::vector<NeighborInfo>> CmaSimulation::refresh_neighbor_tables(
    std::size_t slot) {
  const std::size_t n = positions_.size();
  std::vector<std::vector<NeighborInfo>> tables(n);
  const auto fold_node = [&](std::size_t i) {
    if (!alive_[i]) {
      known_[i].clear();
      return;
    }
    // Age out entries first (an entry from slot s is valid through slot
    // s + ttl - 1), then fold in this slot's beacons.  With ttl == 1 the
    // prune empties the table every slot and the projection reproduces
    // the fresh-beacons-only tables of the original implementation,
    // entry order included.
    auto& table = known_[i];
    const std::size_t aged_out =
        std::erase_if(table, [&](const KnownNeighbor& k) {
          return slot - k.last_seen >= config_.neighbor_ttl;
        });
    net::count_drops(net::DropReason::kTtlExpired, aged_out);
    for (const auto& delivery : bus_.inbox(i)) {
      if (delivery.message.kind != Message::Kind::kBeacon) continue;
      const NeighborInfo info{delivery.message.position,
                              delivery.message.gaussian_abs};
      bool found = false;
      for (auto& k : table) {
        if (k.id == delivery.from) {
          k.info = info;
          k.last_seen = slot;
          found = true;
          break;
        }
      }
      if (!found) table.push_back(KnownNeighbor{delivery.from, info, slot});
    }
    CPS_HIST("core.cma.neighbor_table_size",
             static_cast<double>(table.size()));
    tables[i].reserve(table.size());
    for (const auto& k : table) tables[i].push_back(k.info);
  };
  for_each_node(fold_node);
  return tables;
}

void CmaSimulation::clamp_to_region(geo::Vec2& p) const noexcept {
  p.x = std::clamp(p.x, region_.x0, region_.x1);
  p.y = std::clamp(p.y, region_.y0, region_.y1);
}

void CmaSimulation::step() {
  CPS_TIMER("core.cma.step_total");
  CPS_COUNT("core.cma.steps", 1);
  const std::size_t n = positions_.size();
  const field::FieldSlice now(*environment_, time_);

  // --- 0. Fault injection: this slot's scheduled deaths/revivals. ---
  apply_faults(steps_run_);

  // Retile after the faults so ownership and the radio matching see this
  // slot's liveness; nodes that crossed a tile edge last slot migrate
  // here.  One matching serves both bus rounds — positions are frozen
  // within the slot.  The ghost ring must cover both the sensing disk and
  // the installed link's radius, so the grid is rebuilt when
  // set_link_model changed that radius.
  {
    CPS_TIMER("core.cma.shard_prepare");
    const double ghost = std::max(config_.rs, bus_.link().radius());
    if (!shard_ || shard_->ghost() != ghost) {
      const double side =
          config_.tile_size > 0.0 ? config_.tile_size : 2.0 * ghost;
      shard_ = std::make_unique<ShardGrid>(region_, side, ghost);
    }
    shard_->prepare(positions_, alive_, bus_.link());
  }

  // --- 1. Sense(Rs): local curvature estimation (Table 2 lines 2-3). ---
  std::vector<double> gaussian_abs(n, 0.0);
  std::vector<double> mean_abs(n, 0.0);
  std::vector<std::optional<PeakInfo>> peaks(n);
  {
    CPS_TIMER("core.cma.sense");
    // Each node's patch fit reads only the (const-thread-safe) field and
    // writes only its own slots, so Sense(Rs) is a parallel map.
    for_each_node(
        [&](std::size_t i) {
          if (!alive_[i]) return;  // Dead sensors sense nothing.
          const SensingPatch patch(now, positions_[i], config_.rs,
                                   config_.sample_spacing);
          gaussian_abs[i] = std::abs(patch.gaussian());
          mean_abs[i] = patch.mean_abs_gaussian();
          CPS_HIST("core.cma.fit_residual", patch.rms_residual());
          if (const auto peak = patch.peak_curvature()) {
            geo::Vec2 pos = peak->position;
            clamp_to_region(pos);  // Never steer a node through the fence.
            peaks[i] = PeakInfo{pos, peak->gaussian_abs};
          }
        });
  }

  // Trace sampling (Section 7 future work): log this slot's measurement
  // at each node's pre-move position, then age out stale entries.
  if (config_.trace_sampling) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!alive_[i]) continue;
      trace_log_.push_back(
          TimedSample{Sample{positions_[i], now.value(positions_[i])},
                      time_});
    }
    const double horizon = time_ - config_.trace_staleness;
    std::erase_if(trace_log_, [horizon](const TimedSample& s) {
      return s.time < horizon;
    });
  }

  // --- 2. Beacon round (Table 2 lines 4-5). ---
  // Neighbour tables come from what the channel actually delivered, aged
  // by the staleness TTL — never from the true geometry — so a
  // lost beacon or a dead neighbour degrades knowledge instead of state.
  std::vector<std::vector<NeighborInfo>> tables;
  {
    CPS_TIMER("core.cma.beacon_round");
    for (std::size_t i = 0; i < n; ++i) {
      if (!alive_[i]) continue;
      Message beacon;
      beacon.kind = Message::Kind::kBeacon;
      beacon.position = positions_[i];
      beacon.gaussian_abs = gaussian_abs[i];
      bus_.broadcast(i, std::move(beacon));
    }
    deliver_round();
    tables = refresh_neighbor_tables(steps_run_);
  }

  // --- 3. Forces and desired destinations (Table 2 lines 6-18). ---
  ForceConfig force_config;
  force_config.rc = config_.rc;
  force_config.beta = config_.beta;
  force_config.normalize_curvature = config_.normalize_curvature;
  force_config.attraction_gain = config_.attraction_gain;
  force_config.repulsion_equilibrium = config_.repulsion_equilibrium;
  std::vector<geo::Vec2> destination = positions_;
  {
    CPS_TIMER("core.cma.forces");
    // Pure per-node computation over this slot's frozen tables; writes
    // are per-index (last_forces_[i], destination[i]) — parallel map.
    for_each_node(
        [&](std::size_t i) {
          if (!alive_[i]) return;  // Dead nodes plan no moves.
          const ForceBreakdown forces = compute_forces(
              positions_[i], peaks[i], tables[i], mean_abs[i], force_config);
          last_forces_[i] = forces;
          CPS_HIST("core.cma.force_f1", forces.f1.norm());
          CPS_HIST("core.cma.force_f2", forces.f2.norm());
          CPS_HIST("core.cma.force_fr", forces.fr.norm());
          CPS_HIST("core.cma.force_fs", forces.fs.norm());
          const double magnitude = forces.fs.norm();
          if (magnitude <= config_.force_tolerance) return;  // stop(ni).
          // Table 2 line 16 points the destination Rs along Fs; the gain
          // maps force units to metres and the sensing radius caps the
          // ambition.
          const double reach =
              std::min(config_.rs, magnitude * config_.force_gain);
          destination[i] = positions_[i] + forces.fs.normalized() * reach;
          clamp_to_region(destination[i]);
        });
  }

  // --- 4. tell round + LCM (Table 2 lines 17-21, Fig. 4). ---
  // The told destination is the waypoint actually reachable this slot
  // (speed-capped), not the full force target up to Rs away: neighbours
  // judge link survival on real post-slot geometry, so the chase rule
  // fires only for links genuinely about to break.
  const double told_step =
      config_.velocity * config_.dt *
      (config_.lcm == LcmMode::kStrict ? config_.speed_fraction : 1.0);
  {
    CPS_TIMER("core.cma.tell_round");
    for (std::size_t i = 0; i < n; ++i) {
      if (!alive_[i]) continue;
      Message tell;
      tell.kind = Message::Kind::kTell;
      tell.position = positions_[i];
      const geo::Vec2 leg = destination[i] - positions_[i];
      const double len = leg.norm();
      tell.destination = len <= told_step
                             ? destination[i]
                             : positions_[i] + leg * (told_step / len);
      tell.table =
          std::make_shared<const std::vector<NeighborInfo>>(tables[i]);
      bus_.broadcast(i, std::move(tell));
    }
    deliver_round();
  }

  // The LCM variants (see LcmMode).  Strict mode trades speed for a
  // provable per-slot connectivity invariant; paper mode is the literal
  // Fig. 4 chase rule at full speed, best effort.
  const double max_step =
      config_.velocity * config_.dt *
      (config_.lcm == LcmMode::kStrict ? config_.speed_fraction : 1.0);
  std::vector<geo::Vec2> final_target = destination;
  last_chases_ = 0;

  {
    CPS_TIMER("core.cma.lcm");
    if (config_.lcm == LcmMode::kStrict) {
      apply_strict_lcm(tables, destination, max_step, final_target);
    } else if (config_.lcm == LcmMode::kPaper) {
      apply_paper_lcm(destination, final_target);
    }
  }

  // --- 5. Move toward the resolved targets, capped by the speed limit. ---
  last_max_move_ = 0.0;
  {
    CPS_TIMER("core.cma.move");
    // The per-node displacement is pure and computed tile-parallel; the
    // accumulators (max move, the distance sums) are order-sensitive
    // floats, so they fold serially in node-id order.
    std::vector<geo::Vec2> next(n);
    std::vector<double> moved(n, 0.0);
    for_each_node([&](std::size_t i) {
      if (!alive_[i]) return;
      const geo::Vec2 leg = final_target[i] - positions_[i];
      const double len = leg.norm();
      next[i] = len <= max_step ? final_target[i]
                                : positions_[i] + leg * (max_step / len);
      clamp_to_region(next[i]);
      moved[i] = geo::distance(positions_[i], next[i]);
    });
    for (std::size_t i = 0; i < n; ++i) {
      if (!alive_[i]) continue;  // Carcasses stay where they fell.
      last_max_move_ = std::max(last_max_move_, moved[i]);
      distance_traveled_[i] += moved[i];
      total_distance_ += moved[i];
      positions_[i] = next[i];
      bus_.set_position(i, positions_[i]);
    }
  }

  // Per-round trajectory (the Figs. 8-10 quantities): LCM interventions,
  // the largest single move, and the cumulative energy proxy.
  CPS_COUNT("core.cma.lcm_chases", last_chases_);
  CPS_HIST("core.cma.max_move", last_max_move_);
  CPS_GAUGE("core.cma.total_distance", total_distance_);
  CPS_TRACE_COUNTER("core.cma.lcm_chases", last_chases_);
  CPS_TRACE_COUNTER("core.cma.max_move", last_max_move_);

  // Slot boundary: one timeline sample carrying this slot's context plus
  // the per-slot deltas of every counter/histogram touched above (beacon
  // deliveries, per-reason drops, force histograms, ...).  The annotation
  // macros evaluate their value expressions only while armed, so the
  // component census costs nothing in figure runs.
  CPS_TIMELINE_ANNOTATE("alive", alive_count_);
  CPS_TIMELINE_ANNOTATE("components", component_count());
  CPS_TIMELINE_ANNOTATE("chases", last_chases_);
  CPS_TIMELINE_ANNOTATE("max_move", last_max_move_);
  CPS_TIMELINE_SAMPLE("core.cma.slot", steps_run_);

  time_ += config_.dt;
  ++steps_run_;
}


template <typename NodeTarget>
void CmaSimulation::resolve_lcm_targets(NodeTarget&& node_target,
                                        std::vector<geo::Vec2>& final_target) {
  // node_target is pure and final_target writes are per-index.  Chases
  // are tallied per tile and folded in ascending tile order — an integer
  // sum, so the count is independent of the thread count.
  std::vector<std::size_t> chases(shard_->tile_count(), 0);
  par::parallel_for_chunks(
      shard_->tile_count(),
      [&](std::size_t t0, std::size_t t1) {
        for (std::size_t t = t0; t < t1; ++t) {
          for (const std::uint32_t id : shard_->owned(t)) {
            if (const auto target = node_target(id)) {
              ++chases[t];
              final_target[id] = *target;
            }
          }
        }
      },
      /*grain=*/1);
  for (const std::size_t c : chases) last_chases_ += c;
}

void CmaSimulation::apply_strict_lcm(
    const std::vector<std::vector<NeighborInfo>>& tables,
    const std::vector<geo::Vec2>& destination, double max_step,
    std::vector<geo::Vec2>& final_target) {
  // Bridgeless single-hop links are *critical* and must survive the slot.
  // Survival is enforced with the midpoint-disk construction: both
  // endpoints stay within r of the link midpoint m = (pi + pj) / 2, so by
  // the triangle inequality the post-move distance is at most 2r.  Each
  // node projects its force destination into the intersection of its
  // critical disks (cyclic projection); when the intersection is empty
  // (opposing taut links) staying put is always safe.  Links may tear only
  // across margin-safe bridges: a bridge-path link of length
  // <= Rc - 2 * max_step cannot break within the slot, so the tear leaves
  // the endpoints provably connected.
  const double slack = std::min(std::max(max_step, 1e-6), 0.1 * config_.rc);
  const double safe = config_.rc - 2.0 * max_step;
  struct Anchor {
    geo::Vec2 midpoint;
    double radius;
  };
  static const std::vector<NeighborInfo> kEmptyTable;
  // Pure per-node resolution: the clamped override target, or nullopt
  // when unconstrained.
  const auto node_target = [&](std::size_t i) -> std::optional<geo::Vec2> {
    if (!alive_[i]) return std::nullopt;
    std::vector<Anchor> anchors;
    for (const auto& delivery : bus_.inbox(i)) {
      const Message& tell = delivery.message;
      if (tell.kind != Message::Kind::kTell) continue;
      const geo::Vec2 partner = tell.position;
      const double d = geo::distance(positions_[i], partner);
      if (d > config_.rc) continue;
      bool bridged = false;
      if (safe > 0.0) {
        const std::vector<NeighborInfo>& tell_table =
            tell.table ? *tell.table : kEmptyTable;
        for (const auto& common : tables[i]) {
          // The partner itself cannot be its own bridge.
          if (geo::distance(common.position, partner) < 1e-9) continue;
          if (geo::distance(common.position, positions_[i]) > safe) continue;
          if (geo::distance(common.position, partner) <= safe) {
            bridged = true;  // One-hop bridge with margin.
            break;
          }
          for (const auto& far : tell_table) {
            if (geo::distance(far.position, positions_[i]) < 1e-9) continue;
            if (geo::distance(far.position, partner) > safe) continue;
            if (geo::distance(far.position, common.position) <= safe) {
              bridged = true;  // Two-hop bridge via (common, far).
              break;
            }
          }
          if (bridged) break;
        }
      }
      if (!bridged) {
        // Pull taut critical links below the tear-safety threshold so
        // they can serve as bridge paths for their neighbours next slot.
        const double relaxed = config_.rc - 2.0 * max_step - 0.2 * slack;
        anchors.push_back(Anchor{geo::midpoint(positions_[i], partner),
                                 std::max(0.5 * relaxed,
                                          0.5 * d - 0.3 * slack)});
      }
    }
    if (anchors.empty()) return std::nullopt;

    geo::Vec2 target = destination[i];
    bool constrained = false;
    for (int pass = 0; pass < 12; ++pass) {
      bool moved = false;
      for (const auto& a : anchors) {
        const geo::Vec2 off = target - a.midpoint;
        if (off.norm() > a.radius) {
          target = a.midpoint + off.normalized() * a.radius;
          moved = true;
          constrained = true;
        }
      }
      if (!moved) break;
    }
    // Cyclic projection approximates the disk intersection; when the
    // intersection is empty (opposing taut links) or unconverged, staying
    // put is always safe: the node sits exactly d/2 from every midpoint.
    for (const auto& a : anchors) {
      if (geo::distance(target, a.midpoint) > a.radius + 1e-9) {
        target = positions_[i];
        constrained = true;
        break;
      }
    }
    if (!constrained) return std::nullopt;
    clamp_to_region(target);
    return target;
  };
  resolve_lcm_targets(node_target, final_target);
}

void CmaSimulation::apply_paper_lcm(
    const std::vector<geo::Vec2>& /*destination*/,
    std::vector<geo::Vec2>& final_target) {
  // Table 2 lines 19-21, verbatim: on receiving tell(nd2, N2), if ni can
  // reach neither nd2 directly nor some nj2 in N2, it abandons its own
  // plan and moves to hold d(ni, nd2) = Rc.  With several such movers it
  // chases the most endangered link.  Best effort by construction.
  static const std::vector<NeighborInfo> kEmptyTable;
  const auto node_target = [&](std::size_t i) -> std::optional<geo::Vec2> {
    if (!alive_[i]) return std::nullopt;
    double worst = -1.0;
    geo::Vec2 worst_destination;
    for (const auto& delivery : bus_.inbox(i)) {
      const Message& tell = delivery.message;
      if (tell.kind != Message::Kind::kTell) continue;
      if (geo::distance(positions_[i], tell.position) > config_.rc) continue;
      const double after = geo::distance(positions_[i], tell.destination);
      if (after <= config_.rc) continue;  // Still reaches the mover.
      bool via_common = false;
      for (const auto& common : tell.table ? *tell.table : kEmptyTable) {
        if (geo::distance(positions_[i], common.position) <= config_.rc &&
            geo::distance(common.position, tell.destination) <= config_.rc) {
          via_common = true;
          break;
        }
      }
      if (via_common) continue;
      if (after > worst) {
        worst = after;
        worst_destination = tell.destination;
      }
    }
    if (worst < 0.0) return std::nullopt;
    const geo::Vec2 away = positions_[i] - worst_destination;
    geo::Vec2 target =
        worst_destination + (away.norm() > 0.0
                                 ? away.normalized() * config_.rc
                                 : geo::Vec2{config_.rc, 0.0});
    clamp_to_region(target);
    return target;
  };
  resolve_lcm_targets(node_target, final_target);
}

void CmaSimulation::run(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) step();
}

std::vector<geo::Vec2> CmaSimulation::alive_positions() const {
  std::vector<geo::Vec2> out;
  out.reserve(alive_count_);
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    if (alive_[i]) out.push_back(positions_[i]);
  }
  return out;
}

bool CmaSimulation::is_connected() const {
  return graph::GeometricGraph(alive_positions(), config_.rc).is_connected();
}

double CmaSimulation::largest_component_fraction() const {
  const auto alive = alive_positions();
  const graph::GeometricGraph g(alive, config_.rc);
  std::size_t largest = 0;
  for (const auto& comp : g.components()) {
    largest = std::max(largest, comp.size());
  }
  return alive.empty() ? 1.0
                       : static_cast<double>(largest) /
                             static_cast<double>(alive.size());
}

std::size_t CmaSimulation::component_count() const {
  return graph::GeometricGraph(alive_positions(), config_.rc)
      .component_count();
}

std::vector<Sample> CmaSimulation::sense_at_nodes() const {
  const field::FieldSlice now(*environment_, time_);
  return take_samples(now, alive_positions());
}

double CmaSimulation::current_delta(const DeltaMetric& metric) const {
  const field::FieldSlice now(*environment_, time_);
  return metric.delta_from_samples(now, sense_at_nodes());
}

std::vector<Sample> CmaSimulation::trace_samples() const {
  std::vector<Sample> out;
  out.reserve(trace_log_.size());
  for (const auto& entry : trace_log_) out.push_back(entry.sample);
  return out;
}

double CmaSimulation::current_delta_with_trace(
    const DeltaMetric& metric) const {
  // Older samples first: reconstruct_surface resolves duplicate positions
  // by letting the later insertion win, so fresher data takes precedence.
  std::vector<Sample> combined = trace_samples();
  const auto current = sense_at_nodes();
  combined.insert(combined.end(), current.begin(), current.end());
  const field::FieldSlice now(*environment_, time_);
  return metric.delta_from_samples(now, combined);
}

}  // namespace cps::core
