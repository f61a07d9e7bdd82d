// Coordinated Movement Algorithm (Section 5.3, Table 2).
//
// Each slot, every mobile node — with strictly local knowledge — runs:
//
//   1. Sense(Rs): sample the environment on the lattice inside its sensing
//      disk and estimate its Gaussian curvature (SensingPatch).
//   2. Tx/Rx: broadcast a beacon (position, |G|) and collect the beacons of
//      single-hop neighbours (MessageBus round one).
//   3. Compute the virtual forces F1, F2, Fr and the resultant Fs
//      (core/forces.hpp); derive a desired destination along Fs.
//   4. tell/Rxtell: broadcast the planned destination plus the neighbour
//      table (MessageBus round two).  The Local Connectivity Mechanism
//      (Fig. 4): a node that could reach a mover before, but can reach
//      neither the mover's destination directly nor any node of the
//      mover's neighbour table, abandons its own plan and chases the mover
//      to distance Rc.
//   5. Move, capped by the physical speed v * dt.  Chasers move after
//      movers and aim at the mover's realised position, which (speeds
//      being equal) restores the link every slot.
//
// The simulation is slot-synchronous and fully deterministic for a given
// seed; nodes never read the environment outside their sensing disk and
// never learn non-neighbour state — the distribution emerges, as in the
// paper, from local rules only.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/delta.hpp"
#include "core/forces.hpp"
#include "core/types.hpp"
#include "field/field.hpp"
#include "net/fault.hpp"
#include "net/link_model.hpp"
#include "net/message_bus.hpp"
#include "numerics/quadrature.hpp"

namespace cps::core {

class ShardGrid;

/// Connectivity-maintenance variants.
enum class LcmMode {
  /// Provable per-slot invariant: bridgeless links are held by midpoint
  /// disks; links may tear only across margin-safe (two-hop) bridges.  A
  /// taut full-coverage lattice is nearly rigid under this rule, so the
  /// distribution adapts slowly (the price of the guarantee).
  kStrict,
  /// The paper's literal Fig. 4 rule: a node that can reach neither a
  /// mover's destination nor any member of its neighbour table abandons
  /// its plan and chases the mover to distance Rc.  Best-effort only —
  /// concurrent movers can transiently fragment the graph (the benches
  /// report the connectivity rate alongside delta).
  kPaper,
  /// No connectivity maintenance (upper-bound ablation).
  kOff,
};

/// CMA parameters (defaults = the paper's simulation setting).
struct CmaConfig {
  double rc = 10.0;            ///< Communication radius, metres.
  double rs = 5.0;             ///< Sensing radius, metres.
  double sample_spacing = 1.0;  ///< Sensing lattice pitch, metres.
  double beta = 2.0;           ///< Eqn. 18 repulsion weight.
  double velocity = 1.0;       ///< Max speed, metres per minute.
  double dt = 1.0;             ///< Slot length, minutes.
  /// Metres of desired displacement per unit of |Fs|; the destination is
  /// further capped by Rs (Table 2 line 16) and by v * dt physically.
  double force_gain = 1.0;
  /// |Fs| below this is treated as balanced (Table 2 line 13).
  double force_tolerance = 1e-3;
  /// Beacon/tell loss probability (0 in the paper; robustness knob).
  double packet_loss = 0.0;
  bool normalize_curvature = true;  ///< See core/forces.hpp.
  double attraction_gain = 0.1;     ///< See ForceConfig::attraction_gain.
  /// See ForceConfig::repulsion_equilibrium.
  double repulsion_equilibrium = 0.9;
  /// Fraction of v * dt actually used per slot under kStrict.  The LCM's
  /// tear-safety threshold is Rc - 2 * step: slower slots leave more link
  /// margin, so more links qualify as safe bridge paths and the topology
  /// can adapt.  1.0 reproduces the raw speed cap but freezes a taut
  /// lattice; 0.5 trades half the speed for tearability (see DESIGN.md).
  /// Ignored by kPaper/kOff (full speed).
  double speed_fraction = 0.5;
  /// Connectivity-maintenance variant (see LcmMode).
  LcmMode lcm = LcmMode::kStrict;
  /// Section 7 future work, "trace sampling of mobile nodes": when true,
  /// every node also logs one sample per slot at its current position, and
  /// reconstruction can draw on the recent movement trace instead of only
  /// the k instantaneous positions.
  bool trace_sampling = false;
  /// Trace samples older than this many minutes are discarded — in a
  /// time-varying environment stale values mislead the reconstruction.
  double trace_staleness = 10.0;
  /// Slots a beacon-learned neighbour survives in the table without a
  /// fresh beacon.  1 (the default) reproduces the paper's behaviour —
  /// only this slot's beacons count — so a single lost beacon makes the
  /// neighbour invisible for the slot.  Larger values let LCM and force
  /// decisions coast through lost beacons and notice dead neighbours only
  /// after the TTL lapses: the graceful-degradation knob.  Must be >= 1.
  std::size_t neighbor_ttl = 1;
  std::uint64_t seed = 7;      ///< Radio-loss randomness only.
  /// Tile side of the slot schedule (cma_sharding.hpp), metres; <= 0
  /// picks twice the ghost width.  Clamped up to the ghost width
  /// max(rs, link radius).  A pure performance knob: every tiling gives
  /// bit-identical results.
  double tile_size = 0.0;
};

/// Slot-synchronous simulation of k mobile nodes running CMA.
class CmaSimulation {
 public:
  /// `initial` must be non-empty with all positions inside `region`;
  /// throws std::invalid_argument otherwise.  `start_time` is the first
  /// slot's timestamp (minutes).  The environment reference is kept, not
  /// copied: it must outlive the simulation.
  CmaSimulation(const field::TimeVaryingField& environment,
                const num::Rect& region, std::vector<geo::Vec2> initial,
                const CmaConfig& config, double start_time = 0.0);
  ~CmaSimulation();  // Out of line: ShardGrid is incomplete here.

  /// Installs a mid-run fault schedule.  Event slots are simulation slots
  /// counted from the *next* step(): events for slot s are applied at the
  /// start of the (s+1)-th remaining step.  Replaces any prior schedule;
  /// an empty schedule leaves the run untouched.  Call before run().
  void set_fault_schedule(net::FaultSchedule schedule);

  /// Replaces the channel model behind the beacon/tell rounds (default:
  /// the paper's disk radio with config.packet_loss).  Call before the
  /// first step() for a fully reproducible run.
  void set_link_model(std::unique_ptr<net::LinkModel> link) {
    bus_.set_link(std::move(link));
  }

  /// Advances one slot (dt minutes).
  void step();

  /// Advances `n` slots.
  void run(std::size_t n);

  double time() const noexcept { return time_; }

  /// The sensed environment (kept by reference; see the constructor).
  /// CmaDeltaTracker slices it per slot for its reference field.
  const field::TimeVaryingField& environment() const noexcept {
    return *environment_;
  }

  std::size_t node_count() const noexcept { return positions_.size(); }
  const std::vector<geo::Vec2>& positions() const noexcept {
    return positions_;
  }
  const CmaConfig& config() const noexcept { return config_; }

  /// False once a scheduled death has hit node `i` (until a revival).
  /// Dead nodes stop sensing, transmitting, receiving, and moving; their
  /// last position is kept (a dark carcass in the field).
  bool is_alive(std::size_t i) const { return alive_.at(i) != 0; }

  /// Living nodes right now (== node_count() before any death).
  std::size_t alive_count() const noexcept { return alive_count_; }

  /// Positions of the living nodes, in node order — the survivor
  /// deployment all degradation metrics are computed over.
  std::vector<geo::Vec2> alive_positions() const;

  /// Deaths applied so far (revivals do not subtract).
  std::size_t deaths_applied() const noexcept { return deaths_applied_; }

  /// Beacon-learned neighbours node `i` currently believes in (entries
  /// within the staleness TTL) — may lag reality under loss or death.
  std::size_t known_neighbor_count(std::size_t i) const {
    return known_.at(i).size();
  }

  /// Largest single-node displacement in the last step() (0 before any).
  double last_max_displacement() const noexcept { return last_max_move_; }

  /// True when the last step moved every node less than `tol` metres.
  bool converged(double tol = 1e-2) const noexcept {
    return steps_run_ > 0 && last_max_move_ < tol;
  }

  /// Disk-graph connectivity of the current *living* positions (the OSTD
  /// constraint; the LCM is supposed to keep this true).  Before any
  /// death this is exactly the full-deployment connectivity.
  bool is_connected() const;

  /// Fraction of living nodes inside their largest connected component
  /// (1.0 when connected); the health statistic the Fig. 10 bench
  /// reports for the best-effort paper LCM.
  double largest_component_fraction() const;

  /// Connected components of the survivor disk graph (0 when all dead).
  std::size_t component_count() const;

  /// Number of LCM chase overrides in the last step.
  std::size_t last_chase_count() const noexcept { return last_chases_; }

  /// Current measurements z_i = f(p_i, t) of the *living* nodes — dead
  /// sensors report nothing, so survivor delta is the honest metric.
  std::vector<Sample> sense_at_nodes() const;

  /// Samples logged along the nodes' movement traces within the staleness
  /// window (empty unless config.trace_sampling).  Values are as sensed at
  /// log time — deliberately stale under a changing environment.
  std::vector<Sample> trace_samples() const;

  /// Like current_delta, but reconstruction also uses trace_samples();
  /// fresher samples at duplicated positions win.
  double current_delta_with_trace(const DeltaMetric& metric) const;

  /// End-to-end quality right now: sense, rebuild, measure against the
  /// environment frozen at the current time.
  double current_delta(const DeltaMetric& metric) const;

  /// Per-node force breakdown of the last step (for tests/benches).
  const std::vector<ForceBreakdown>& last_forces() const noexcept {
    return last_forces_;
  }

  /// Metres travelled by all nodes so far — the movement-energy proxy
  /// behind the paper's "assume the energy is sufficient".
  double total_distance_traveled() const noexcept { return total_distance_; }

  /// Metres travelled by one node.
  double distance_traveled(std::size_t node) const {
    return distance_traveled_.at(node);
  }

  /// Beacon + tell broadcasts issued so far (radio-energy proxy).
  std::size_t total_broadcasts() const noexcept {
    return bus_.total_broadcasts();
  }

  /// The tile decomposition of the last step() (null before the first)
  /// — read-only stats for tests and benches (tile_count,
  /// last_migrations, ...).
  const ShardGrid* shard() const noexcept { return shard_.get(); }

 private:
  /// Broadcast payload: a beacon in round one, a tell in round two.
  struct Message {
    enum class Kind { kBeacon, kTell } kind = Kind::kBeacon;
    geo::Vec2 position;        // Sender position (beacon) or same (tell).
    double gaussian_abs = 0.0;  // Beacon curvature.
    geo::Vec2 destination;     // Tell: planned destination.
    /// Tell: sender's neighbour table.  Shared immutable payload: one
    /// copy per broadcast instead of one per delivery — the dominant
    /// allocation churn of the bus at production degree.
    std::shared_ptr<const std::vector<NeighborInfo>> table;
  };

  void clamp_to_region(geo::Vec2& p) const noexcept;

  /// Strict midpoint-disk connectivity maintenance (LcmMode::kStrict).
  void apply_strict_lcm(const std::vector<std::vector<NeighborInfo>>& tables,
                        const std::vector<geo::Vec2>& destination,
                        double max_step,
                        std::vector<geo::Vec2>& final_target);

  /// Literal Fig. 4 chase rule (LcmMode::kPaper).
  void apply_paper_lcm(const std::vector<geo::Vec2>& destination,
                       std::vector<geo::Vec2>& final_target);

  /// Applies a pure per-node LCM resolution (node_target(i) -> clamped
  /// override target or nullopt) to final_target tile-parallel, and
  /// counts the chases with a deterministic per-tile fold.
  template <typename NodeTarget>
  void resolve_lcm_targets(NodeTarget&& node_target,
                           std::vector<geo::Vec2>& final_target);

  struct TimedSample {
    Sample sample;
    double time = 0.0;
  };

  /// One beacon-learned neighbour-table entry with its freshness stamp.
  struct KnownNeighbor {
    net::NodeId id = 0;
    NeighborInfo info;
    std::size_t last_seen = 0;  ///< Slot the last beacon arrived in.
  };

  /// Applies the fault events scheduled for `slot`.
  void apply_faults(std::size_t slot);

  /// Folds this slot's received beacons into the persistent per-node
  /// neighbour tables and drops entries past the staleness TTL; returns
  /// the projected per-node NeighborInfo tables for the force/LCM stages.
  std::vector<std::vector<NeighborInfo>> refresh_neighbor_tables(
      std::size_t slot);

  /// Delivers the queued bus round over the tile matching.
  void deliver_round();

  /// Runs body(i) for every node as a tile-parallel sweep over owned
  /// nodes.  Bodies must be pure per-node (disjoint writes, atomic
  /// counters only).
  template <typename Body>
  void for_each_node(Body&& body);

  const field::TimeVaryingField* environment_;
  num::Rect region_;
  CmaConfig config_;
  std::vector<geo::Vec2> positions_;
  net::MessageBus<Message> bus_;
  double time_ = 0.0;
  std::size_t steps_run_ = 0;
  double last_max_move_ = 0.0;
  std::size_t last_chases_ = 0;
  std::vector<ForceBreakdown> last_forces_;
  std::vector<TimedSample> trace_log_;
  std::vector<double> distance_traveled_;
  double total_distance_ = 0.0;
  net::FaultSchedule faults_;
  std::vector<char> alive_;
  std::size_t alive_count_ = 0;
  std::size_t deaths_applied_ = 0;
  std::vector<std::vector<KnownNeighbor>> known_;
  /// Tile decomposition; rebuilt when the ghost width max(rs, link
  /// radius) changes (set_link_model).
  std::unique_ptr<ShardGrid> shard_;
};

}  // namespace cps::core
