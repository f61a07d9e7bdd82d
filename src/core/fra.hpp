// Foresighted Refinement Algorithm (Section 4.2, Table 1).
//
// FRA answers the (NP-hard) OSD problem heuristically with a
// coarse-to-fine greedy refinement:
//
//   1. Seed the triangulation with the region split into two triangles and
//      compute the local error |f - DT| at every lattice position.
//   2. FORESIGHT: count the connected components of the disk graph over
//      the positions selected so far; if the remaining budget k - i is
//      exactly what it takes to stitch the components together (relays
//      spaced <= Rc along the component MST — L(G, Rc) of Table 1), spend
//      the rest of the budget on those relays and stop.
//   3. Otherwise select the position with maximal local error, insert it
//      into the Delaunay triangulation, and update local errors — only
//      positions inside the retriangulated cavity can have changed, so the
//      update is O(cavity), the Garland-Heckbert structure.
//
// As in Garland and Heckbert ("Fast Polygonal Approximation of Terrains
// and Height Fields", CMU-CS-95-181, 1995), each insertion scan-converts
// its new triangles over the candidate lattice: a candidate whose triangle
// died takes the first new triangle, in creation order, that contains it
// (the shared span emitter of core/delta_detail.hpp finds them), and each
// triangle keeps its best candidate under (score desc, index asc).  The
// per-iteration argmax runs over those per-triangle maxima with the same
// order, so it picks the first maximum in lattice order, as a scan of
// every candidate would.  Only when that winner is unaffordable under the
// foresight budget does a filtered rescan of all candidate scores run.
// tests/test_perf_equivalence checks the selection against a brute-force
// greedy reference.
//
// The foresight step reads the disk graph's components off a union-find
// kept as positions are selected, and prices them with
// graph::plan_group_relays — the plan graph::plan_relays gives.
//
// The selection measure is pluggable (local error, curvature, their
// product, random) to reproduce the Garland comparison the paper cites
// when motivating local error; see bench_ablation_selection.
#pragma once

#include <cstdint>
#include <vector>

#include "core/delta_incremental.hpp"
#include "core/planner.hpp"
#include "core/types.hpp"

namespace cps::core {

/// What the refinement greedily maximises.
enum class SelectionMeasure {
  kLocalError,  ///< |f - DT| at the candidate (the paper's choice).
  kCurvature,   ///< |Gaussian curvature| of f at the candidate.
  kProduct,     ///< Local error times curvature.
  kRandom,      ///< Uniformly random unused candidate (sanity floor).
};

/// FRA tuning knobs.
struct FraConfig {
  /// Candidate lattice density per axis (the paper's sqrt(A) x sqrt(A)
  /// positions; 100 for the GreenOrbs window).
  std::size_t error_grid = 100;
  /// Enable the connectivity foresight step (off = pure greedy, the
  /// ablation of bench_ablation_foresight).
  bool foresight = true;
  SelectionMeasure measure = SelectionMeasure::kLocalError;
  /// Sensing radius used by the curvature-based selection measures.
  double curvature_radius = 5.0;
  /// Seed for SelectionMeasure::kRandom.
  std::uint64_t seed = 1;
  /// When set, plan_detailed() feeds every insertion's cavity report into
  /// a cavity-local IncrementalDelta over this metric and records the
  /// what-if δ trajectory (FraResult::delta_trajectory / final_delta) —
  /// O(changed area) per step instead of a full O(res²) sweep per probe.
  /// The final value is bit-identical to
  /// metric.delta_of_deployment(reference, positions, kFieldValue): FRA's
  /// own triangulation IS that reconstruction (same insertion order, same
  /// f-valued corners).  The metric must outlive the plan call.  Null
  /// (the default) skips tracking entirely.
  const DeltaMetric* track_delta = nullptr;
};

/// One selection the algorithm made, in order.
struct FraStep {
  geo::Vec2 position;
  double score = 0.0;  ///< Measure value at selection time (0 for relays).
  bool relay = false;  ///< True when placed by the foresight step.
};

/// Full planning record.
struct FraResult {
  Deployment deployment;
  std::vector<FraStep> steps;
  std::size_t relay_count = 0;
  /// Candidates whose triangle assignment was inconsistent (dead, reused,
  /// or not containing the candidate) when planning finished.  Always 0
  /// for a correct Garland-Heckbert update; exposed so tests can catch a
  /// rebucket that misses candidates (a skipped relay insertion, or row
  /// spans that fail to reach a candidate).
  std::size_t stale_candidates = 0;
  /// Tracked δ after each step (parallel to `steps`; empty unless
  /// FraConfig::track_delta is set).
  std::vector<double> delta_trajectory;
  /// The last trajectory entry (δ of the finished deployment; 0 with no
  /// tracking or an empty plan) — what fig7 reads instead of re-running
  /// delta_of_deployment per budget.
  double final_delta = 0.0;
  /// Work accounting of the tracker (zeros unless tracking): the
  /// bench_perf `delta.incremental` savings gate reads these.
  IncrementalDelta::Stats delta_stats;
};

/// The planner.  Thread-compatible: each plan() call is independent.
class FraPlanner final : public Planner {
 public:
  explicit FraPlanner(const FraConfig& config = {});

  Deployment plan(const field::Field& reference,
                  const PlanRequest& request) override;

  /// plan() plus the per-step record benches and tests introspect.
  FraResult plan_detailed(const field::Field& reference,
                          const PlanRequest& request);

  const FraConfig& config() const noexcept { return config_; }

 private:
  FraConfig config_;
};

}  // namespace cps::core
