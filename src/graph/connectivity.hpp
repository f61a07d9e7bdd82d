// Structural connectivity analysis beyond "is it connected".
//
// The paper's constraint is plain connectivity, but a deployment review
// cares how *robust* that connectivity is: an articulation point is a
// single node whose failure splits the network (the relay chains FRA
// builds are full of them).  These helpers serve deployment-quality
// reporting in the examples/benches.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/geometric_graph.hpp"

namespace cps::graph {

/// Nodes whose removal increases the number of connected components
/// (Tarjan/Hopcroft lowpoint algorithm, O(V + E)).  Sorted ascending.
std::vector<std::size_t> articulation_points(const GeometricGraph& g);

/// Number of nodes whose individual failure would disconnect some pair of
/// surviving nodes — articulation count, the headline robustness figure.
std::size_t single_point_of_failure_count(const GeometricGraph& g);

}  // namespace cps::graph
