// Disjoint-set forest with union by rank and path compression.
#pragma once

#include <cstddef>
#include <vector>

namespace cps::graph {

/// Standard union-find over elements 0..n-1; near-O(1) amortised ops.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n);

  /// Representative of x's set.  Throws std::out_of_range for bad ids.
  std::size_t find(std::size_t x);

  /// Merges the sets containing a and b; returns true when they were
  /// previously distinct.
  bool unite(std::size_t a, std::size_t b);

  std::size_t size() const noexcept { return parent_.size(); }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> rank_;
};

}  // namespace cps::graph
