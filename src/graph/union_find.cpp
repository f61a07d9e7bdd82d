#include "graph/union_find.hpp"

#include <numeric>
#include <stdexcept>

namespace cps::graph {

UnionFind::UnionFind(std::size_t n)
    : parent_(n), rank_(n, 0) {
  std::iota(parent_.begin(), parent_.end(), std::size_t{0});
}

std::size_t UnionFind::find(std::size_t x) {
  if (x >= parent_.size()) throw std::out_of_range("UnionFind::find");
  // Path halving: every other node points to its grandparent.
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];
    x = parent_[x];
  }
  return x;
}

bool UnionFind::unite(std::size_t a, std::size_t b) {
  std::size_t ra = find(a);
  std::size_t rb = find(b);
  if (ra == rb) return false;
  if (rank_[ra] < rank_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  if (rank_[ra] == rank_[rb]) ++rank_[ra];
  return true;
}

}  // namespace cps::graph
