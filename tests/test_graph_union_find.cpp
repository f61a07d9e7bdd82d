// Tests for the disjoint-set forest (graph/union_find.hpp).
#include "graph/union_find.hpp"

#include <gtest/gtest.h>

#include "numerics/rng.hpp"

namespace cps::graph {
namespace {

bool same_set(UnionFind& uf, std::size_t a, std::size_t b) {
  return uf.find(a) == uf.find(b);
}

std::size_t set_count(UnionFind& uf) {
  std::size_t roots = 0;
  for (std::size_t i = 0; i < uf.size(); ++i) roots += uf.find(i) == i;
  return roots;
}

std::size_t set_size(UnionFind& uf, std::size_t x) {
  std::size_t members = 0;
  for (std::size_t i = 0; i < uf.size(); ++i) members += same_set(uf, i, x);
  return members;
}

TEST(UnionFind, InitiallyAllSingletons) {
  UnionFind uf(5);
  EXPECT_EQ(uf.size(), 5u);
  EXPECT_EQ(set_count(uf), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(uf.find(i), i);
    EXPECT_EQ(set_size(uf, i), 1u);
  }
}

TEST(UnionFind, UniteMergesAndReports) {
  UnionFind uf(4);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_FALSE(uf.unite(0, 1));  // Already merged.
  EXPECT_TRUE(same_set(uf, 0, 1));
  EXPECT_FALSE(same_set(uf, 0, 2));
  EXPECT_EQ(set_count(uf), 3u);
  EXPECT_EQ(set_size(uf, 1), 2u);
}

TEST(UnionFind, TransitiveConnectivity) {
  UnionFind uf(6);
  uf.unite(0, 1);
  uf.unite(2, 3);
  uf.unite(1, 2);
  EXPECT_TRUE(same_set(uf, 0, 3));
  EXPECT_FALSE(same_set(uf, 0, 4));
  EXPECT_EQ(set_count(uf), 3u);  // {0,1,2,3}, {4}, {5}.
  EXPECT_EQ(set_size(uf, 3), 4u);
}

TEST(UnionFind, ChainCollapsesToOneSet) {
  const std::size_t n = 1000;
  UnionFind uf(n);
  for (std::size_t i = 0; i + 1 < n; ++i) uf.unite(i, i + 1);
  EXPECT_EQ(set_count(uf), 1u);
  EXPECT_TRUE(same_set(uf, 0, n - 1));
}

TEST(UnionFind, OutOfRangeThrows) {
  UnionFind uf(3);
  EXPECT_THROW(uf.find(3), std::out_of_range);
  EXPECT_THROW(uf.unite(0, 5), std::out_of_range);
}

TEST(UnionFind, SetCountPlusMergesIsInvariant) {
  // Every successful unite reduces the number of sets by exactly one.
  num::Rng rng(3);
  UnionFind uf(50);
  std::size_t merges = 0;
  for (int i = 0; i < 500; ++i) {
    const auto a = static_cast<std::size_t>(rng.uniform_int(0, 49));
    const auto b = static_cast<std::size_t>(rng.uniform_int(0, 49));
    if (a == b) continue;
    if (uf.unite(a, b)) ++merges;
    ASSERT_EQ(set_count(uf) + merges, 50u);
  }
}

}  // namespace
}  // namespace cps::graph
