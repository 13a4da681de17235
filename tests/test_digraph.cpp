#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/digraph.h"
#include "graph/topology.h"

namespace asyncrd {
namespace {

using graph::digraph;

TEST(Digraph, AddNodesAndEdges) {
  digraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(2, 1));
  EXPECT_TRUE(g.has_node(3));
  EXPECT_FALSE(g.has_node(4));
}

TEST(Digraph, SelfLoopsIgnored) {
  digraph g;
  g.add_edge(1, 1);
  EXPECT_EQ(g.node_count(), 1u);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Digraph, DuplicateEdgesIgnored) {
  digraph g;
  g.add_edge(1, 2);
  g.add_edge(1, 2);
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Digraph, OutNeighborhood) {
  digraph g;
  g.add_edge(1, 2);
  g.add_edge(1, 3);
  EXPECT_EQ(g.out(1).size(), 2u);
  EXPECT_TRUE(g.out(1).contains(3));
  EXPECT_TRUE(g.out(2).empty());
  EXPECT_TRUE(g.out(99).empty());  // unknown node: empty view
}

TEST(Digraph, WeakComponentsIgnoreDirection) {
  digraph g;
  g.add_edge(1, 2);
  g.add_edge(3, 2);  // 1,2,3 weakly connected despite opposing arrows
  g.add_edge(4, 5);
  g.add_node(6);
  const auto comps = g.weak_components();
  ASSERT_EQ(comps.size(), 3u);
  EXPECT_EQ(comps[0], (std::vector<node_id>{1, 2, 3}));
  EXPECT_EQ(comps[1], (std::vector<node_id>{4, 5}));
  EXPECT_EQ(comps[2], (std::vector<node_id>{6}));
}

TEST(Digraph, IsWeaklyConnected) {
  digraph g;
  g.add_edge(1, 2);
  EXPECT_TRUE(g.is_weakly_connected());
  g.add_node(9);
  EXPECT_FALSE(g.is_weakly_connected());
  digraph empty;
  EXPECT_TRUE(empty.is_weakly_connected());
}

TEST(Digraph, StrongComponentsCycleVsDag) {
  digraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 1);  // 1-2-3 cycle
  g.add_edge(3, 4);  // 4 hangs off
  const auto sccs = g.strong_components();
  ASSERT_EQ(sccs.size(), 2u);
  bool found_cycle = false;
  for (const auto& c : sccs)
    if (c == std::vector<node_id>{1, 2, 3}) found_cycle = true;
  EXPECT_TRUE(found_cycle);
  EXPECT_FALSE(g.is_strongly_connected());
}

TEST(Digraph, StronglyConnectedRing) {
  digraph g;
  for (node_id v = 0; v < 5; ++v) g.add_edge(v, (v + 1) % 5);
  EXPECT_TRUE(g.is_strongly_connected());
}

TEST(Digraph, WeakComponentSizes) {
  digraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_node(7);
  // Aligned with nodes() = {1, 2, 3, 7}.
  const auto sizes = g.weak_component_sizes();
  EXPECT_EQ(sizes, (std::vector<std::size_t>{3, 3, 3, 1}));
}

/// Reference components: BFS over the undirected shadow from every unvisited
/// node in ascending id order.  Components come out in smallest-member
/// order, each sorted.
std::vector<std::vector<node_id>> bfs_components(const digraph& g) {
  const std::vector<node_id> ids = g.nodes();
  std::vector<std::vector<node_id>> undirected(ids.size());
  const auto index = [&](node_id v) {
    return static_cast<std::size_t>(
        std::lower_bound(ids.begin(), ids.end(), v) - ids.begin());
  };
  for (std::size_t i = 0; i < ids.size(); ++i)
    for (const node_id v : g.out(ids[i])) {
      undirected[i].push_back(index(v));
      undirected[index(v)].push_back(i);
    }
  std::vector<bool> seen(ids.size(), false);
  std::vector<std::vector<node_id>> comps;
  for (std::size_t s = 0; s < ids.size(); ++s) {
    if (seen[s]) continue;
    std::vector<node_id> comp;
    std::queue<std::size_t> frontier;
    frontier.push(s);
    seen[s] = true;
    while (!frontier.empty()) {
      const std::size_t u = frontier.front();
      frontier.pop();
      comp.push_back(ids[u]);
      for (const std::size_t w : undirected[u])
        if (!seen[w]) {
          seen[w] = true;
          frontier.push(w);
        }
    }
    std::sort(comp.begin(), comp.end());
    comps.push_back(std::move(comp));
  }
  return comps;
}

TEST(Digraph, WeakComponentsMatchBfsOnRandomGraphs) {
  // Random multi-component graphs over dense ids (0..n-1) and sparse ids
  // (offset + stride * i), the two index paths of the union-find.
  std::size_t multi = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    rng r(seed);
    digraph g;
    const std::size_t n = 1 + static_cast<std::size_t>(r.below(80));
    const bool dense = seed % 2 == 1;
    const node_id stride = dense ? 1 : 3 + static_cast<node_id>(r.below(5));
    const node_id offset = dense ? 0 : static_cast<node_id>(r.below(10));
    const auto id = [&](std::uint64_t i) {
      return static_cast<node_id>(offset + stride * i);
    };
    for (std::size_t i = 0; i < n; ++i) g.add_node(id(i));
    const std::uint64_t m = r.below(n + 1);
    for (std::uint64_t e = 0; e < m; ++e) g.add_edge(id(r.below(n)), id(r.below(n)));

    auto comps = g.weak_components();
    const auto expected = bfs_components(g);
    if (expected.size() > 1) ++multi;
    for (const auto& c : comps) EXPECT_TRUE(std::is_sorted(c.begin(), c.end()));
    EXPECT_EQ(g.is_weakly_connected(), expected.size() <= 1) << "seed " << seed;

    const std::vector<node_id> ids = g.nodes();
    const auto sizes = g.weak_component_sizes();
    ASSERT_EQ(sizes.size(), ids.size());
    for (const auto& c : expected)
      for (const node_id v : c) {
        const auto i = std::lower_bound(ids.begin(), ids.end(), v) - ids.begin();
        EXPECT_EQ(sizes[static_cast<std::size_t>(i)], c.size()) << "seed " << seed;
      }

    // Same partition; the order is the union-find's (pinned below).
    std::sort(comps.begin(), comps.end());
    EXPECT_EQ(comps, expected) << "seed " << seed;
  }
  EXPECT_GE(multi, 100u);
}

// weak_components orders components by union-find root, where every edge
// (u -> v), in ascending (u, v) order, links find(u) under find(v).  These
// graphs are chosen so that order differs from smallest-member order; the
// repairing generators chain components in it, so it must never change.
TEST(Digraph, WeakComponentOrderFollowsUnionFindRoots) {
  digraph g;
  for (node_id v = 0; v < 6; ++v) g.add_node(v);
  g.add_edge(0, 4);  // root 4
  g.add_edge(2, 3);  // root 3
  EXPECT_EQ(g.weak_components(),
            (std::vector<std::vector<node_id>>{{1}, {2, 3}, {0, 4}, {5}}));

  digraph sparse;  // non-dense ids take the binary-search index path
  sparse.add_node(20);
  sparse.add_node(30);
  sparse.add_edge(10, 40);
  EXPECT_EQ(sparse.weak_components(),
            (std::vector<std::vector<node_id>>{{20}, {30}, {10, 40}}));

  // 0 -> 7 and 2 -> 0 build a two-level tree rooted at 7; 7 -> 3 then
  // links that tree under the singleton 3 (union by rank would keep 7).
  digraph chain;
  for (node_id v = 0; v < 8; ++v) chain.add_node(v);
  chain.add_edge(0, 7);
  chain.add_edge(2, 0);
  chain.add_edge(7, 3);
  EXPECT_EQ(chain.weak_components(),
            (std::vector<std::vector<node_id>>{{1}, {0, 2, 3, 7}, {4}, {5}, {6}}));
}

// erdos_renyi_connected repairs connectivity by chaining components in
// weak_components order, so its edge set pins that order too.  At this seed
// the random edges alone leave 5 components.
TEST(Digraph, ErdosRenyiRepairKeepsItsEdgeSet) {
  constexpr std::size_t n = 10;
  constexpr double p = 0.1;
  constexpr std::uint64_t seed = 3;
  rng r(seed);
  digraph unrepaired;
  for (node_id v = 0; v < n; ++v) unrepaired.add_node(v);
  for (node_id u = 0; u < n; ++u)
    for (node_id v = 0; v < n; ++v)
      if (u != v && r.chance(p)) unrepaired.add_edge(u, v);
  ASSERT_EQ(unrepaired.weak_components().size(), 5u);

  const digraph g = graph::erdos_renyi_connected(n, p, seed);
  std::vector<std::pair<node_id, node_id>> edges;
  for (const node_id u : g.nodes())
    for (const node_id v : g.out(u)) edges.emplace_back(u, v);
  EXPECT_EQ(edges, (std::vector<std::pair<node_id, node_id>>{
                       {0, 3}, {0, 4}, {1, 2}, {2, 0}, {4, 6},
                       {5, 1}, {7, 8}, {8, 2}, {9, 4}}));
}

TEST(Digraph, LargeSccIterativeTarjanDoesNotOverflow) {
  // A long path with a back edge: one big SCC; exercises the iterative
  // implementation with deep nesting.
  digraph g;
  const node_id n = 50'000;
  for (node_id v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  g.add_edge(n - 1, 0);
  EXPECT_TRUE(g.is_strongly_connected());
}

}  // namespace
}  // namespace asyncrd
