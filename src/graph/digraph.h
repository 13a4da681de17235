// Directed knowledge graphs (paper §1).
//
// G = (V, E0) where an edge (u -> v) means "u initially knows id(v)".  The
// resource-discovery runner hands each node its out-neighborhood as the
// initial `local` set; the graph itself also provides the connectivity
// queries the spec is phrased in (weakly connected components).
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <vector>

#include "common/ids.h"

namespace asyncrd::graph {

class digraph {
 public:
  /// Adds an isolated node (no-op if present).
  void add_node(node_id v);

  /// Adds edge (u -> v); adds endpoints implicitly.  Self-loops and
  /// duplicate edges are ignored (a node always knows itself; E is a set).
  void add_edge(node_id u, node_id v);

  bool has_node(node_id v) const { return adj_.contains(v); }
  bool has_edge(node_id u, node_id v) const;

  std::size_t node_count() const noexcept { return adj_.size(); }
  std::size_t edge_count() const noexcept { return edge_count_; }

  /// Out-neighborhood of v: the ids v initially knows.
  const std::set<node_id>& out(node_id v) const;

  std::vector<node_id> nodes() const;

  /// Weakly connected components (ignoring edge direction), each sorted.
  ///
  /// Component order is part of the contract: components come out in
  /// ascending order of their union-find root, where the union-find links
  /// find(u) under find(v) for every edge (u -> v) in ascending (u, v)
  /// order.  That is *not* smallest-member order; the repairing generators
  /// chain components in this order, so it fixes their edge sets.
  std::vector<std::vector<node_id>> weak_components() const;

  bool is_weakly_connected() const;

  /// Strongly connected components (Tarjan), each sorted.
  std::vector<std::vector<node_id>> strong_components() const;

  bool is_strongly_connected() const;

  /// Component size per node (for the Bounded model, where "every node
  /// knows the number of nodes in its weakly connected component"), aligned
  /// with nodes(): entry i is the size of nodes()[i]'s component.
  std::vector<std::size_t> weak_component_sizes() const;

 private:
  std::map<node_id, std::set<node_id>> adj_;
  std::size_t edge_count_ = 0;
  static const std::set<node_id> empty_set_;
};

}  // namespace asyncrd::graph
