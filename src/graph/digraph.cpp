#include "graph/digraph.h"

#include <algorithm>
#include <cassert>
#include <stack>
#include <stdexcept>

#include "unionfind/dsu.h"

namespace asyncrd::graph {

const std::set<node_id> digraph::empty_set_{};

namespace {

std::vector<node_id> key_order(const std::map<node_id, std::set<node_id>>& adj) {
  std::vector<node_id> ids;
  ids.reserve(adj.size());
  for (const auto& [v, outs] : adj) ids.push_back(v);
  return ids;
}

/// Union-find over the undirected shadow of `adj`, on dense indices into
/// its ascending key order (the order of digraph::nodes()).
uf::dsu shadow_union_find(const std::map<node_id, std::set<node_id>>& adj) {
  // Every generator hands out ids 0..n-1, where index == id; other id sets
  // pay a binary search per edge endpoint.
  const std::size_t n = adj.size();
  const bool dense = n == 0 || adj.rbegin()->first == n - 1;
  const std::vector<node_id> ids =
      dense ? std::vector<node_id>{} : key_order(adj);
  const auto index = [&](node_id v) -> std::size_t {
    if (dense) return v;
    return static_cast<std::size_t>(
        std::lower_bound(ids.begin(), ids.end(), v) - ids.begin());
  };
  // Naive linking (find(u) under find(v), edges in ascending (u, v) order)
  // fixes which member ends up as each component's root, and with it the
  // component order weak_components() reports; see digraph.h.
  uf::dsu uf(n, uf::link_policy::naive, uf::compress_policy::full);
  std::size_t u = 0;
  for (const auto& [id, outs] : adj) {
    for (const node_id v : outs) uf.unite(u, index(v));
    ++u;
  }
  return uf;
}

}  // namespace

void digraph::add_node(node_id v) { adj_.try_emplace(v); }

void digraph::add_edge(node_id u, node_id v) {
  if (u == v) {
    add_node(u);
    return;
  }
  add_node(v);
  auto& outs = adj_[u];
  if (outs.insert(v).second) ++edge_count_;
}

bool digraph::has_edge(node_id u, node_id v) const {
  const auto it = adj_.find(u);
  return it != adj_.end() && it->second.contains(v);
}

const std::set<node_id>& digraph::out(node_id v) const {
  const auto it = adj_.find(v);
  return it == adj_.end() ? empty_set_ : it->second;
}

std::vector<node_id> digraph::nodes() const { return key_order(adj_); }

std::vector<std::vector<node_id>> digraph::weak_components() const {
  uf::dsu uf = shadow_union_find(adj_);
  const std::size_t n = uf.size();
  // Number the components by ascending root index, then fill each from the
  // ascending node order, so every member list comes out sorted.
  constexpr std::size_t none = ~std::size_t{0};
  std::vector<std::size_t> slot(n, none);
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (uf.find(i) == i) slot[i] = count++;
  std::vector<std::vector<node_id>> out(count);
  std::size_t i = 0;
  for (const auto& [v, outs] : adj_) out[slot[uf.find(i++)]].push_back(v);
  return out;
}

bool digraph::is_weakly_connected() const {
  return adj_.size() <= 1 || shadow_union_find(adj_).component_count() == 1;
}

std::vector<std::vector<node_id>> digraph::strong_components() const {
  // Iterative Tarjan SCC.
  std::map<node_id, std::size_t> index, lowlink;
  std::set<node_id> on_stack;
  std::vector<node_id> scc_stack;
  std::vector<std::vector<node_id>> result;
  std::size_t next_index = 0;

  struct frame {
    node_id v;
    std::set<node_id>::const_iterator it;
  };

  for (const auto& [start, start_outs] : adj_) {
    if (index.contains(start)) continue;
    std::stack<frame> call;
    index[start] = lowlink[start] = next_index++;
    scc_stack.push_back(start);
    on_stack.insert(start);
    call.push({start, out(start).begin()});

    while (!call.empty()) {
      frame& f = call.top();
      if (f.it != out(f.v).end()) {
        const node_id w = *f.it++;
        if (!index.contains(w)) {
          index[w] = lowlink[w] = next_index++;
          scc_stack.push_back(w);
          on_stack.insert(w);
          call.push({w, out(w).begin()});
        } else if (on_stack.contains(w)) {
          lowlink[f.v] = std::min(lowlink[f.v], index[w]);
        }
      } else {
        const node_id v = f.v;
        call.pop();
        if (!call.empty())
          lowlink[call.top().v] = std::min(lowlink[call.top().v], lowlink[v]);
        if (lowlink[v] == index[v]) {
          std::vector<node_id> comp;
          for (;;) {
            const node_id w = scc_stack.back();
            scc_stack.pop_back();
            on_stack.erase(w);
            comp.push_back(w);
            if (w == v) break;
          }
          std::sort(comp.begin(), comp.end());
          result.push_back(std::move(comp));
        }
      }
    }
  }
  return result;
}

bool digraph::is_strongly_connected() const {
  return adj_.size() <= 1 || strong_components().size() == 1;
}

std::vector<std::size_t> digraph::weak_component_sizes() const {
  uf::dsu uf = shadow_union_find(adj_);
  const std::size_t n = uf.size();
  std::vector<std::size_t> per_root(n, 0);
  for (std::size_t i = 0; i < n; ++i) ++per_root[uf.find(i)];
  std::vector<std::size_t> sizes(n);
  for (std::size_t i = 0; i < n; ++i) sizes[i] = per_root[uf.find(i)];
  return sizes;
}

}  // namespace asyncrd::graph
