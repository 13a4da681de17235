// The benchmark's own check of a finished discovery execution.
//
// It shares no code with core/checker.h: weak components come from a
// union-find over the generated graph's edge list, and the paper's §1.2
// properties and message caps are re-derived here.  The input is a plain
// snapshot of each node (node_view), so the self-test can feed it
// deliberately corrupted states.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/node.h"
#include "core/status.h"

namespace perfbench {

using asyncrd::node_id;
using asyncrd::core::status_t;
using asyncrd::core::variant;

/// What the verifier reads off one node at quiescence.
struct node_view {
  node_id id = asyncrd::invalid_node;
  status_t status = status_t::asleep;
  node_id next = asyncrd::invalid_node;
  std::vector<node_id> done;  ///< filled for leaders only
};

/// Per-type message counts the Lemma 5.5/5.7/5.8 caps read.
struct type_counts {
  std::uint64_t query = 0, query_reply = 0;
  std::uint64_t merge_accept = 0, merge_fail = 0, info = 0;
  std::uint64_t conquer = 0, more_done = 0;
};

/// Weakly connected components of the graph given by `ids` (any order,
/// distinct) and directed `edges`, each component sorted ascending.
inline std::vector<std::vector<node_id>> components_of(
    std::vector<node_id> ids,
    const std::vector<std::pair<node_id, node_id>>& edges) {
  std::sort(ids.begin(), ids.end());
  const auto index = [&ids](node_id v) {
    return static_cast<std::size_t>(
        std::lower_bound(ids.begin(), ids.end(), v) - ids.begin());
  };
  std::vector<std::size_t> parent(ids.size()), size(ids.size(), 1);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const auto find = [&parent](std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (const auto& [u, v] : edges) {
    std::size_t a = find(index(u)), b = find(index(v));
    if (a == b) continue;
    if (size[a] < size[b]) std::swap(a, b);
    parent[b] = a;
    size[a] += size[b];
  }
  std::vector<std::size_t> slot(ids.size(), ids.size());
  std::vector<std::vector<node_id>> out;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::size_t r = find(i);
    if (slot[r] == ids.size()) {
      slot[r] = out.size();
      out.emplace_back();
    }
    out[slot[r]].push_back(ids[i]);  // ids ascending => each list sorted
  }
  return out;
}

inline bool is_leader(status_t s) {
  return s != status_t::passive && s != status_t::conquered &&
         s != status_t::inactive;
}

/// Checks a quiescent execution against the paper's final-state
/// properties.  `views` must hold one entry per node, in any order.
/// Returns the violations found (at most a handful are spelled out).
inline std::vector<std::string> verify_final_state(
    const std::vector<std::vector<node_id>>& comps, variant algo,
    std::vector<node_view> views) {
  std::vector<std::string> bad;
  const auto fail = [&bad](std::string s) {
    if (bad.size() < 8) bad.push_back(std::move(s));
    else if (bad.size() == 8) bad.push_back("...");
  };
  std::sort(views.begin(), views.end(),
            [](const node_view& a, const node_view& b) { return a.id < b.id; });
  const auto find_view = [&views](node_id v) -> const node_view* {
    const auto it = std::lower_bound(
        views.begin(), views.end(), v,
        [](const node_view& a, node_id b) { return a.id < b; });
    return it != views.end() && it->id == v ? &*it : nullptr;
  };
  std::size_t expected = 0;
  for (const auto& comp : comps) expected += comp.size();
  if (views.size() != expected)
    fail("snapshot has " + std::to_string(views.size()) + " nodes, graph has " +
         std::to_string(expected));

  for (const auto& comp : comps) {
    const node_view* leader = nullptr;
    std::size_t leaders = 0;
    bool complete = true;
    for (const node_id v : comp) {
      const node_view* nv = find_view(v);
      if (nv == nullptr) {
        fail("node " + std::to_string(v) + " missing from the snapshot");
        complete = false;
        continue;
      }
      if (nv->status == status_t::asleep)
        fail("node " + std::to_string(v) + " never woke");
      if (is_leader(nv->status)) {
        ++leaders;
        leader = nv;
      }
    }
    if (!complete) continue;
    if (leaders != 1) {
      fail("component of node " + std::to_string(comp.front()) + " has " +
           std::to_string(leaders) + " leaders");
      continue;
    }
    std::vector<node_id> done = leader->done;
    std::sort(done.begin(), done.end());
    if (done != comp)
      fail("leader " + std::to_string(leader->id) + " knows " +
           std::to_string(done.size()) + " ids of a " +
           std::to_string(comp.size()) + "-node component");
    if (algo == variant::bounded && leader->status != status_t::terminated)
      fail("bounded leader " + std::to_string(leader->id) +
           " has not terminated");
    for (const node_id v : comp) {
      const node_view& nv = *find_view(v);
      if (&nv == leader) continue;
      if (nv.status != status_t::inactive)
        fail("node " + std::to_string(v) + " is not inactive");
      if (algo != variant::adhoc) {
        if (nv.next != leader->id)
          fail("node " + std::to_string(v) + " does not point at its leader");
        continue;
      }
      // Ad-hoc: the next() chain must reach the leader within |comp| hops.
      const node_view* cur = &nv;
      for (std::size_t hops = 0; cur != nullptr && cur != leader &&
                                 hops < comp.size();
           ++hops)
        cur = find_view(cur->next);
      if (cur != leader)
        fail("next() chain from node " + std::to_string(v) +
             " does not reach its leader");
    }
  }
  return bad;
}

/// The paper's per-type caps for an n-node execution on the reliable wire:
/// Lemma 5.5 query+query_reply <= 4n; Lemma 5.7 merge_accept+merge_fail+info
/// <= 3n-2 (the paper states 2n, but a passive node may offer itself again
/// after a merge fail; EXPERIMENTS.md documents the corrected count);
/// Lemma 5.8 conquer+more_done <= 2n log2 n (generic), <= 2n (bounded),
/// == 0 (adhoc).
inline std::vector<std::string> verify_message_caps(const type_counts& c,
                                                    std::size_t n,
                                                    variant algo) {
  std::vector<std::string> bad;
  const double dn = static_cast<double>(n);
  const auto cap = [&bad](const char* what, std::uint64_t got, double limit) {
    if (static_cast<double>(got) > limit)
      bad.push_back(std::string(what) + " = " + std::to_string(got) +
                    " exceeds " + std::to_string(limit));
  };
  cap("query+query_reply", c.query + c.query_reply, 4.0 * dn);
  cap("merge_accept+merge_fail+info", c.merge_accept + c.merge_fail + c.info,
      3.0 * dn - 2.0);
  const double conquer = algo == variant::generic
                             ? 2.0 * dn * std::max(1.0, std::log2(dn))
                         : algo == variant::bounded ? 2.0 * dn
                                                    : 0.0;
  cap("conquer+more_done", c.conquer + c.more_done, conquer);
  return bad;
}

}  // namespace perfbench
