// Incremental Connected Components between snapshot epochs. Output is
// EXACTLY the full Shiloach-Vishkin labeling of the newer cut (cc.hpp
// converges to the minimum vertex id per component), so equivalence is
// checked with operator== — no tolerance.
//
// Inserts only grow components: a union-find hook pass over the delta's
// inserted edges (link the larger root under the smaller, path-halving
// finds) merges the previous labeling in O(|delta| * alpha) without
// touching unchanged components.
//
// Deletes can split components, and a split cannot be resolved locally —
// but only inside the components that actually lost an edge. The kernel
// collects the previous labels touched by any deleted edge and relabels
// just those components' members by BFS over the member-induced subgraph
// of the NEWER view. Two care points make that exact:
//
//  - The BFS adjacency is symmetrized (an edge found in either endpoint's
//    out-list connects both ways), because full SV hooks every edge
//    symmetrically while a delete may have absorbed only one direction of
//    a pair — directed reachability would under-merge.
//  - Restricting to members loses nothing: every surviving edge incident
//    to a member leads to another member or was inserted since the older
//    cut (old edges never crossed old components), and the hook pass
//    covers the latter. Conversely the hook pass SKIPS member-member
//    inserted edges: the surviving ones were already walked by the BFS,
//    and an inserted edge cancelled by an in-round delete (which must be
//    member-member — deleted endpoints are members by construction) must
//    not merge anything.
//
// Everything outside the touched components keeps its previous label.
//
// Requires `prev` to be the exact labeling of the delta's older cut (its
// size must be nodes_before); anything else falls back to a full
// recompute and reports full_fallback. Vertices born since the older cut
// start as singletons and are merged by the hook pass.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "src/algorithms/cc.hpp"
#include "src/algorithms/graph_view.hpp"
#include "src/algorithms/incremental/frontier.hpp"
#include "src/core/snapshot_delta.hpp"

namespace dgap::algorithms {

struct IncrementalCcResult {
  std::vector<NodeId> labels;
  // Vertices relabeled by the scoped delete recomputation (0 on
  // insert-only rounds) — the work metric the bench reports.
  std::uint64_t recomputed_vertices = 0;
  bool full_fallback = false;
};

template <GraphView G>
IncrementalCcResult incremental_cc(const G& g,
                                   const core::SnapshotDelta& delta,
                                   const std::vector<NodeId>& prev) {
  const NodeId n = g.num_nodes();
  IncrementalCcResult r;
  if (static_cast<NodeId>(prev.size()) != delta.nodes_before ||
      n != delta.nodes_after) {
    r.labels = connected_components(g);
    r.recomputed_vertices = static_cast<std::uint64_t>(n);
    r.full_fallback = true;
    return r;
  }

  // Previous labels extended: new vertices are singleton components until
  // the hook pass below merges them along their inserted edges.
  std::vector<NodeId>& comp = r.labels;
  comp = prev;
  comp.resize(static_cast<std::size_t>(n));
  for (NodeId v = delta.nodes_before; v < n; ++v) comp[v] = v;

  std::vector<std::uint8_t> member;  // non-empty only on delete rounds
  if (!delta.deleted.empty()) {
    // Components that lost an edge: exact reconnectivity is recomputed for
    // their members only.
    std::unordered_set<NodeId> roots;
    for (const core::DeltaEdge& e : delta.deleted) {
      roots.insert(comp[e.src]);
      if (e.dst >= 0 && e.dst < n) roots.insert(comp[e.dst]);
    }
    member.assign(static_cast<std::size_t>(n), 0);
    std::vector<NodeId> members;
    std::vector<std::uint32_t> mpos(static_cast<std::size_t>(n), 0);
    for (NodeId v = 0; v < n; ++v) {
      if (roots.count(comp[v]) != 0) {
        member[v] = 1;
        mpos[v] = static_cast<std::uint32_t>(members.size());
        members.push_back(v);
      }
    }
    // Symmetrized member-induced adjacency (see header comment): an edge
    // in either direction connects both endpoints, as full SV treats it.
    std::vector<std::vector<NodeId>> adj(members.size());
    auto&& rd = block_reader(g);  // sequential, no store or scheduler calls
    for (std::size_t i = 0; i < members.size(); ++i) {
      rd.for_each_out(members[i], [&](NodeId w) {
        if (w >= 0 && w < n && member[w] != 0) {
          adj[i].push_back(w);
          adj[mpos[w]].push_back(members[i]);
        }
      });
    }
    // BFS with ascending seeds: the first seed reaching a sub-component is
    // its minimum member id — the label full SV would give it (before
    // inserted cross edges, which the hook pass handles).
    Frontier visited(n);
    std::vector<NodeId> queue;
    for (const NodeId s : members) {
      if (visited.contains(s)) continue;
      visited.push(s);
      comp[s] = s;
      queue.assign(1, s);
      for (std::size_t head = 0; head < queue.size(); ++head) {
        for (const NodeId w : adj[mpos[queue[head]]]) {
          if (!visited.contains(w)) {
            visited.push(w);
            comp[w] = s;
            queue.push_back(w);
          }
        }
      }
    }
    r.recomputed_vertices = members.size();
  }

  // `comp` is now a two-level parent forest (every label is its own root):
  // hook the inserted edges with path-halving union-find, min root wins.
  auto find = [&comp](NodeId v) {
    while (comp[v] != comp[comp[v]]) comp[v] = comp[comp[v]];
    return comp[v];
  };
  for (const core::DeltaEdge& e : delta.inserted) {
    if (e.dst < 0 || e.dst >= n) continue;
    // Member-member inserts are either already walked (surviving) or dead
    // (cancelled by an in-round delete) — never hook them.
    if (!member.empty() && member[e.src] != 0 && member[e.dst] != 0) continue;
    const NodeId ru = find(e.src);
    const NodeId rv = find(e.dst);
    if (ru == rv) continue;
    const NodeId hi = ru > rv ? ru : rv;
    comp[hi] = ru + rv - hi;
  }
  for (NodeId v = 0; v < n; ++v) comp[v] = find(v);
  return r;
}

}  // namespace dgap::algorithms
