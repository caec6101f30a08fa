// The compile-time interface every graph store exposes to the kernels.
//
// The paper runs the *same* GAPBS algorithm code on every framework for
// fairness (§4.1); we achieve that by templating the kernels over any type
// satisfying GraphView. DGAP's Snapshot, PmemCsr, BalStore, LlamaStore,
// GraphOneStore and XpGraphStore all model it.
//
// All registered datasets are symmetric (both edge directions inserted), so
// out-neighbors double as in-neighbors; the direction-optimizing BFS and
// pull-based PageRank rely on this, exactly like GAPBS with -s.
#pragma once

#include <concepts>
#include <cstdint>

#include "src/graph/types.hpp"

namespace dgap::algorithms {

template <typename G>
concept GraphView = requires(const G& g, NodeId v) {
  { g.num_nodes() } -> std::convertible_to<NodeId>;
  { g.out_degree(v) } -> std::convertible_to<std::int64_t>;
  g.for_each_out(v, [](NodeId) {});
};

// Read handle for one block of vertex reads. A view with a reader()
// (core::Snapshot) hands out a Snapshot::Reader, which holds one
// reader-gate lane across the block instead of entering the gate per
// vertex; every other view (SnapshotCsr, the baselines, DeltaMirror,
// ShardedSnapshot) reads through itself. Bind it with `auto&&` inside the
// block body and let it die before par::assist_point(), a scheduler wait
// or a store write: a task run from there that needs the structural gate
// (an assisted offloaded rebalance) would wait on the lane this thread
// holds.
template <GraphView G>
decltype(auto) block_reader(const G& g) {
  if constexpr (requires { g.reader(); })
    return g.reader();
  else
    return (g);
}

// Total directed edge count by summing degrees (views cache their own
// counts where cheaper).
template <GraphView G>
std::uint64_t total_directed_edges(const G& g) {
  std::uint64_t total = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    total += static_cast<std::uint64_t>(g.out_degree(v));
  return total;
}

// Deterministic interesting source: the highest-out-degree vertex (ties to
// the smallest id). The paper picks BFS/BC sources per run; a fixed rule
// keeps our tables reproducible.
template <GraphView G>
NodeId max_degree_vertex(const G& g) {
  NodeId best = 0;
  std::int64_t best_deg = -1;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::int64_t d = g.out_degree(v);
    if (d > best_deg) {
      best = v;
      best_deg = d;
    }
  }
  return best;
}

}  // namespace dgap::algorithms
