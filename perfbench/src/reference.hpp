// Reference computations the benchmark checks the program against.
//
// Everything here is built from the generated edge list alone, with plain
// serial code that shares nothing with src/ beyond the NodeId/Edge types:
// an adjacency list in insertion order, BFS depths, the component
// partition (union-find, and hook-and-compress as a timing reference),
// PageRank by power iteration and Brandes betweenness. No output of the
// program is stored and compared later.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "src/graph/types.hpp"

namespace perfbench::ref {

using dgap::Edge;
using dgap::NodeId;

// Out-neighbours per vertex in insertion order (duplicates kept: the store
// is a multigraph and so is every kernel's view of it), in two flat arrays
// as a CSR holds them: the reference kernels then read memory the way the
// program's kernels do, and their timings drift with the host's memory
// speed alike.
struct Adjacency {
  std::vector<std::size_t> offset;  // vertex v's neighbours are
  std::vector<NodeId> target;       // target[offset[v] .. offset[v + 1])

  Adjacency(NodeId n, std::span<const Edge> edges) {
    auto nodes = static_cast<std::size_t>(n);
    for (const Edge& e : edges)
      nodes = std::max(nodes,
                       static_cast<std::size_t>(std::max(e.src, e.dst)) + 1);
    offset.assign(nodes + 1, 0);
    for (const Edge& e : edges) ++offset[static_cast<std::size_t>(e.src) + 1];
    std::partial_sum(offset.begin(), offset.end(), offset.begin());
    target.resize(edges.size());
    std::vector<std::size_t> at(offset.begin(), offset.end() - 1);
    for (const Edge& e : edges)
      target[at[static_cast<std::size_t>(e.src)]++] = e.dst;
  }
  [[nodiscard]] std::size_t size() const { return offset.size() - 1; }
  [[nodiscard]] NodeId n() const { return static_cast<NodeId>(size()); }
  [[nodiscard]] std::span<const NodeId> out(std::size_t v) const {
    return {target.data() + offset[v], target.data() + offset[v + 1]};
  }
};

inline std::vector<std::int64_t> bfs_depths(const Adjacency& g,
                                            NodeId source) {
  std::vector<std::int64_t> depth(g.size(), -1);
  std::vector<NodeId> queue{source};
  depth[static_cast<std::size_t>(source)] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    for (const NodeId v : g.out(static_cast<std::size_t>(u))) {
      if (depth[static_cast<std::size_t>(v)] >= 0) continue;
      depth[static_cast<std::size_t>(v)] = depth[static_cast<std::size_t>(u)] + 1;
      queue.push_back(v);
    }
  }
  return depth;
}

// Component id = smallest vertex id in the component.
inline std::vector<NodeId> components(const Adjacency& g) {
  std::vector<NodeId> parent(g.size());
  std::iota(parent.begin(), parent.end(), NodeId{0});
  const auto find = [&](NodeId x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  };
  for (NodeId u = 0; u < g.n(); ++u)
    for (const NodeId v : g.out(static_cast<std::size_t>(u))) {
      const NodeId a = find(u);
      const NodeId b = find(v);
      if (a != b) parent[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
    }
  for (NodeId v = 0; v < g.n(); ++v)
    parent[static_cast<std::size_t>(v)] = find(v);
  return parent;
}

// Hook-and-compress (Shiloach-Vishkin, the formulation GAPBS uses), serial:
// the timing reference for CC. The number of hook rounds depends on the
// order neighbours are visited in, and varied 1.8x between insertion
// orders of one graph; visiting the adjacency list in insertion order, as
// the store's views do, this does the work a hook-based kernel does on the
// same cut, so the timing ratio does not follow the seed. The partition
// check uses components() above.
inline std::vector<NodeId> components_hook(const Adjacency& g) {
  const std::size_t n = g.size();
  std::vector<NodeId> comp(n);
  std::iota(comp.begin(), comp.end(), NodeId{0});
  for (bool change = true; change;) {
    change = false;
    for (std::size_t u = 0; u < n; ++u)
      for (const NodeId v : g.out(u)) {
        const NodeId cu = comp[u];
        const NodeId cv = comp[static_cast<std::size_t>(v)];
        if (cu == cv) continue;
        const NodeId high = std::max(cu, cv);
        if (comp[static_cast<std::size_t>(high)] == high) {
          comp[static_cast<std::size_t>(high)] = std::min(cu, cv);
          change = true;
        }
      }
    for (std::size_t v = 0; v < n; ++v)
      while (comp[v] != comp[static_cast<std::size_t>(comp[v])])
        comp[v] = comp[static_cast<std::size_t>(comp[v])];
  }
  return comp;
}

// Pull PageRank with dangling mass spread uniformly. iterations > 0 runs
// exactly that many sweeps; iterations == 0 runs to the fixed point (L1
// change below 1e-13).
inline std::vector<double> pagerank(const Adjacency& g, int iterations,
                                    double damping = 0.85) {
  const std::size_t n = g.size();
  std::vector<double> score(n, 1.0 / static_cast<double>(n));
  std::vector<double> contrib(n, 0.0);
  const double base = (1.0 - damping) / static_cast<double>(n);
  for (int it = 0; iterations == 0 || it < iterations; ++it) {
    double dangling = 0.0;
    for (std::size_t v = 0; v < n; ++v) {
      if (g.out(v).empty())
        dangling += score[v];
      else
        contrib[v] = score[v] / static_cast<double>(g.out(v).size());
    }
    const double share = damping * dangling / static_cast<double>(n);
    double change = 0.0;
    for (std::size_t v = 0; v < n; ++v) {
      double in = 0.0;
      for (const NodeId u : g.out(v)) in += contrib[static_cast<std::size_t>(u)];
      const double next = base + share + damping * in;
      change += std::abs(next - score[v]);
      score[v] = next;
    }
    if (iterations == 0 && (change < 1e-13 || it > 10000)) break;
  }
  return score;
}

// Brandes betweenness summed over `sources`, normalised by the maximum
// (GAPBS convention). Path counts and dependencies follow every parallel
// edge, as the program's kernel does on a multigraph.
inline std::vector<double> betweenness(const Adjacency& g,
                                       const std::vector<NodeId>& sources) {
  const std::size_t n = g.size();
  std::vector<double> score(n, 0.0);
  std::vector<double> sigma(n);
  std::vector<double> delta(n);
  std::vector<std::int64_t> depth(n);
  std::vector<NodeId> order;
  for (const NodeId s : sources) {
    std::fill(sigma.begin(), sigma.end(), 0.0);
    std::fill(delta.begin(), delta.end(), 0.0);
    std::fill(depth.begin(), depth.end(), -1);
    order.assign(1, s);
    sigma[static_cast<std::size_t>(s)] = 1.0;
    depth[static_cast<std::size_t>(s)] = 0;
    for (std::size_t head = 0; head < order.size(); ++head) {
      const auto u = static_cast<std::size_t>(order[head]);
      for (const NodeId vv : g.out(u)) {
        const auto v = static_cast<std::size_t>(vv);
        if (depth[v] < 0) {
          depth[v] = depth[u] + 1;
          order.push_back(vv);
        }
        if (depth[v] == depth[u] + 1) sigma[v] += sigma[u];
      }
    }
    for (std::size_t i = order.size(); i-- > 0;) {
      const auto w = static_cast<std::size_t>(order[i]);
      for (const NodeId vv : g.out(w)) {
        const auto v = static_cast<std::size_t>(vv);
        if (depth[v] == depth[w] - 1)
          delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
      }
      if (static_cast<NodeId>(w) != s) score[w] += delta[w];
    }
  }
  const double top = *std::max_element(score.begin(), score.end());
  if (top > 0)
    for (double& x : score) x /= top;
  return score;
}

// --- comparisons ------------------------------------------------------------

inline double max_abs_diff(const std::vector<double>& a,
                           const std::vector<double>& b) {
  if (a.size() != b.size()) return INFINITY;
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

inline double l1_diff(const std::vector<double>& a,
                      const std::vector<double>& b) {
  if (a.size() != b.size()) return INFINITY;
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += std::abs(a[i] - b[i]);
  return s;
}

// Same partition, whatever the label values.
inline bool same_partition(const std::vector<NodeId>& a,
                           const std::vector<NodeId>& b) {
  if (a.size() != b.size()) return false;
  std::vector<NodeId> a_to_b(a.size(), -1);
  std::vector<NodeId> b_to_a(b.size(), -1);
  for (std::size_t v = 0; v < a.size(); ++v) {
    const auto la = static_cast<std::size_t>(a[v]);
    const auto lb = static_cast<std::size_t>(b[v]);
    if (la >= a.size() || lb >= b.size()) return false;
    if (a_to_b[la] == -1) a_to_b[la] = b[v];
    if (b_to_a[lb] == -1) b_to_a[lb] = a[v];
    if (a_to_b[la] != b[v] || b_to_a[lb] != a[v]) return false;
  }
  return true;
}

// BFS parent array (parent[source] == source, -1 unreached) -> depths.
// Returns an empty vector when the parents do not form a tree rooted at
// the source along edges of `g`.
inline std::vector<std::int64_t> depths_from_parents(
    const Adjacency& g, const std::vector<NodeId>& parent, NodeId source) {
  const std::size_t n = g.size();
  if (parent.size() != n || parent[static_cast<std::size_t>(source)] != source)
    return {};
  std::vector<std::int64_t> depth(n, -2);  // -2 = not yet resolved
  depth[static_cast<std::size_t>(source)] = 0;
  std::vector<NodeId> chain;
  for (std::size_t v0 = 0; v0 < n; ++v0) {
    if (parent[v0] < 0) {
      depth[v0] = -1;
      continue;
    }
    chain.clear();
    auto v = static_cast<NodeId>(v0);
    while (depth[static_cast<std::size_t>(v)] == -2) {
      chain.push_back(v);
      const NodeId p = parent[static_cast<std::size_t>(v)];
      if (p < 0 || static_cast<std::size_t>(p) >= n ||
          chain.size() > n)
        return {};
      const auto nb = g.out(static_cast<std::size_t>(p));
      if (std::find(nb.begin(), nb.end(), v) == nb.end()) return {};
      v = p;
    }
    std::int64_t d = depth[static_cast<std::size_t>(v)];
    if (d < 0) return {};
    for (std::size_t i = chain.size(); i-- > 0;)
      depth[static_cast<std::size_t>(chain[i])] = ++d;
  }
  return depth;
}

}  // namespace perfbench::ref
