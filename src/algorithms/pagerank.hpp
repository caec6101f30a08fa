// PageRank, GAPBS-style pull iteration (paper Table 1: 20 fixed
// iterations, Link Analysis kernel).
//
// score_new(v) = (1-d)/N + d * sum_{u in N(v)} contrib(u),
// contrib(u) = score(u) / deg(u). Graphs are symmetric so pulling over
// out-neighbors equals pulling over in-neighbors.
//
// Parallelism goes through par:: (scheduler or OpenMP — src/sched/
// parallel.hpp). Both reductions use reduce_blocks, whose per-block
// partials combine in block order: the floating-point results are
// bit-identical across execution modes and thread counts.
#pragma once

#include <cstdint>
#include <vector>

#include "src/algorithms/graph_view.hpp"
#include "src/sched/parallel.hpp"

namespace dgap::algorithms {

struct PageRankParams {
  int iterations = 20;  // the paper's fixed count
  double damping = 0.85;
  // > 0: stop early once an iteration's total L1 score change drops below
  // this (GAPBS's -t mode; `iterations` becomes an upper bound). 0 keeps
  // the paper's fixed-iteration behavior, bit for bit — the incremental
  // kernels converge to a residual target, so their from-scratch baseline
  // must be able to as well.
  double tolerance = 0;
};

template <GraphView G>
std::vector<double> pagerank(const G& g, const PageRankParams& params = {}) {
  const NodeId n = g.num_nodes();
  if (n == 0) return {};
  const double init = 1.0 / static_cast<double>(n);
  const double base = (1.0 - params.damping) / static_cast<double>(n);
  std::vector<double> score(static_cast<std::size_t>(n), init);
  std::vector<double> contrib(static_cast<std::size_t>(n), 0.0);
  const auto plus = [](double a, double b) { return a + b; };

  for (int iter = 0; iter < params.iterations; ++iter) {
    // Dangling mass (deg == 0) is redistributed uniformly, as in GAPBS's
    // handling of sink vertices.
    const double dangling = par::reduce_blocks(
        n, 2048, 0.0,
        [&](std::int64_t b, std::int64_t e) {
          double part = 0.0;
          for (NodeId v = b; v < e; ++v) {
            const std::int64_t deg = g.out_degree(v);
            if (deg > 0)
              contrib[v] = score[v] / static_cast<double>(deg);
            else
              part += score[v];
          }
          return part;
        },
        plus);
    const double dangling_share =
        params.damping * dangling / static_cast<double>(n);
    const double change = par::reduce_blocks(
        n, 256, 0.0,
        [&](std::int64_t b, std::int64_t e) {
          double part = 0.0;
          auto&& rd = block_reader(g);
          for (NodeId v = b; v < e; ++v) {
            double incoming = 0.0;
            rd.for_each_out(v, [&](NodeId u) { incoming += contrib[u]; });
            const double next =
                base + dangling_share + params.damping * incoming;
            part += next > score[v] ? next - score[v] : score[v] - next;
            score[v] = next;
          }
          return part;
        },
        plus);
    if (params.tolerance > 0 && change < params.tolerance) break;
  }
  return score;
}

}  // namespace dgap::algorithms
