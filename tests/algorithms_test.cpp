// Kernel tests: exact answers on the fixture graph, verifier-checked
// results on random graphs, cross-store agreement, and OpenMP determinism
// where the algorithm guarantees it.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "src/algorithms/bc.hpp"
#include "src/algorithms/bfs.hpp"
#include "src/algorithms/cc.hpp"
#include "src/algorithms/graph_view.hpp"
#include "src/algorithms/pagerank.hpp"
#include "src/algorithms/verify.hpp"
#include "src/graph/adj_graph.hpp"
#include "src/graph/generators.hpp"
#include "src/sched/parallel.hpp"

namespace dgap::algorithms {
namespace {

AdjGraph fixture() { return AdjGraph(tiny_fixture_graph()); }

TEST(GraphViewHelpers, MaxDegreeVertex) {
  const AdjGraph g = fixture();
  // Degrees: v1 and v2 and v3 all have 3; ties break to the smallest id.
  EXPECT_EQ(max_degree_vertex(g), 1);
  EXPECT_EQ(total_directed_edges(g), 16u);
}

TEST(Bfs, FixtureDistancesAndParents) {
  const AdjGraph g = fixture();
  const auto parent = bfs(g, 0);
  EXPECT_TRUE(verify_bfs(g, 0, parent));
  EXPECT_EQ(parent[0], 0);
  EXPECT_EQ(parent[6], -1);  // other component
  EXPECT_EQ(parent[8], -1);  // isolated
  const auto depth = serial_bfs_depths(g, 0);
  EXPECT_EQ(depth[5], 4);  // 0-1-3-4-5 (or 0-2-3-4-5)
}

TEST(Bfs, SourceInSmallComponent) {
  const AdjGraph g = fixture();
  const auto parent = bfs(g, 6);
  EXPECT_TRUE(verify_bfs(g, 6, parent));
  EXPECT_EQ(parent[7], 6);
  EXPECT_EQ(parent[0], -1);
}

TEST(Bfs, RandomGraphsAgreeWithSerial) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto stream = symmetrize(generate_rmat(512, 4000, seed));
    const AdjGraph g(stream);
    const NodeId source = max_degree_vertex(g);
    const auto parent = bfs(g, source);
    EXPECT_TRUE(verify_bfs(g, source, parent)) << "seed " << seed;
  }
}

TEST(Bfs, ForcesBottomUpOnDenseGraph) {
  // A dense graph from a high-degree source must trip the direction switch
  // (alpha heuristic) and still verify.
  const auto stream = symmetrize(generate_uniform(256, 20000, 7));
  const AdjGraph g(stream);
  const auto parent = bfs(g, max_degree_vertex(g));
  EXPECT_TRUE(verify_bfs(g, max_degree_vertex(g), parent));
}

TEST(Cc, FixtureComponents) {
  const AdjGraph g = fixture();
  const auto comp = connected_components(g);
  EXPECT_TRUE(verify_components(g, comp));
  // {0..5} together, {6,7} together, {8} alone.
  for (int v = 1; v <= 5; ++v) EXPECT_EQ(comp[v], comp[0]);
  EXPECT_EQ(comp[7], comp[6]);
  EXPECT_NE(comp[6], comp[0]);
  EXPECT_NE(comp[8], comp[0]);
  EXPECT_NE(comp[8], comp[6]);
}

TEST(Cc, RandomGraphComponentsVerify) {
  const auto stream = symmetrize(generate_rmat(600, 2000, 11));
  const AdjGraph g(stream);
  const auto comp = connected_components(g);
  EXPECT_TRUE(verify_components(g, comp));
}

TEST(Cc, CountsIsolatedVertices) {
  AdjGraph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  const auto comp = connected_components(g);
  const std::set<NodeId> labels(comp.begin(), comp.end());
  EXPECT_EQ(labels.size(), 4u);  // {0,1}, {2}, {3}, {4}
}

TEST(PageRank, SumsToOneAndRanksHubs) {
  const auto stream = symmetrize(generate_rmat(400, 6000, 5));
  const AdjGraph g(stream);
  const auto scores = pagerank(g);
  EXPECT_TRUE(verify_pagerank(scores));
  // The max-degree vertex should outrank the min-degree one.
  NodeId hub = max_degree_vertex(g);
  NodeId leaf = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    if (g.out_degree(v) < g.out_degree(leaf)) leaf = v;
  EXPECT_GT(scores[hub], scores[leaf]);
}

TEST(PageRank, UniformOnRegularRing) {
  // A symmetric ring is 2-regular: PageRank must be uniform.
  AdjGraph g(10);
  for (NodeId v = 0; v < 10; ++v) {
    g.add_edge(v, (v + 1) % 10);
    g.add_edge((v + 1) % 10, v);
  }
  const auto scores = pagerank(g);
  for (const double s : scores) EXPECT_NEAR(s, 0.1, 1e-9);
}

TEST(PageRank, HandlesIsolatedVertices) {
  // Isolated vertices are the dangling case of a symmetric graph: their
  // mass must be redistributed, keeping the total at 1.
  AdjGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 0);  // vertices 2 and 3 are isolated
  const auto scores = pagerank(g);
  EXPECT_TRUE(verify_pagerank(scores));
  EXPECT_NEAR(scores[2], scores[3], 1e-12);
  EXPECT_GT(scores[0], scores[2]);
}

TEST(PageRank, ToleranceStopsAtSerialIteration) {
  // A plain serial loop with the same update decides at which iteration
  // the total L1 change first drops below the tolerance; the
  // tolerance-stopped kernel must stop after exactly that many.
  const auto stream = symmetrize(generate_rmat(2000, 12000, 7));
  const AdjGraph g(stream);
  const NodeId n = g.num_nodes();
  const double d = 0.85;
  const double tol = 1e-6;
  std::vector<double> score(static_cast<std::size_t>(n), 1.0 / n);
  std::vector<double> contrib(static_cast<std::size_t>(n), 0.0);
  int stop = 0;
  for (int iter = 1; iter <= 200 && stop == 0; ++iter) {
    double dangling = 0.0;
    for (NodeId v = 0; v < n; ++v) {
      if (g.out_degree(v) > 0)
        contrib[v] = score[v] / static_cast<double>(g.out_degree(v));
      else
        dangling += score[v];
    }
    double change = 0.0;
    for (NodeId v = 0; v < n; ++v) {
      double incoming = 0.0;
      g.for_each_out(v, [&](NodeId u) { incoming += contrib[u]; });
      const double next = (1.0 - d) / n + d * dangling / n + d * incoming;
      change += next > score[v] ? next - score[v] : score[v] - next;
      score[v] = next;
    }
    if (change < tol) stop = iter;
  }
  ASSERT_GT(stop, 1);
  const auto stopped = pagerank(g, {.iterations = 200, .tolerance = tol});
  EXPECT_EQ(stopped, pagerank(g, {.iterations = stop}));
  EXPECT_NE(stopped, pagerank(g, {.iterations = stop - 1}));
  for (NodeId v = 0; v < n; ++v) EXPECT_NEAR(stopped[v], score[v], 1e-12);
}

TEST(Bc, PathGraphCenterHighest) {
  // On the path 0-1-2-3-4 the middle vertex lies on the most shortest
  // paths. Accumulate over all sources for the exact textbook answer.
  AdjGraph g(5);
  for (NodeId v = 0; v + 1 < 5; ++v) {
    g.add_edge(v, v + 1);
    g.add_edge(v + 1, v);
  }
  std::vector<NodeId> all = {0, 1, 2, 3, 4};
  const auto scores = betweenness_centrality(g, all);
  EXPECT_TRUE(verify_bc(scores));
  EXPECT_DOUBLE_EQ(scores[2], 1.0);  // normalized max at the center
  EXPECT_GT(scores[2], scores[1]);
  EXPECT_GT(scores[1], scores[0]);
  EXPECT_DOUBLE_EQ(scores[0], 0.0);
}

TEST(Bc, StarCenterDominates) {
  AdjGraph g(6);
  for (NodeId leaf = 1; leaf < 6; ++leaf) {
    g.add_edge(0, leaf);
    g.add_edge(leaf, 0);
  }
  const auto scores = betweenness_centrality(g, {1, 2});
  EXPECT_TRUE(verify_bc(scores));
  EXPECT_DOUBLE_EQ(scores[0], 1.0);
  for (NodeId leaf = 3; leaf < 6; ++leaf) EXPECT_LT(scores[leaf], 1e-12);
}

TEST(Bc, RandomGraphInRange) {
  const auto stream = symmetrize(generate_rmat(300, 3000, 13));
  const AdjGraph g(stream);
  const auto scores = betweenness_centrality(g, max_degree_vertex(g));
  EXPECT_TRUE(verify_bc(scores));
}

class ThreadSweep : public ::testing::TestWithParam<int> {};

TEST_P(ThreadSweep, KernelsStableAcrossThreadCounts) {
  const int threads = GetParam();
  const auto stream = symmetrize(generate_rmat(400, 5000, 3));
  const AdjGraph g(stream);
  const par::ScopedKernelThreads scoped(threads);

  const NodeId source = max_degree_vertex(g);
  const auto parent = bfs(g, source);
  EXPECT_TRUE(verify_bfs(g, source, parent));
  const auto comp = connected_components(g);
  EXPECT_TRUE(verify_components(g, comp));
  const auto pr = pagerank(g);
  EXPECT_TRUE(verify_pagerank(pr));
  const auto bc = betweenness_centrality(g, source);
  EXPECT_TRUE(verify_bc(bc));
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadSweep, ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "T" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace dgap::algorithms
