// Snapshot semantics: move-only lifetime (generation pinning), multiple
// concurrent snapshots at different times, early-exit iteration, and the
// interaction between snapshots and vertex-table growth (which a held
// snapshot must NOT block — the epoch-versioned read path replaced the old
// reader gate), and read-path equivalence: kernels give the same answers
// through block readers, per-vertex reads and a SnapshotCsr of the cut.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <thread>

#include "src/algorithms/bc.hpp"
#include "src/algorithms/bfs.hpp"
#include "src/algorithms/cc.hpp"
#include "src/algorithms/pagerank.hpp"
#include "src/core/dgap_store.hpp"
#include "src/graph/generators.hpp"
#include "src/sched/parallel.hpp"

namespace dgap::core {
namespace {

using pmem::PmemPool;

struct SnapFixture : ::testing::Test {
  void SetUp() override {
    pool = PmemPool::create({.path = "", .size = 32 << 20});
    DgapOptions o;
    o.init_vertices = 64;
    o.init_edges = 1024;
    store = DgapStore::create(*pool, o);
  }
  std::unique_ptr<PmemPool> pool;
  std::unique_ptr<DgapStore> store;
};

TEST_F(SnapFixture, MultipleSnapshotsSeeDifferentTimes) {
  store->insert_edge(1, 10);
  const Snapshot s1 = store->consistent_view();
  store->insert_edge(1, 11);
  const Snapshot s2 = store->consistent_view();
  store->insert_edge(1, 12);
  const Snapshot s3 = store->consistent_view();
  EXPECT_EQ(s1.out_degree(1), 1);
  EXPECT_EQ(s2.out_degree(1), 2);
  EXPECT_EQ(s3.out_degree(1), 3);
  EXPECT_EQ(s1.neighbors(1), (std::vector<NodeId>{10}));
  EXPECT_EQ(s2.neighbors(1), (std::vector<NodeId>{10, 11}));
  EXPECT_EQ(s3.neighbors(1), (std::vector<NodeId>{10, 11, 12}));
}

TEST_F(SnapFixture, MoveTransfersPinOwnership) {
  store->insert_edge(2, 3);
  Snapshot a = store->consistent_view();
  Snapshot b = std::move(a);
  EXPECT_EQ(b.out_degree(2), 1);
  Snapshot c;
  c = std::move(b);
  EXPECT_EQ(c.out_degree(2), 1);
  EXPECT_EQ(c.neighbors(2), (std::vector<NodeId>{3}));
  // a and b are moved-from; destruction must not double-drop the
  // generation pin (a leaked negative pin count would wedge layout
  // reclamation). Growth and further snapshots must keep working.
  c = Snapshot{};
  store->insert_edge(3000, 5);  // forces vertex-table growth
  EXPECT_GT(store->num_nodes(), 3000);
  EXPECT_EQ(store->retired_layouts(), 0u);
}

TEST_F(SnapFixture, TotalEdgesMatchesSum) {
  const auto stream = generate_uniform(64, 2000, 12);
  for (const Edge& e : stream.edges()) store->insert_edge(e.src, e.dst);
  const Snapshot s = store->consistent_view();
  std::uint64_t sum = 0;
  for (NodeId v = 0; v < s.num_nodes(); ++v)
    sum += static_cast<std::uint64_t>(s.out_degree(v));
  EXPECT_EQ(sum, 2000u);
  EXPECT_EQ(s.num_edges_directed(), 2000u);
}

TEST_F(SnapFixture, EarlyExitIteration) {
  for (NodeId d = 0; d < 20; ++d) store->insert_edge(5, d + 30);
  const Snapshot s = store->consistent_view();
  int visited = 0;
  s.for_each_out(5, [&](NodeId) -> bool { return ++visited == 3; });
  EXPECT_EQ(visited, 3);
  // Early exit with tombstones present uses the exact path but still stops.
  store->insert_edge(6, 1);
  store->insert_edge(6, 2);
  store->delete_edge(6, 1);
  const Snapshot s2 = store->consistent_view();
  visited = 0;
  s2.for_each_out(6, [&](NodeId) -> bool {
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, 1);
}

TEST_F(SnapFixture, SnapshotDoesNotBlockVertexGrowth) {
  // Before the epoch-versioned refactor a held snapshot pinned the reader
  // gate, so vertex-table growth (and with it any flood ingest minting new
  // ids) stalled until the snapshot died. Now growth proceeds under a held
  // snapshot — and the frozen view stays frozen.
  store->insert_edge(1, 2);
  std::optional<Snapshot> snap(store->consistent_view());
  std::atomic<bool> grew{false};
  std::thread grower([&] {
    store->insert_vertex(3000);  // needs table growth: must NOT wait
    grew = true;
  });
  grower.join();  // completes while `snap` is still alive
  EXPECT_TRUE(grew.load());
  EXPECT_GT(store->num_nodes(), 3000);
  EXPECT_EQ(snap->num_nodes(), 64);  // frozen pre-growth view
  EXPECT_EQ(snap->neighbors(1), (std::vector<NodeId>{2}));
  snap.reset();
}

TEST_F(SnapFixture, ReadsOfGrownVerticesAfterSnapshot) {
  store->insert_edge(1, 2);
  const Snapshot before = store->consistent_view();
  EXPECT_EQ(before.num_nodes(), 64);
  store->insert_edge(63, 40);  // existing id: fine during snapshot
  const Snapshot after = store->consistent_view();
  EXPECT_EQ(after.out_degree(63), 1);
  EXPECT_EQ(before.out_degree(63), 0);
}

// A Snapshot without reader(): kernels reading it take the one-vertex
// Snapshot::for_each_out path for every vertex.
struct PerVertexView {
  const Snapshot& snap;
  [[nodiscard]] NodeId num_nodes() const { return snap.num_nodes(); }
  [[nodiscard]] std::int64_t out_degree(NodeId v) const {
    return snap.out_degree(v);
  }
  [[nodiscard]] std::uint64_t num_edges_directed() const {
    return snap.num_edges_directed();
  }
  template <typename F>
  void for_each_out(NodeId v, F&& fn) const {
    snap.for_each_out(v, std::forward<F>(fn));
  }
};

struct KernelAnswers {
  std::vector<double> pr;
  std::vector<NodeId> cc;
  std::vector<int> bfs_depth;
  std::vector<double> bc;
};

// BFS parents may differ between equally short trees; depths may not.
// -1 marks unreached vertices.
std::vector<int> depths_from_parents(const std::vector<NodeId>& parent) {
  constexpr int kUnknown = -2;
  std::vector<int> depth(parent.size(), kUnknown);
  for (std::size_t v = 0; v < parent.size(); ++v) {
    if (parent[v] < 0) depth[v] = -1;
    if (parent[v] == static_cast<NodeId>(v)) depth[v] = 0;
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t v = 0; v < parent.size(); ++v) {
      if (depth[v] != kUnknown || depth[parent[v]] < 0) continue;
      depth[v] = depth[parent[v]] + 1;
      changed = true;
    }
  }
  return depth;
}

template <typename G>
KernelAnswers run_kernels(const G& g, NodeId source) {
  KernelAnswers k;
  k.pr = algorithms::pagerank(g);
  k.cc = algorithms::connected_components(g);
  k.bfs_depth = depths_from_parents(algorithms::bfs(g, source));
  k.bc = algorithms::betweenness_centrality(
      g, std::vector<NodeId>{source, static_cast<NodeId>(0)});
  return k;
}

void expect_same(const KernelAnswers& got, const KernelAnswers& want,
                 const std::string& tag) {
  EXPECT_EQ(got.pr, want.pr) << tag;
  EXPECT_EQ(got.cc, want.cc) << tag;
  EXPECT_EQ(got.bfs_depth, want.bfs_depth) << tag;
  ASSERT_EQ(got.bc.size(), want.bc.size()) << tag;
  for (std::size_t v = 0; v < got.bc.size(); ++v)
    ASSERT_NEAR(got.bc[v], want.bc[v], 1e-9) << tag << " vertex " << v;
}

// Kernels over one cut, read three ways (block readers, per-vertex reads,
// a SnapshotCsr), at 1 and 2 kernel threads: every answer must agree with
// the single-threaded CSR run.
void expect_reader_equivalence(const DgapStore& store,
                               const std::string& tag) {
  const Snapshot snap = store.consistent_view();
  const SnapshotCsr csr = SnapshotCsr::build(snap);
  const NodeId source = algorithms::max_degree_vertex(snap);
  KernelAnswers want;
  {
    const par::ScopedKernelThreads one(1);
    want = run_kernels(csr, source);
  }
  for (const int threads : {1, 2}) {
    const par::ScopedKernelThreads scoped(threads);
    const std::string t = tag + " T" + std::to_string(threads);
    expect_same(run_kernels(snap, source), want, t + " reader");
    expect_same(run_kernels(PerVertexView{snap}, source), want,
                t + " per-vertex");
    expect_same(run_kernels(csr, source), want, t + " csr");
  }
}

struct ReaderCase {
  const char* name;
  std::function<void(DgapOptions&)> tune;
  bool deletes = false;
};

class ReaderEquivalence : public ::testing::TestWithParam<ReaderCase> {};

TEST_P(ReaderEquivalence, KernelsAgreeAcrossReadPaths) {
  const ReaderCase& c = GetParam();
  const std::string cold_path =
      (std::filesystem::temp_directory_path() /
       ("dgap_reader_eq_" + std::to_string(::getpid())))
          .string();
  DgapOptions o;
  o.init_vertices = 64;
  o.init_edges = 1024;
  o.cold_tier_path = cold_path;
  c.tune(o);
  {
    auto pool = PmemPool::create({.path = "", .size = 64 << 20});
    auto store = DgapStore::create(*pool, o);
    const auto stream = symmetrize(generate_rmat(600, 5000, 31));
    for (const Edge& e : stream.edges()) store->insert_edge(e.src, e.dst);
    if (c.deletes) {
      // Drop every 7th pair in both directions: tombstoned vertices take
      // the exact cancelling path.
      const auto& edges = stream.edges();
      for (std::size_t i = 0; i < edges.size(); i += 14) {
        store->delete_edge(edges[i].src, edges[i].dst);
        store->delete_edge(edges[i].dst, edges[i].src);
      }
    }
    if (o.cold_tier) {
      store->debug_cold_demote_all();
      ASSERT_GT(store->cold_stats().cold_sections, 0u);
    }
    expect_reader_equivalence(*store, c.name);
    EXPECT_GT(store->stats().elog_inserts, 0u);
    if (o.dram_cache_bytes != 0) {
      EXPECT_GT(store->cache_stats().hits, 0u);
    }
    if (o.cold_tier) {
      EXPECT_GT(store->cold_stats().cold_reads, 0u);
    }
    EXPECT_EQ(store->debug_reader_lanes_held(), 0);
  }
  std::error_code ec;
  std::filesystem::remove(cold_path, ec);
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, ReaderEquivalence,
    ::testing::Values(
        ReaderCase{"insert_only", [](DgapOptions&) {}},
        ReaderCase{"deletions", [](DgapOptions&) {}, true},
        ReaderCase{"small_elog",
                   [](DgapOptions& o) {
                     o.segment_slots = 32;
                     o.elog_bytes = 144;
                   }},
        ReaderCase{"dram_cache",
                   [](DgapOptions& o) { o.dram_cache_bytes = 1 << 20; }},
        ReaderCase{"cold_tier",
                   [](DgapOptions& o) {
                     o.segment_slots = 64;
                     o.elog_bytes = 256;
                     o.cold_tier = true;
                   }}),
    [](const ::testing::TestParamInfo<ReaderCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace dgap::core
