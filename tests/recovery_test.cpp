// Recovery-path unit tests beyond the crash sweeps: shutdown-image
// lifecycle, scan reconstruction details (consumed entries, vertex count
// ahead of the root counter), and churn workloads across
// shutdown/crash/reopen generations.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>

#include "src/core/dgap_store.hpp"
#include "src/graph/adj_graph.hpp"
#include "src/graph/generators.hpp"
#include "src/pmem/alloc.hpp"

namespace dgap::core {
namespace {

using pmem::PmemPool;

DgapOptions small_opts() {
  DgapOptions o;
  o.init_vertices = 48;
  o.init_edges = 256;
  o.segment_slots = 32;
  o.elog_bytes = 144;
  o.ulog_bytes = 256;
  o.max_writer_threads = 2;
  return o;
}

std::string temp_pool(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("dgap_rec_" + tag + "_" + std::to_string(::getpid()) + ".pool"))
      .string();
}

void expect_equal(const DgapStore& store, const AdjGraph& oracle) {
  const Snapshot snap = store.consistent_view();
  for (NodeId v = 0; v < oracle.num_nodes(); ++v) {
    auto got = snap.neighbors(v);
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, oracle.sorted_neigh(v)) << "vertex " << v;
  }
}

TEST(Recovery, ShutdownImageInvalidatedAfterUse) {
  const std::string path = temp_pool("imginv");
  std::filesystem::remove(path);
  {
    auto pool = PmemPool::create({.path = path, .size = 32 << 20});
    auto store = DgapStore::create(*pool, small_opts());
    store->insert_edge(1, 2);
    store->shutdown();
  }
  {
    // Normal reopen consumes the image, then crashes (no shutdown): the
    // next open must NOT reuse the now-stale image.
    auto pool = PmemPool::open({.path = path});
    auto store = DgapStore::open(*pool, small_opts());
    store->insert_edge(3, 4);
    // no shutdown: simulated crash at process exit
  }
  {
    auto pool = PmemPool::open({.path = path});
    EXPECT_FALSE(pool->was_clean_shutdown());
    auto store = DgapStore::open(*pool, small_opts());
    const Snapshot snap = store->consistent_view();
    EXPECT_EQ(snap.neighbors(1), (std::vector<NodeId>{2}));
    EXPECT_EQ(snap.neighbors(3), (std::vector<NodeId>{4}));  // from the scan
    std::string why;
    EXPECT_TRUE(store->check_invariants(&why)) << why;
  }
  std::filesystem::remove(path);
}

TEST(Recovery, RepeatedShutdownCyclesReuseImageBlock) {
  const std::string path = temp_pool("cycles");
  std::filesystem::remove(path);
  AdjGraph oracle(48);
  {
    auto pool = PmemPool::create({.path = path, .size = 64 << 20});
    auto store = DgapStore::create(*pool, small_opts());
    store->shutdown();
  }
  for (int gen = 0; gen < 5; ++gen) {
    auto pool = PmemPool::open({.path = path});
    ASSERT_TRUE(pool->was_clean_shutdown()) << "gen " << gen;
    auto store = DgapStore::open(*pool, small_opts());
    const auto stream = generate_uniform(48, 300, 100 + gen);
    for (const Edge& e : stream.edges()) {
      store->insert_edge(e.src, e.dst);
      oracle.add_edge(e.src, e.dst);
    }
    expect_equal(*store, oracle);
    store->shutdown();
  }
  std::filesystem::remove(path);
}

TEST(Recovery, ShutdownImageBlockKeptAcrossOpen) {
  // open() invalidates the image (a crash after it must not resurrect a
  // stale one) but keeps its block, so every later shutdown rewrites that
  // block: restarts do not grow the pool. A crashed generation in the
  // middle takes the scan path and must keep the block too.
  const std::string path = temp_pool("imgblock");
  std::filesystem::remove(path);
  AdjGraph oracle(48);
  {
    auto pool = PmemPool::create({.path = path, .size = 64 << 20});
    auto store = DgapStore::create(*pool, small_opts());
    const auto stream = generate_uniform(48, 300, 7);
    for (const Edge& e : stream.edges()) {
      store->insert_edge(e.src, e.dst);
      oracle.add_edge(e.src, e.dst);
    }
    store->shutdown();
  }
  std::uint64_t first = 0;
  for (int cycle = 0; cycle < 20; ++cycle) {
    auto pool = PmemPool::open({.path = path});
    auto store = DgapStore::open(*pool, small_opts());
    if (cycle == 10) continue;  // no shutdown: the next open recovers
    store->shutdown();
    const std::uint64_t used = pool->allocator().used_bytes();
    if (cycle == 0)
      first = used;
    else
      ASSERT_EQ(used, first) << "pool grew at cycle " << cycle;
  }
  auto pool = PmemPool::open({.path = path});
  auto store = DgapStore::open(*pool, small_opts());
  expect_equal(*store, oracle);
  store.reset();
  pool.reset();
  std::filesystem::remove(path);
}

TEST(Recovery, ScanSkipsConsumedElogEntries) {
  // Force merges so elog entries get consumed, crash before the idle state
  // sweep can be guaranteed clean, and verify the scan never double-counts.
  auto pool = PmemPool::create({.path = "", .size = 16 << 20,
                                .shadow = true});
  DgapOptions o = small_opts();
  o.elog_bytes = 96;  // 8 entries: constant merging
  auto store = DgapStore::create(*pool, o);
  AdjGraph oracle(48);
  const auto stream = symmetrize(generate_rmat(48, 600, 5));
  for (const Edge& e : stream.edges()) {
    store->insert_edge(e.src, e.dst);
    oracle.add_edge(e.src, e.dst);
  }
  EXPECT_GT(store->stats().merges, 0u);
  store.reset();
  pool->simulate_crash();  // drop volatile state mid-life
  auto recovered = DgapStore::open(*pool, o);
  std::string why;
  ASSERT_TRUE(recovered->check_invariants(&why)) << why;
  expect_equal(*recovered, oracle);
}

TEST(Recovery, VertexCountRecoveredPastRootCounter) {
  // A pivot can be durable before the root vertex counter update; recovery
  // derives the count from the scan. Simulate by crashing right around
  // vertex growth.
  auto pool = PmemPool::create({.path = "", .size = 16 << 20,
                                .shadow = true});
  auto store = DgapStore::create(*pool, small_opts());
  store->insert_edge(1, 2);
  // Crash during an insert that grows the vertex set: sweep several points.
  for (const std::uint64_t at : {1u, 2u, 3u, 5u, 8u}) {
    pool->arm_crash_after(at);
    try {
      store->insert_edge(60, 61);  // beyond the initial 48 vertices
      pool->disarm_crash();
      break;  // insert completed before the crash point
    } catch (const PmemPool::CrashInjected&) {
      pool->disarm_crash();
      store.reset();
      pool->simulate_crash();
      store = DgapStore::open(*pool, small_opts());
      std::string why;
      ASSERT_TRUE(store->check_invariants(&why)) << why << " at " << at;
      ASSERT_GE(store->num_nodes(), 48);
    }
  }
  // Whatever happened, the store remains usable and consistent.
  store->insert_edge(62, 63);
  std::string why;
  ASSERT_TRUE(store->check_invariants(&why)) << why;
  const Snapshot snap = store->consistent_view();
  EXPECT_EQ(snap.neighbors(62), (std::vector<NodeId>{63}));
}

TEST(Recovery, ChurnAcrossMixedGenerations) {
  // Alternate clean shutdowns and crashes across generations of a churn
  // workload with deletions; the oracle tracks acknowledged operations.
  const std::string path = temp_pool("churn");
  std::filesystem::remove(path);
  AdjGraph oracle(48);
  {
    auto pool = PmemPool::create({.path = path, .size = 64 << 20});
    auto store = DgapStore::create(*pool, small_opts());
    store->shutdown();
  }
  for (int gen = 0; gen < 4; ++gen) {
    auto pool = PmemPool::open({.path = path});
    auto store = DgapStore::open(*pool, small_opts());
    const auto stream = symmetrize(generate_rmat(48, 250, 40 + gen));
    std::size_t i = 0;
    for (const Edge& e : stream.edges()) {
      store->insert_edge(e.src, e.dst);
      oracle.add_edge(e.src, e.dst);
      if (++i % 5 == 0) {
        store->delete_edge(e.src, e.dst);
        oracle.remove_edge(e.src, e.dst);
      }
    }
    expect_equal(*store, oracle);
    if (gen % 2 == 0) store->shutdown();  // odd gens "crash" (no shutdown)
  }
  {
    auto pool = PmemPool::open({.path = path});
    auto store = DgapStore::open(*pool, small_opts());
    std::string why;
    ASSERT_TRUE(store->check_invariants(&why)) << why;
    expect_equal(*store, oracle);
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace dgap::core
