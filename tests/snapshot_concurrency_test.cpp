// The epoch-versioned snapshot subsystem's concurrency contracts
// (src/core/snapshot.hpp):
//
//   * a snapshot held across a forced resize_and_rebuild no longer blocks
//     the resize (before the refactor the writer stalled on the reader
//     gate / the test deadlocked), and keeps reading the OLD consistent
//     cut while writers proceed;
//   * retired layout generations are reclaimed exactly when the last
//     snapshot referencing them is destroyed (epoch reclamation);
//   * use-after-close fails fast (std::logic_error) instead of UAF;
//   * lock-free snapshot reads stay exact through a resize/rebalance storm
//     driven from multiple writer threads;
//   * a read whose callback throws releases its reader-gate lane and DRAM
//     frame pin, so the next structural op still drains;
//   * block readers (Snapshot::Reader) that hold a lane across vertices
//     back off when structural ops are announced, and kernels reading
//     through them stay exact under a hub-vertex write flood.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/algorithms/bfs.hpp"
#include "src/algorithms/cc.hpp"
#include "src/algorithms/pagerank.hpp"
#include "src/core/dgap_store.hpp"
#include "src/graph/generators.hpp"
#include "src/sched/parallel.hpp"
#include "tests/watchdog.hpp"

namespace dgap::core {
namespace {

using pmem::PmemPool;

DgapOptions tiny_opts() {
  DgapOptions o;
  o.init_vertices = 64;
  o.init_edges = 512;  // small initial array: resizes come quickly
  return o;
}

std::map<NodeId, std::vector<NodeId>> freeze_contents(const Snapshot& s) {
  std::map<NodeId, std::vector<NodeId>> m;
  for (NodeId v = 0; v < s.num_nodes(); ++v)
    if (s.out_degree(v) > 0) m[v] = s.neighbors(v);
  return m;
}

TEST(SnapshotConcurrency, HeldSnapshotDoesNotBlockForcedResize) {
  auto pool = PmemPool::create({.path = "", .size = 64 << 20});
  auto store = DgapStore::create(*pool, tiny_opts());
  for (NodeId v = 0; v < 64; ++v) store->insert_edge(v, v + 1000);

  const Snapshot snap = store->consistent_view();
  const auto before = freeze_contents(snap);
  const std::uint64_t resizes_before = store->stats().resizes;

  // Writer floods the store with enough volume (new vertex ids included)
  // to force vertex-table growth and at least one whole-array resize, all
  // while `snap` is alive AND actively being read from another thread.
  // Pre-refactor this deadlocked: growth quiesced the reader gate the
  // snapshot held for its lifetime.
  std::atomic<bool> writer_done{false};
  std::thread reader([&] {
    while (!writer_done.load(std::memory_order_acquire)) {
      for (NodeId v = 0; v < 64; ++v) {
        std::uint64_t n = 0;
        snap.for_each_out(v, [&](NodeId) { ++n; });
        ASSERT_EQ(n, 1u);
      }
    }
  });
  const auto stream = generate_uniform(512, 30000, 7);
  for (const Edge& e : stream.edges()) store->insert_edge(e.src, e.dst);
  store->insert_vertex(5000);  // table growth under the held snapshot
  writer_done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_GT(store->stats().resizes, resizes_before);
  EXPECT_GT(store->num_nodes(), 5000);
  // The held snapshot still reads the old consistent cut.
  EXPECT_EQ(freeze_contents(snap), before);
  std::string why;
  EXPECT_TRUE(store->check_invariants(&why)) << why;
}

TEST(SnapshotConcurrency, RetiredLayoutReclaimedWhenLastSnapshotDies) {
  auto pool = PmemPool::create({.path = "", .size = 64 << 20});
  auto store = DgapStore::create(*pool, tiny_opts());
  store->insert_edge(1, 2);

  std::optional<Snapshot> snap(store->consistent_view());
  const std::uint64_t epoch_before = snap->layout_epoch();

  // Force at least one resize while the snapshot pins its generation.
  const auto stream = generate_uniform(256, 20000, 11);
  for (const Edge& e : stream.edges()) store->insert_edge(e.src, e.dst);
  ASSERT_GT(store->stats().resizes, 0u);
  ASSERT_GT(store->layout_epoch(), epoch_before);

  // Every pre-resize layout is retired but NOT freed: the snapshot pins
  // the generation it was captured against.
  EXPECT_GT(store->retired_layouts(), 0u);

  // Dropping the last snapshot reclaims every retired layout.
  snap.reset();
  EXPECT_EQ(store->retired_layouts(), 0u);
}

TEST(SnapshotConcurrency, SnapshotAfterStoreCloseFailsFast) {
  auto pool = PmemPool::create({.path = "", .size = 32 << 20});
  auto store = DgapStore::create(*pool, tiny_opts());
  store->insert_edge(3, 4);
  Snapshot snap = store->consistent_view();
  EXPECT_EQ(snap.neighbors(3), (std::vector<NodeId>{4}));

  store.reset();  // snapshot outlives the store

  // Degree metadata is snapshot-local and stays readable...
  EXPECT_EQ(snap.out_degree(3), 1);
  // ...but anything touching store memory throws instead of UAF.
  EXPECT_THROW((void)snap.neighbors(3), std::logic_error);
  EXPECT_THROW(snap.for_each_out(3, [](NodeId) {}), std::logic_error);
  // Destruction after close must not touch the dead store either
  // (release() is a no-op store-side); leaving scope exercises it.
}

TEST(SnapshotConcurrency, EmptySnapshotThrowsOnUse) {
  Snapshot empty;
  EXPECT_EQ(empty.num_nodes(), 0);
  EXPECT_THROW((void)empty.neighbors(0), std::logic_error);
}

TEST(SnapshotConcurrency, LayoutEpochAdvancesAcrossResize) {
  auto pool = PmemPool::create({.path = "", .size = 64 << 20});
  auto store = DgapStore::create(*pool, tiny_opts());
  store->insert_edge(0, 1);
  const Snapshot s1 = store->consistent_view();
  const auto stream = generate_uniform(256, 20000, 13);
  for (const Edge& e : stream.edges()) store->insert_edge(e.src, e.dst);
  ASSERT_GT(store->stats().resizes, 0u);
  const Snapshot s2 = store->consistent_view();
  EXPECT_GT(s2.layout_epoch(), s1.layout_epoch());
  EXPECT_NE(s2.capture_seq(), s1.capture_seq());
}

TEST(SnapshotConcurrency, ParallelFrozenReadersThroughResizeStorm) {
  auto pool = PmemPool::create({.path = "", .size = 128 << 20});
  DgapOptions o = tiny_opts();
  o.init_vertices = 128;
  o.max_writer_threads = 8;
  auto store = DgapStore::create(*pool, o);
  for (NodeId v = 0; v < 128; ++v) store->insert_edge(v, (v + 1) % 128);

  const Snapshot snap = store->consistent_view();
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> sweeps{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load() || sweeps.load() == 0) {
        for (NodeId v = 0; v < 128; ++v) {
          NodeId got = kInvalidNode;
          std::uint64_t n = 0;
          snap.for_each_out(v, [&](NodeId d) {
            ++n;
            got = d;
          });
          ASSERT_EQ(n, 1u);
          ASSERT_EQ(got, (v + 1) % 128);
        }
        sweeps.fetch_add(1);
      }
    });
  }
  // Two writers hammer inserts (growth + rebalances + resizes).
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      const auto stream = generate_uniform(1024, 15000, 100 + w);
      for (const Edge& e : stream.edges()) store->insert_edge(e.src, e.dst);
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_GT(sweeps.load(), 0u);
  EXPECT_GT(store->stats().resizes, 0u);
  std::string why;
  EXPECT_TRUE(store->check_invariants(&why)) << why;
}

TEST(SnapshotConcurrency, ThrowingCallbackReleasesLaneAndPin) {
  auto pool = PmemPool::create({.path = "", .size = 64 << 20});
  DgapOptions o = tiny_opts();
  o.dram_cache_bytes = 1 << 20;  // every section fits: reads pin frames
  auto store = DgapStore::create(*pool, o);
  for (NodeId v = 0; v < 64; ++v)
    for (NodeId k = 1; k <= 3; ++k) store->insert_edge(v, (v + k) % 64);
  const Snapshot snap = store->consistent_view();
  // Warm the DRAM tier so the throwing reads below are served from pinned
  // frames.
  for (int pass = 0; pass < 3; ++pass) (void)freeze_contents(snap);
  const std::uint64_t hits_before = store->cache_stats().hits;

  struct Boom {};
  const auto boom = [](auto&&...) -> bool { throw Boom{}; };
  EXPECT_THROW(snap.for_each_out(5, boom), Boom);
  EXPECT_THROW(snap.for_each_slot_from(6, 0, boom), Boom);
  EXPECT_THROW(
      {
        Snapshot::Reader rd = snap.reader();
        rd.for_each_out(7, [](NodeId) {});
        rd.for_each_out(8, boom);
      },
      Boom);
  EXPECT_GT(store->cache_stats().hits, hits_before);
  // Fail here rather than hang below: a leaked lane makes every later
  // structural op drain forever, a leaked pin stalls frame invalidation.
  ASSERT_EQ(store->debug_reader_lanes_held(), 0);
  ASSERT_EQ(store->debug_cache_pins(), 0u);

  const std::uint64_t resizes_before = store->stats().resizes;
  const auto stream = generate_uniform(512, 30000, 17);
  for (const Edge& e : stream.edges()) store->insert_edge(e.src, e.dst);
  EXPECT_GT(store->stats().resizes, resizes_before);
  EXPECT_EQ(snap.neighbors(5), (std::vector<NodeId>{6, 7, 8}));
}

TEST(SnapshotConcurrency, BlockReadersBackOffUnderHubFlood) {
  // A reader that fails to back off deadlocks a structural op.
  const tests::Watchdog dog(std::chrono::seconds(240));
  auto pool = PmemPool::create({.path = "", .size = 256 << 20});
  DgapOptions o = tiny_opts();
  o.init_vertices = 256;
  o.max_writer_threads = 8;
  auto store = DgapStore::create(*pool, o);
  const auto base = symmetrize(generate_rmat(256, 1500, 21));
  for (const Edge& e : base.edges()) store->insert_edge(e.src, e.dst);

  const Snapshot snap = store->consistent_view();
  const par::ScopedKernelThreads one(1);  // each analysis thread reads alone
  const NodeId source = algorithms::max_degree_vertex(snap);
  // The cut's answers, read before any writer runs.
  const auto want_pr = algorithms::pagerank(snap);
  const auto want_cc = algorithms::connected_components(snap);
  const auto want_bfs = algorithms::bfs(snap, source);

  const std::uint64_t rebalances_before = store->stats().rebalances;
  const std::uint64_t resizes_before = store->stats().resizes;
  const std::uint64_t retries_before = store->stats().snapshot_read_retries;
  std::atomic<bool> writers_done{false};
  std::vector<std::thread> analysts;
  for (int a = 0; a < 2; ++a) {
    analysts.emplace_back([&] {
      int rounds = 0;
      while (!writers_done.load(std::memory_order_acquire) || rounds == 0) {
        EXPECT_EQ(algorithms::pagerank(snap), want_pr);
        EXPECT_EQ(algorithms::connected_components(snap), want_cc);
        EXPECT_EQ(algorithms::bfs(snap, source), want_bfs);
        ++rounds;
      }
    });
  }
  // Two writers pile edges onto eight hub vertices (window rebalances
  // around the hubs) with destinations spread over fresh ids (table growth
  // and whole-array resizes).
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      const auto stream = generate_uniform(4096, 4000, 300 + w);
      for (const Edge& e : stream.edges())
        store->insert_edge(e.src % 8, e.dst);
    });
  }
  for (auto& t : writers) t.join();
  writers_done.store(true, std::memory_order_release);
  for (auto& t : analysts) t.join();

  EXPECT_GT(store->stats().rebalances, rebalances_before);
  EXPECT_GT(store->stats().resizes, resizes_before);
  EXPECT_GT(store->stats().snapshot_read_retries, retries_before)
      << "no held reader lane ever backed off for a structural op";
  EXPECT_EQ(store->debug_reader_lanes_held(), 0);
  std::string why;
  EXPECT_TRUE(store->check_invariants(&why)) << why;
}

}  // namespace
}  // namespace dgap::core
