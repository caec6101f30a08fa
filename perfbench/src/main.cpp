// perfbench: end-to-end and per-layer benchmark of the DGAP store.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR
//             [--part K]
//
// One process of one run (run.py starts several in turn and pools their
// samples). Every workload drives the same pipeline through the program's
// public calls only, on its own input: one of the repository's dataset
// stand-ins (src/graph/datasets.hpp) whose insertion order comes from --seed.
//
//   setup     generate + symmetrize + shuffle the stream, preload it
//   insert    per-edge inserts into a fresh store (10% warm-up, 90% timed)
//   batch     the same stream through insert_batch
//   async     the same stream flooded through an AsyncIngestor
//   restart   normal shutdown + reopen of a file-backed pool
//   recover   crash of a shadow pool after acknowledged batches + recovery
//   htap      open-loop batches at a fixed rate while this thread runs
//             freeze + snapshot_delta + incremental PR/CC rounds
//   kernels   PR, CC, BFS, BC single-threaded on a quiescent snapshot,
//             each pass paired with the same kernel of reference.hpp
//
// Every timed round of a round-based phase (htap rounds, kernel passes) is
// divided by a pass of the serial reference computation on the plain
// adjacency list, run right after it: the reference is the benchmark's own
// code, so a slower program raises the ratio while host speed, which
// drifts over seconds on a shared VM, cancels out of it.
//
// The process runs kLaps laps and every lap runs a slice of every phase, so
// slow and fast stretches of the host fall on every phase alike. Outputs
// are checked against reference.hpp. Each phase announces itself on stderr
// (run.py names the last one when it kills a hung process). The last stdout
// line is JSON for run.py: every end-to-end sample, and this process's
// per-layer figures.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "reference.hpp"
#include "src/algorithms/bc.hpp"
#include "src/algorithms/bfs.hpp"
#include "src/algorithms/cc.hpp"
#include "src/algorithms/incremental/cc_incr.hpp"
#include "src/algorithms/incremental/delta_mirror.hpp"
#include "src/algorithms/incremental/pagerank_incr.hpp"
#include "src/algorithms/pagerank.hpp"
#include "src/common/rng.hpp"
#include "src/common/timer.hpp"
#include "src/core/dgap_store.hpp"
#include "src/core/snapshot.hpp"
#include "src/core/snapshot_delta.hpp"
#include "src/graph/datasets.hpp"
#include "src/ingest/async_ingestor.hpp"
#include "src/pmem/latency_model.hpp"
#include "src/pmem/pool.hpp"
#include "src/pmem/stats.hpp"
#include "src/sched/parallel.hpp"
#include "src/sched/task_scheduler.hpp"
#include "trace.hpp"

namespace pb = perfbench;
using dgap::Edge;
using dgap::EdgeStream;
using dgap::NodeId;
using dgap::core::DgapStore;
using Clock = std::chrono::steady_clock;

namespace {

// --- workloads ----------------------------------------------------------------

// A workload is a dataset stand-in of src/graph/datasets.hpp at a scale.
struct Workload {
  const char* name;  // the dataset_spec key
  double scale;
};

constexpr Workload kWorkloads[] = {
    // R-MAT, average degree 76: hub vertices, window rebalances.
    {"orkut", 0.1},
    // Uniform, average degree 5.5: per-vertex read cost dominates.
    {"citpatents", 0.4},
};

constexpr int kLaps = 4;
constexpr int kDurableCycles = 3;  // restarts and crash recoveries per lap
constexpr std::size_t kBatch = 256;          // insert_batch / async flood size
constexpr std::size_t kTraceChunk = 4096;    // per-edge calls per span
// Writer (undo-log) slots: the program binds one to every distinct thread
// that ever writes a store and never releases it, and absorber tasks move
// between scheduler workers and assisting threads. 16 covers every thread
// this process can run (README, fault F1).
constexpr std::uint32_t kWriterSlots = 16;
constexpr std::size_t kAbsorbers = 2;
constexpr std::size_t kSchedWorkers = 2;
constexpr std::uint64_t kPoolMb = 64;
// htap: open loop, kHtapBatchesPerLap batches of kHtapBatch edges per lap
// at kHtapRate batches/s (12,800 edges/s, under 1% of what the async flood
// absorbs), analysis rounds every kHtapRoundSec.
constexpr std::size_t kHtapBatch = 8;
constexpr std::size_t kHtapBatchesPerLap = 1000;
constexpr double kHtapRate = 1600;
constexpr double kHtapRoundSec = 0.1;
constexpr std::size_t kHtapBody = kHtapBatch * kHtapBatchesPerLap * kLaps;
constexpr double kTierBudgetFraction = 0.5;  // of the loaded footprint
constexpr std::uint32_t kTierCacheMb = 2;
constexpr std::uint64_t kTierReadNsPerLine = 60;  // fig7 --dram-cache charge
constexpr int kPrIterations = 20;
constexpr double kPrTolerance = 1e-9;  // max |score - reference| per vertex
constexpr double kBcTolerance = 1e-9;  // scores are normalised to [0, 1]
constexpr int kBfsSources = 8;
constexpr int kBcSources = 4;
const dgap::algorithms::IncrementalPageRankParams kIncrPr{
    .damping = 0.85, .tolerance = 1e-6, .max_iterations = 100};
const dgap::algorithms::PageRankParams kPr{.iterations = kPrIterations};

// Share of each lap (--seconds / kLaps) the time-filled slices repeat
// whole rounds for; the htap slice is fixed at kHtapBatchesPerLap /
// kHtapRate seconds and restart/recover run kDurableCycles cycles per lap.
constexpr double kShareInsert = 0.16;
constexpr double kShareBatch = 0.10;
constexpr double kShareAsync = 0.10;
constexpr double kShareKernels = 0.30;

// --- small helpers ------------------------------------------------------------

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// Linear interpolation between closest ranks.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// Keeps the compiler from dropping a computation whose result is unused
// (the reference kernels are inline and free of side effects).
template <typename T>
void keep(const std::vector<T>& v) {
  asm volatile("" : : "r"(v.data()) : "memory");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// The phase running now, announced on stderr: a hung process (fault F2 in
// README) is killed by run.py, which names the phase from its last line.
const char* g_phase = "start";
void phase(const char* name) {
  g_phase = name;
  std::cerr << "perfbench: phase " << name << std::endl;
}

// --- run context ----------------------------------------------------------------

struct Metric {
  double value;
  std::string unit;
};

struct Run {
  const Workload* w = nullptr;
  std::uint64_t seed = 1;
  int part = 0;  // which of run.py's processes this is
  double seconds = 24;
  bool trace = false;
  std::string scratch;

  pb::Tracer* tracer = nullptr;
  EdgeStream stream;
  std::unique_ptr<pb::ref::Adjacency> ref;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t async_reordered = 0;  // see check_graph
  bool correct = true;
  std::map<std::string, Metric> layer;
  // Samples of the end-to-end metrics (one per timed round, pass pair,
  // cycle or setup); run.py pools them across processes into medians.
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, std::string> sample_units;

  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    std::cerr << "perfbench: CHECK FAILED [" << w->name << "]: " << what
              << "\n";
  }
  void put_sample(const std::string& k, double v, const char* unit) {
    samples[k].push_back(v);
    sample_units[k] = unit;
  }
  void put_layer(const std::string& k, double v, const char* unit) {
    layer[k] = {v, unit};
  }
  [[nodiscard]] double lap_budget(double share) const {
    return share * seconds / kLaps;
  }
  [[nodiscard]] std::size_t edges() const { return stream.num_edges(); }
};

// The graph of a workload is the repository's dataset stand-in, generated
// from the dataset's own seed, as every bench in bench/ loads it. --seed
// drives the insertion order (the paper shuffles a fixed graph into a
// random insertion order, §4.1). Kernel work depends on the graph itself
// (CC hook rounds, BFS direction switches), and on five generator seeds it
// varied the CC time by 1.6x; a fixed graph keeps the seeds from measuring
// different work. For the same reason the last kHtapBody edges, which the
// htap phase streams, are the same edge set in every run (the dataset's
// own last edges) in a seeded order: the edges that arrive decide how many
// sweeps an incremental PageRank round needs (6 to 37 on orkut).
EdgeStream generate(const Workload& w, std::uint64_t seed) {
  const EdgeStream d =
      dgap::load_dataset(dgap::dataset_spec(w.name), w.scale);
  if (d.num_edges() <= kHtapBody)
    throw std::logic_error("htap body exceeds stream");
  const auto shuffled = [&](std::size_t b, std::size_t e, std::uint64_t salt) {
    EdgeStream part(d.num_vertices(), {d.edges().begin() + b,
                                       d.edges().begin() + e});
    part.shuffle(seed * 0x9E3779B97F4A7C15ull + salt);
    return std::move(part.edges());
  };
  const std::size_t split = d.num_edges() - kHtapBody;
  std::vector<Edge> edges = shuffled(0, split, 17);
  const std::vector<Edge> body = shuffled(split, d.num_edges(), 29);
  edges.insert(edges.end(), body.begin(), body.end());
  return {d.num_vertices(), std::move(edges)};
}

// The seed of an insertion order one phase of one process uses: drawn from
// --seed and the part, so the parts of a run time different orders.
std::uint64_t order_seed(const Run& r, std::uint64_t salt) {
  return (r.seed * 1000003 + static_cast<std::uint64_t>(r.part)) * 1009 + salt;
}

dgap::core::DgapOptions store_options(const Run& r) {
  dgap::core::DgapOptions o;
  o.init_vertices = r.stream.num_vertices();
  o.init_edges = r.edges();
  o.max_writer_threads = kWriterSlots;
  return o;
}

// A store and the pool under it. close() ends the store before the pool it
// lives in (a plain `= {}` would reset the members in declaration order).
struct Store {
  std::unique_ptr<dgap::pmem::PmemPool> pool;
  std::unique_ptr<DgapStore> store;
  dgap::core::DgapOptions opts;

  void close() {
    store.reset();
    pool.reset();
  }
};

Store fresh_store(Run& r, bool shadow = false) {
  Store s;
  s.opts = store_options(r);
  {
    pb::Tracer::Scope sc(*r.tracer, "pmem.pool_create");
    s.pool = dgap::pmem::PmemPool::create(
        {.path = "", .size = kPoolMb << 20, .shadow = shadow});
  }
  pb::Tracer::Scope sc(*r.tracer, "core.create");
  s.store = DgapStore::create(*s.pool, s.opts);
  return s;
}

// Compares the store's adjacency with the reference, vertex by vertex.
// Content (the multiset of neighbours) must always match. The order must be
// chronological (the reference's insertion order) except where the store
// was fed by an AsyncIngestor: its per-source FIFO promise fails now and
// then (README, fault F3), so there out-of-order vertices are counted in
// `reordered` and reported per layer instead of failing the run.
struct GraphDiff {
  std::string why;  // first content difference; empty when content matches
  std::uint64_t reordered = 0;  // vertices with the right neighbours in
                                // another order
};

template <typename View>
GraphDiff diff_graph(const View& g, const pb::ref::Adjacency& ref) {
  GraphDiff d;
  if (g.num_nodes() != ref.n()) {
    d.why = "num_nodes " + std::to_string(g.num_nodes()) + " vs " +
            std::to_string(ref.n());
    return d;
  }
  std::vector<NodeId> got;
  std::vector<NodeId> want;
  for (NodeId v = 0; v < ref.n(); ++v) {
    got.clear();
    g.for_each_out(v, [&](NodeId x) { got.push_back(x); });
    const auto expect = ref.out(static_cast<std::size_t>(v));
    if (std::ranges::equal(got, expect)) continue;
    want.assign(expect.begin(), expect.end());
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    if (got == want) {
      ++d.reordered;
      continue;
    }
    d.why = "neighbours of vertex " + std::to_string(v) + " differ (" +
            std::to_string(got.size()) + " vs " +
            std::to_string(expect.size()) + " edges)";
    return d;
  }
  return d;
}

enum class Order { exact, async_fed };

// `ref` defaults to the run's stream in its insertion order.
void check_graph(Run& r, const DgapStore& store, const char* where,
                 Order order = Order::exact,
                 const pb::ref::Adjacency* ref = nullptr) {
  const GraphDiff d =
      diff_graph(store.consistent_view(), ref != nullptr ? *ref : *r.ref);
  r.check(d.why.empty(), std::string(where) + ": " + d.why);
  if (order == Order::async_fed) {
    r.async_reordered += d.reordered;
    if (d.reordered != 0)
      std::cerr << "perfbench: " << where << ": " << d.reordered
                << " vertices out of submission order (fault F3)\n";
  } else
    r.check(d.reordered == 0, std::string(where) + ": " +
                                  std::to_string(d.reordered) +
                                  " vertices hold their neighbours out of "
                                  "insertion order");
}

void load_batches(Run& r, DgapStore& store, std::span<const Edge> edges) {
  for (std::size_t i = 0; i < edges.size(); i += kBatch) {
    pb::Tracer::Scope s(*r.tracer, "core.insert_batch");
    store.insert_batch(edges.subspan(i, std::min(kBatch, edges.size() - i)));
    ++r.attempted;
  }
}

void per_edge_insert(Run& r, DgapStore& s, std::span<const Edge> edges) {
  for (std::size_t i = 0; i < edges.size(); i += kTraceChunk) {
    pb::Tracer::Scope sc(*r.tracer, "core.insert_edge_x4096");
    const std::size_t end = std::min(edges.size(), i + kTraceChunk);
    for (std::size_t j = i; j < end; ++j)
      s.insert_edge(edges[j].src, edges[j].dst);
  }
  r.attempted += edges.size();
}

dgap::ingest::AsyncIngestor::Options ingestor_options() {
  dgap::ingest::AsyncIngestor::Options o;
  o.absorbers = kAbsorbers;
  return o;
}

void flood(Run& r, dgap::ingest::AsyncIngestor& ing,
           std::span<const Edge> edges) {
  for (std::size_t i = 0; i < edges.size(); i += kBatch) {
    pb::Tracer::Scope s(*r.tracer, "ingest.submit");
    ing.submit(edges.subspan(i, std::min(kBatch, edges.size() - i)));
    ++r.attempted;
  }
  pb::Tracer::Scope s(*r.tracer, "ingest.drain");
  ing.drain();
}

// --- ingest slices: per-edge, batch, async -------------------------------------

// Counters summed over every timed body of one ingest path.
struct IngestTotals {
  std::vector<double> meps;  // one throughput per timed round
  double edges = 0;
  int rounds = 0;
  dgap::pmem::StatsSnapshot pm;
  std::uint64_t array_inserts = 0, elog_inserts = 0, merges = 0,
                rebalances = 0, resizes = 0, locks_saved = 0,
                flush_epochs = 0;
  double merge_fill_sum = 0;
  dgap::obs::HistogramSnapshot rebalance_h, resize_h;
};

void add_pm(dgap::pmem::StatsSnapshot& acc,
            const dgap::pmem::StatsSnapshot& d) {
  acc.flush_calls += d.flush_calls;
  acc.lines_flushed += d.lines_flushed;
  acc.bytes_requested += d.bytes_requested;
  acc.fences += d.fences;
  acc.xpline_misses += d.xpline_misses;
  acc.inplace_flushes += d.inplace_flushes;
}

// A store's cumulative counters at one instant.
struct StoreCounters {
  std::uint64_t array_inserts, elog_inserts, merges, rebalances, resizes,
      locks_saved, flush_epochs;
  double merge_fill_sum;
  dgap::obs::HistogramSnapshot rebalance_h, resize_h;
  explicit StoreCounters(const DgapStore& s)
      : array_inserts(s.stats().array_inserts.load()),
        elog_inserts(s.stats().elog_inserts.load()),
        merges(s.stats().merges.load()),
        rebalances(s.stats().rebalances.load()),
        resizes(s.stats().resizes.load()),
        locks_saved(s.stats().locks_saved.load()),
        flush_epochs(s.stats().flush_epochs.load()),
        merge_fill_sum(s.stats().merge_fill_sum.load()),
        rebalance_h(s.rebalance_latency()),
        resize_h(s.resize_latency()) {}
  void add_delta_to(IngestTotals& t, const StoreCounters& before) const {
    t.array_inserts += array_inserts - before.array_inserts;
    t.elog_inserts += elog_inserts - before.elog_inserts;
    t.merges += merges - before.merges;
    t.merge_fill_sum += merge_fill_sum - before.merge_fill_sum;
    t.rebalances += rebalances - before.rebalances;
    t.resizes += resizes - before.resizes;
    t.locks_saved += locks_saved - before.locks_saved;
    t.flush_epochs += flush_epochs - before.flush_epochs;
    t.rebalance_h += rebalance_h - before.rebalance_h;
    t.resize_h += resize_h - before.resize_h;
  }
};

double modeled_media_s(const dgap::pmem::StatsSnapshot& d) {
  const auto& c = dgap::pmem::latency_model().config();
  return 1e-9 * static_cast<double>(d.lines_flushed * c.flush_ns_per_line +
                                    d.xpline_misses * c.xpline_miss_ns +
                                    d.inplace_flushes * c.inplace_flush_ns +
                                    d.fences * c.fence_ns);
}

// One lap of an ingest path: whole rounds on fresh stores until the lap's
// share is used (at least one). Each round inserts the first 10% of the
// stream untimed, then times the other 90% (paper §4.1) and adds its
// throughput to t.meps; `check_last` verifies the last round's graph.
template <typename Warm, typename Body>
void ingest_lap(Run& r, const char* tag, double share, IngestTotals& t,
                bool check_last, Warm&& warm, Body&& body) {
  const auto all = r.stream.all();
  const std::size_t split = all.size() / 10;
  const auto lap0 = Clock::now();
  const double body_edges = static_cast<double>(all.size() - split);
  Store s;
  for (int round = 0; round == 0 || seconds_since(lap0) < r.lap_budget(share);
       ++round) {
    s.close();
    s = fresh_store(r);
    warm(*s.store, all.first(split));
    const auto pm0 = dgap::pmem::stats().snapshot();
    const StoreCounters before(*s.store);
    const auto t0 = Clock::now();
    body(*s.store, all.subspan(split));
    const double dt = seconds_since(t0);
    add_pm(t.pm, dgap::pmem::stats().snapshot() - pm0);
    StoreCounters(*s.store).add_delta_to(t, before);
    t.meps.push_back(body_edges / dt / 1e6);
    t.edges += body_edges;
    ++t.rounds;
  }
  if (check_last)
    check_graph(r, *s.store, tag,
                std::string(tag) == "async" ? Order::async_fed : Order::exact);
}

struct IngestState {
  IngestTotals insert, batch, async;
  dgap::sched::SchedStats sched_async{};
};

void lap_ingest(Run& r, IngestState& st, bool last) {
  {
    phase("insert");
    const auto per_edge = [&](DgapStore& s, std::span<const Edge> e) {
      per_edge_insert(r, s, e);
    };
    ingest_lap(r, "insert", kShareInsert, st.insert, last,
               per_edge, per_edge);
  }
  {
    phase("batch");
    const auto batched = [&](DgapStore& s, std::span<const Edge> e) {
      load_batches(r, s, e);
    };
    ingest_lap(r, "batch", kShareBatch, st.batch, last,
               batched, batched);
  }
  {
    phase("async");
    const auto s0 = dgap::sched::TaskScheduler::global().stats();
    std::unique_ptr<dgap::ingest::AsyncIngestor> ing;
    ingest_lap(
        r, "async", kShareAsync, st.async, last,
        [&](DgapStore& s, std::span<const Edge> e) {
          ing = std::make_unique<dgap::ingest::AsyncIngestor>(
              dgap::ingest::dgap_batch_sink(s), ingestor_options());
          flood(r, *ing, e);
        },
        [&](DgapStore&, std::span<const Edge> e) {
          flood(r, *ing, e);
          r.check(!ing->stats().failed,
                  "async: an absorber's sink call failed");
          ing.reset();
        });
    const auto s1 = dgap::sched::TaskScheduler::global().stats();
    st.sched_async.executed += s1.executed - s0.executed;
    st.sched_async.steals += s1.steals - s0.steals;
    st.sched_async.assists += s1.assists - s0.assists;
  }
}

void report_ingest(Run& r, const IngestState& st) {
  for (const double v : st.insert.meps) r.put_sample("insert_meps", v, "Medges/s");
  for (const double v : st.batch.meps) r.put_sample("batch_meps", v, "Medges/s");
  // Per layer only: the flood's throughput is bimodal with the host (about
  // 2.0-2.4 Medges/s for half an hour, then 3.8-5.3; README, "Dropped").
  r.put_layer("ingest.async_meps", median(st.async.meps), "Medges/s");
  const IngestTotals& t = st.insert;
  const double e = t.edges;
  const double rounds = t.rounds;
  r.put_sample("media_bytes_per_edge",
            static_cast<double>(t.pm.media_bytes_written()) / e, "B");
  const auto per_edge = [&](const char* k, std::uint64_t v) {
    r.put_layer(k, static_cast<double>(v) / e, "count");
  };
  per_edge("pmem.flushes_per_edge", t.pm.flush_calls);
  per_edge("pmem.lines_per_edge", t.pm.lines_flushed);
  per_edge("pmem.fences_per_edge", t.pm.fences);
  per_edge("pmem.xpline_misses_per_edge", t.pm.xpline_misses);
  per_edge("pmem.inplace_flushes_per_edge", t.pm.inplace_flushes);
  per_edge("core.array_inserts_per_edge", t.array_inserts);
  per_edge("core.elog_inserts_per_edge", t.elog_inserts);
  r.put_layer("pmem.modeled_media_s", modeled_media_s(t.pm) / rounds, "s");
  // What one 250 ns injected wait really took in this process: the model
  // calibrates its pause loop once at start-up (README, noise).
  {
    const auto t0 = Clock::now();
    for (int i = 0; i < 20000; ++i) dgap::spin_wait_ns(250);
    r.put_layer("pmem.spin_250ns_ns", seconds_since(t0) * 1e9 / 20000, "ns");
  }
  r.put_layer("core.merges", static_cast<double>(t.merges) / rounds, "count");
  r.put_layer("core.elog_fill_at_merge",
              t.merges ? t.merge_fill_sum / static_cast<double>(t.merges) : 0.0,
              "ratio");
  r.put_layer("core.rebalances", static_cast<double>(t.rebalances) / rounds,
              "count");
  r.put_layer("core.rebalance_p50_us", t.rebalance_h.percentile(0.50) / 1e3,
              "us");
  r.put_layer("core.rebalance_p99_us", t.rebalance_h.percentile(0.99) / 1e3,
              "us");
  r.put_layer("core.rebalance_total_s",
              static_cast<double>(t.rebalance_h.sum) / 1e9 / rounds, "s");
  r.put_layer("core.resizes", static_cast<double>(t.resizes) / rounds,
              "count");
  r.put_layer("core.resize_total_s",
              static_cast<double>(t.resize_h.sum) / 1e9 / rounds, "s");

  const IngestTotals& b = st.batch;
  const double calls = b.edges / static_cast<double>(kBatch);
  r.put_layer("pmem.batch_modeled_media_s", modeled_media_s(b.pm) / b.rounds,
              "s");
  r.put_layer("pmem.batch_lines_per_edge",
              static_cast<double>(b.pm.lines_flushed) / b.edges, "count");
  r.put_layer("core.locks_saved_per_batch",
              static_cast<double>(b.locks_saved) / calls, "count");
  r.put_layer("core.flush_epochs_per_batch",
              static_cast<double>(b.flush_epochs) / calls, "count");

  const double ar = st.async.rounds;
  r.put_layer("sched.executed",
              static_cast<double>(st.sched_async.executed) / ar, "count");
  r.put_layer("sched.steals", static_cast<double>(st.sched_async.steals) / ar,
              "count");
  r.put_layer("sched.assists",
              static_cast<double>(st.sched_async.assists) / ar, "count");
}

// --- restart and recovery -----------------------------------------------------

struct Durable {
  std::string path;  // file-backed pool of the restart slice
  Store restart;
  std::uint64_t restart_resident0 = 0;
  Store crash;  // shadow pool of the recover slice
  std::size_t acked = 0;
  std::size_t tail_begin = 0;
  std::vector<double> shut, popen, sopen;
};

void durable_setup(Run& r, Durable& d) {
  phase("durable-setup");
  d.path = r.scratch + "/restart.pool";
  std::filesystem::remove(d.path);
  d.restart.opts = store_options(r);
  d.restart.pool = dgap::pmem::PmemPool::create(
      {.path = d.path, .size = kPoolMb << 20});
  d.restart.store = DgapStore::create(*d.restart.pool, d.restart.opts);
  load_batches(r, *d.restart.store, r.stream.all());
  d.restart_resident0 = d.restart.store->resident_bytes();

  d.crash = fresh_store(r, /*shadow=*/true);
  d.tail_begin = r.edges() - r.edges() / 20;
  d.acked = d.tail_begin;
  load_batches(r, *d.crash.store, r.stream.all().first(d.acked));
}

// Normal restart: shutdown, close, reopen the pool and the store.
void lap_restart(Run& r, Durable& d) {
  phase("restart");
  Store& s = d.restart;
  const auto t0 = Clock::now();
  {
    pb::Tracer::Scope sc(*r.tracer, "core.shutdown");
    s.store->shutdown();
  }
  s.store.reset();
  s.pool.reset();
  const auto t1 = Clock::now();
  {
    pb::Tracer::Scope sc(*r.tracer, "pmem.pool_open");
    s.pool = dgap::pmem::PmemPool::open({.path = d.path, .size = 0});
  }
  const auto t2 = Clock::now();
  {
    pb::Tracer::Scope sc(*r.tracer, "core.open");
    s.store = DgapStore::open(*s.pool, s.opts);
  }
  const auto t3 = Clock::now();
  ++r.attempted;
  d.shut.push_back(std::chrono::duration<double>(t1 - t0).count());
  d.popen.push_back(std::chrono::duration<double>(t2 - t1).count());
  d.sopen.push_back(std::chrono::duration<double>(t3 - t2).count());
  r.put_sample("restart_s", std::chrono::duration<double>(t3 - t0).count(), "s");
  r.check(s.store->num_edge_slots() == r.edges(),
          "restart: " + std::to_string(s.store->num_edge_slots()) +
              " edge slots after reopen, " + std::to_string(r.edges()) +
              " acknowledged");
}

// Crash after acknowledged batches: insert this cycle's share of the tail,
// drop the volatile state and every unpersisted line, recover. After the
// last cycle the whole stream is acknowledged.
void lap_recover(Run& r, Durable& d, int cycle) {
  phase("recover");
  Store& s = d.crash;
  const std::size_t tail = r.edges() - d.tail_begin;
  const std::size_t next =
      d.tail_begin + tail * static_cast<std::size_t>(cycle + 1) /
                         (kLaps * kDurableCycles);
  load_batches(r, *s.store, r.stream.all().subspan(d.acked, next - d.acked));
  d.acked = next;
  s.store.reset();  // no shutdown: the volatile state is lost
  s.pool->simulate_crash();
  const auto t0 = Clock::now();
  {
    pb::Tracer::Scope sc(*r.tracer, "core.recover_open");
    s.store = DgapStore::open(*s.pool, s.opts);
  }
  r.put_sample("recover_s", seconds_since(t0), "s");
  ++r.attempted;
  r.check(s.store->num_edge_slots() == d.acked,
          "recover: " + std::to_string(s.store->num_edge_slots()) +
              " edge slots after recovery, " + std::to_string(d.acked) +
              " acknowledged");
}

void durable_finish(Run& r, Durable& d) {
  phase("durable-check");
  check_graph(r, *d.restart.store, "restart");
  check_graph(r, *d.crash.store, "recover");
  r.put_layer("core.restart_pool_growth_bytes",
              static_cast<double>(d.restart.store->resident_bytes() -
                                  d.restart_resident0) /
                  (kLaps * kDurableCycles),
              "B");
  r.put_layer("core.shutdown_s", median(d.shut), "s");
  r.put_layer("core.pool_open_s", median(d.popen), "s");
  r.put_layer("core.store_open_s", median(d.sopen), "s");
  r.put_layer("core.recover_open_s", median(r.samples["recover_s"]), "s");
  d.restart.close();
  d.crash.close();
  std::filesystem::remove(d.path);
}

// --- htap ---------------------------------------------------------------------

struct Htap {
  EdgeStream stream;  // this phase's insertion order (see htap_setup)
  Store h;
  std::unique_ptr<dgap::ingest::AsyncIngestor> ing;
  std::size_t body_begin = 0;  // stream index of the first open-loop edge
  dgap::core::Snapshot cut;
  dgap::algorithms::DeltaMirror mirror;
  std::vector<double> pr;
  std::vector<NodeId> cc;
  // Per-layer accumulators over all laps.
  std::vector<double> ack_ms, delta_ms, pr_ms, cc_ms, submit_us;
  std::vector<double> round_ms, full_ms, pr_iterations;
  double late_max_us = 0;
  dgap::ingest::IngestStats ing0;
  dgap::obs::HistogramSnapshot absorb0, freeze0;
  std::uint64_t retries0 = 0;
  dgap::pmem::StatsSnapshot pm;
  std::uint64_t sched_executed = 0;
};

void htap_setup(Run& r, Htap& st) {
  phase("htap-setup");
  // The htap stream is the workload's edges in an order of this part's own
  // (the body is the same edge set in every order, see generate()): how
  // many sweeps an incremental round needs follows which edges each delta
  // brings, and four orders per run average over more deltas than one.
  st.stream = generate(*r.w, order_seed(r, 0));
  st.h = fresh_store(r);
  st.body_begin = r.edges() - kHtapBody;
  load_batches(r, *st.h.store, st.stream.all().first(st.body_begin));
  const dgap::par::ScopedKernelThreads one(1);
  st.cut = st.h.store->consistent_view();
  st.mirror = dgap::algorithms::DeltaMirror::build(st.cut);
  st.pr = dgap::algorithms::pagerank(
      st.mirror, {.iterations = 1000, .tolerance = kIncrPr.tolerance});
  st.cc = dgap::algorithms::connected_components(st.mirror);
  st.ing = std::make_unique<dgap::ingest::AsyncIngestor>(
      dgap::ingest::dgap_batch_sink(*st.h.store), ingestor_options());
  st.ing0 = st.ing->stats();
  st.absorb0 = st.ing->absorb_latency();
  st.freeze0 = st.h.store->freeze_latency();
  st.retries0 = st.h.store->stats().snapshot_read_retries.load();
}

// One analysis round: freeze a cut, diff it against the previous cut,
// advance the mirror, run incremental PR and CC. Returns its wall time.
double incr_round(Run& r, Htap& st) {
  const auto t0 = Clock::now();
  dgap::core::Snapshot cut;
  {
    pb::Tracer::Scope s(*r.tracer, "snapshot.freeze");
    cut = st.h.store->consistent_view();
  }
  const auto t1 = Clock::now();
  {
    pb::Tracer::Scope s(*r.tracer, "snapshot.delta");
    const dgap::core::SnapshotDelta d = dgap::core::snapshot_delta(st.cut, cut);
    st.mirror.apply(d, cut);
    const auto t2 = Clock::now();
    {
      pb::Tracer::Scope s2(*r.tracer, "algorithms.incr_pr");
      auto res =
          dgap::algorithms::incremental_pagerank(st.mirror, d, st.pr, kIncrPr);
      st.pr = std::move(res.scores);
      st.pr_iterations.push_back(res.iterations);
    }
    const auto t3 = Clock::now();
    {
      pb::Tracer::Scope s2(*r.tracer, "algorithms.incr_cc");
      st.cc = dgap::algorithms::incremental_cc(st.mirror, d, st.cc).labels;
    }
    const auto t4 = Clock::now();
    st.delta_ms.push_back(
        std::chrono::duration<double, std::milli>(t2 - t1).count());
    st.pr_ms.push_back(
        std::chrono::duration<double, std::milli>(t3 - t2).count());
    st.cc_ms.push_back(
        std::chrono::duration<double, std::milli>(t4 - t3).count());
  }
  st.cut = std::move(cut);
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

bool holds_edges(const dgap::core::Snapshot& cut,
                 std::span<const Edge> edges) {
  for (const Edge& e : edges) {
    if (e.src >= cut.num_nodes()) return false;
    bool found = false;
    cut.for_each_out(e.src, [&](NodeId d) {
      found = d == e.dst;
      return found;
    });
    if (!found) return false;
  }
  return true;
}

// One open-loop segment: batch i of the lap is due at start + i / rate,
// whatever happened before; its ack latency runs from that due time to the
// moment the ingestor's durable epoch covers it, so a stall counts against
// every batch queued behind it.
void lap_htap(Run& r, Htap& st, int lap) {
  phase("htap");
  const auto all = st.stream.all();
  const std::size_t first =
      st.body_begin + static_cast<std::size_t>(lap) * kHtapBatch *
                          kHtapBatchesPerLap;
  const auto pm0 = dgap::pmem::stats().snapshot();
  const auto sched0 = dgap::sched::TaskScheduler::global().stats();
  const auto start = Clock::now() + std::chrono::milliseconds(10);
  const auto due_of = [&](std::size_t i) {
    return start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                       1e9 * static_cast<double>(i) / kHtapRate));
  };
  std::atomic<std::size_t> acked_batches{0};
  std::exception_ptr producer_error;

  std::thread producer([&] {
    // While an ack is outstanding the producer only yields, so an ack is
    // timed within microseconds of the durable epoch covering it; with
    // none outstanding it sleeps until close to the next due time. (A
    // sleeping poll timed acks at the sleep's granularity, about 70 us with
    // the default 50 us timer slack, which moved the median with the host.)
    prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
    const auto wait_a_little = [](bool outstanding) {
      if (outstanding)
        std::this_thread::yield();
      else
        std::this_thread::sleep_for(std::chrono::microseconds(20));
    };
    try {
      std::vector<dgap::ingest::Epoch> tickets(kHtapBatchesPerLap);
      std::size_t acked = 0;
      const auto poll = [&](std::size_t submitted) {
        const dgap::ingest::Epoch durable = st.ing->durable_epoch();
        const auto now = Clock::now();
        while (acked < submitted && tickets[acked] <= durable) {
          st.ack_ms.push_back(
              std::chrono::duration<double, std::milli>(now - due_of(acked))
                  .count());
          ++acked;
        }
        acked_batches.store(acked, std::memory_order_release);
      };
      for (std::size_t i = 0; i < kHtapBatchesPerLap; ++i) {
        while (Clock::now() < due_of(i)) {
          poll(i);
          wait_a_little(acked < i);
        }
        const auto t0 = Clock::now();
        st.late_max_us = std::max(
            st.late_max_us,
            std::chrono::duration<double, std::micro>(t0 - due_of(i)).count());
        {
          pb::Tracer::Scope s(*r.tracer, "ingest.submit");
          tickets[i] = st.ing->submit(all.subspan(first + i * kHtapBatch,
                                                  kHtapBatch));
        }
        st.submit_us.push_back(seconds_since(t0) * 1e6);
        poll(i + 1);
      }
      while (acked < kHtapBatchesPerLap) {
        poll(kHtapBatchesPerLap);
        wait_a_little(true);
      }
    } catch (...) {
      producer_error = std::current_exception();
    }
  });

  {
    const dgap::par::ScopedKernelThreads one(1);
    const auto end = due_of(kHtapBatchesPerLap);
    std::vector<double> lap_ratios;
    for (int k = 1;; ++k) {
      const auto due = start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                                   1e9 * kHtapRoundSec * k));
      if (due >= end) break;
      std::this_thread::sleep_until(due);
      const std::size_t acked = acked_batches.load(std::memory_order_acquire);
      const double round_ms = incr_round(r, st);
      // Right after the round, the reference PR (20 iterations) on the
      // whole stream's adjacency: fixed work of the benchmark's own, so the
      // ratio rises with the program's round time and host speed drift
      // cancels out of it (see lap_kernels).
      auto t0 = Clock::now();
      {
        pb::Tracer::Scope sc(*r.tracer, "oracle.pr");
        keep(pb::ref::pagerank(*r.ref, kPrIterations));
      }
      const double ref_ms = seconds_since(t0) * 1e3;
      // Per layer: the same cut recomputed from scratch by the program.
      t0 = Clock::now();
      {
        pb::Tracer::Scope sc(*r.tracer, "algorithms.full_pr_cc");
        (void)dgap::algorithms::pagerank(st.mirror, kPr);
        (void)dgap::algorithms::connected_components(st.mirror);
      }
      st.full_ms.push_back(seconds_since(t0) * 1e3);
      st.round_ms.push_back(round_ms);
      lap_ratios.push_back(round_ms / ref_ms);
      r.attempted += 2;
      // Every batch acknowledged before the capture is in the cut.
      r.check(st.cut.num_edges_directed() >= first + acked * kHtapBatch,
              "htap: a cut holds fewer edges than were acknowledged");
      if (acked > 0)
        r.check(holds_edges(st.cut, all.subspan(first + (acked - 1) * kHtapBatch,
                                                kHtapBatch)),
                "htap: a cut misses the last acknowledged batch");
    }
    // One sample per lap, the mean of its rounds' ratios: a round's work
    // moves in whole PageRank sweeps with its delta, and a mean follows the
    // share of longer rounds smoothly where a median would jump between
    // the two.
    double sum = 0;
    for (const double x : lap_ratios) sum += x;
    r.put_sample("round_vs_ref", sum / static_cast<double>(lap_ratios.size()),
                 "ratio");
  }
  producer.join();
  if (producer_error) std::rethrow_exception(producer_error);
  r.attempted += kHtapBatchesPerLap;
  r.check(!st.ing->stats().failed, "htap: an absorber's sink call failed");
  add_pm(st.pm, dgap::pmem::stats().snapshot() - pm0);
  st.sched_executed +=
      dgap::sched::TaskScheduler::global().stats().executed - sched0.executed;
}

void htap_finish(Run& r, Htap& st) {
  phase("htap-check");
  const auto ing1 = st.ing->stats();
  const auto absorb = st.ing->absorb_latency() - st.absorb0;
  const auto freeze = st.h.store->freeze_latency() - st.freeze0;
  {
    const dgap::par::ScopedKernelThreads one(1);
    (void)incr_round(r, st);  // the final cut holds the whole stream
  }
  const pb::ref::Adjacency submitted(st.stream.num_vertices(),
                                    st.stream.all());
  check_graph(r, *st.h.store, "htap", Order::async_fed, &submitted);
  // The incremental kernel certifies each score vector within
  // tolerance / (1 - d) of the fixed point in L1; allow twice that.
  const double pr_err = pb::ref::l1_diff(st.pr, pb::ref::pagerank(*r.ref, 0));
  const double pr_bound = 2.0 * kIncrPr.tolerance / (1.0 - kIncrPr.damping);
  r.check(pr_err <= pr_bound, "htap: incremental PR L1 error " +
                                  std::to_string(pr_err) + " > " +
                                  std::to_string(pr_bound));
  r.check(pb::ref::same_partition(st.cc, pb::ref::components(*r.ref)),
          "htap: incremental CC partition differs from the reference");

  // Ack latencies of all laps pooled: kLaps * kHtapBatchesPerLap samples.
  // Per-layer figures only: the median follows the host's wake-up latency
  // and the p99 its scheduling stalls, too unsteady for an end-to-end
  // bound (README, "Dropped").
  r.put_layer("ingest.ack_p50_ms", quantile(st.ack_ms, 0.50), "ms");
  r.put_layer("ingest.ack_p99_ms", quantile(st.ack_ms, 0.99), "ms");
  const double edges = static_cast<double>(kHtapBody);
  r.put_layer("pmem.htap_media_bytes_per_edge",
              static_cast<double>(st.pm.media_bytes_written()) / edges, "B");
  r.put_layer("snapshot.freeze_us", freeze.percentile(0.5) / 1e3, "us");
  r.put_layer("snapshot.read_retries",
              static_cast<double>(
                  st.h.store->stats().snapshot_read_retries.load() -
                  st.retries0),
              "count");
  r.put_layer("snapshot.delta_ms", median(st.delta_ms), "ms");
  r.put_layer("snapshot.round_ms", median(st.round_ms), "ms");
  r.put_layer("algorithms.full_pr_cc_ms", median(st.full_ms), "ms");
  std::vector<double> vs_full(st.round_ms.size());
  for (std::size_t i = 0; i < vs_full.size(); ++i)
    vs_full[i] = st.round_ms[i] / st.full_ms[i];
  r.put_layer("algorithms.round_vs_full", median(vs_full), "ratio");
  r.put_layer("algorithms.incr_pr_iterations", median(st.pr_iterations),
              "count");
  r.put_layer("algorithms.incr_pr_ms", median(st.pr_ms), "ms");
  r.put_layer("algorithms.incr_cc_ms", median(st.cc_ms), "ms");
  r.put_layer("ingest.submit_us", median(st.submit_us), "us");
  r.put_layer("ingest.absorb_p50_us", absorb.percentile(0.50) / 1e3, "us");
  r.put_layer("ingest.absorb_p99_us", absorb.percentile(0.99) / 1e3, "us");
  r.put_layer("ingest.edges_per_absorb",
              absorb.count ? static_cast<double>(ing1.absorbed_edges -
                                                 st.ing0.absorbed_edges) /
                                 static_cast<double>(absorb.count)
                           : 0.0,
              "count");
  r.put_layer("ingest.stalls", static_cast<double>(ing1.stalls - st.ing0.stalls),
              "count");
  r.put_layer("ingest.queue_high_watermark",
              static_cast<double>(ing1.queue_high_watermark), "count");
  r.put_layer("ingest.generator_late_max_us", st.late_max_us, "us");
  r.put_layer("sched.htap_executed_per_lap",
              static_cast<double>(st.sched_executed) / kLaps, "count");
  st.ing.reset();
  st.cut = {};
  st.h.close();
}

// --- kernels ------------------------------------------------------------------

template <typename F>
std::vector<double> timed_passes(double budget_s, F&& pass) {
  std::vector<double> times;
  const auto t_begin = Clock::now();
  while (times.empty() || seconds_since(t_begin) < budget_s) {
    const auto t0 = Clock::now();
    pass();
    times.push_back(seconds_since(t0));
  }
  return times;
}

// The highest-degree vertex plus seeded random vertices that have edges.
std::vector<NodeId> pick_sources(const pb::ref::Adjacency& g,
                                 std::uint64_t seed, int count) {
  std::vector<NodeId> s;
  NodeId hub = 0;
  for (NodeId v = 0; v < g.n(); ++v)
    if (g.out(static_cast<std::size_t>(v)).size() >
        g.out(static_cast<std::size_t>(hub)).size())
      hub = v;
  s.push_back(hub);
  dgap::Rng rng(seed * 31 + 7);
  while (static_cast<int>(s.size()) < count) {
    const auto v = static_cast<NodeId>(
        rng.next_below(static_cast<std::uint64_t>(g.n())));
    if (!g.out(static_cast<std::size_t>(v)).empty() &&
        std::find(s.begin(), s.end(), v) == s.end())
      s.push_back(v);
  }
  return s;
}

struct Analysis {
  Store a;  // the preloaded, quiescent analysis store
  std::vector<NodeId> bfs_src, bc_src;
  // Per kernel, every timed pass over the snapshot, over its CSR and of
  // the reference kernel, and each snapshot pass over its CSR pass.
  std::map<std::string, std::vector<double>> dgap_s, csr_s, ref_s, vs_csr;
};


// Kernel outputs against the reference computations.
template <typename View>
void check_kernels(Run& r, const Analysis& an, const View& g,
                   const char* where) {
  const std::string at(where);
  const double pr_err =
      pb::ref::max_abs_diff(dgap::algorithms::pagerank(g, kPr),
                            pb::ref::pagerank(*r.ref, kPrIterations));
  r.check(pr_err <= kPrTolerance,
          at + ": PR max error " + std::to_string(pr_err));
  r.check(pb::ref::same_partition(dgap::algorithms::connected_components(g),
                                  pb::ref::components(*r.ref)),
          at + ": CC partition differs from the reference");
  for (const NodeId src : an.bfs_src)
    r.check(pb::ref::depths_from_parents(*r.ref, dgap::algorithms::bfs(g, src),
                                         src) ==
                pb::ref::bfs_depths(*r.ref, src),
            at + ": BFS depths differ from the reference, source " +
                std::to_string(src));
  const double bc_err = pb::ref::max_abs_diff(
      dgap::algorithms::betweenness_centrality(g, an.bc_src),
      pb::ref::betweenness(*r.ref, an.bc_src));
  r.check(bc_err <= kBcTolerance,
          at + ": BC max error " + std::to_string(bc_err));
  r.attempted += 3 + an.bfs_src.size();
}

// Every lap loads the analysis store into a fresh pool, in an insertion
// order of its own drawn from --seed, the part and the lap. Kernel times
// depend on where the pool and the kernel's arrays land relative to each
// other (one process measured CC at 1.4 ms, the next at 2.2 ms, on the
// same input) and on the neighbour order (the reference CC took 1.45 ms on
// one order of orkut and 0.91 ms on another, with the same two hook
// rounds); a new mapping and order per lap lets the median span many of
// each instead of the one a process or a seed happens to get.
void lap_kernels(Run& r, Analysis& an, int lap) {
  phase("kernels");
  EdgeStream order = r.stream;
  order.shuffle(order_seed(r, static_cast<std::uint64_t>(lap) + 1));
  an.a.close();
  an.a = fresh_store(r);
  load_batches(r, *an.a.store, order.all());
  r.check(an.a.store->num_edge_slots() == r.edges(),
          "kernels: reloaded store holds " +
              std::to_string(an.a.store->num_edge_slots()) + " edges");
  const pb::ref::Adjacency g0(order.num_vertices(), order.all());
  const dgap::core::Snapshot snap = an.a.store->consistent_view();
  const dgap::par::ScopedKernelThreads one(1);
  dgap::core::SnapshotCsr csr;
  {
    pb::Tracer::Scope sc(*r.tracer, "snapshot.csr_build");
    csr = dgap::core::SnapshotCsr::build(snap);
  }
  if (lap == 0) {  // the checks double as the untimed warm-up
    check_kernels(r, an, snap, "kernels");
    check_kernels(r, an, csr, "snapshot-csr");
  }
  // Each kernel repeats a pass over the snapshot, a pass of the reference
  // kernel on the plain adjacency list, and a pass over the CSR of the same
  // cut. The end-to-end sample is the snapshot pass over the reference pass
  // right after it: the reference is the benchmark's own code, so host
  // speed, which drifts over seconds and minutes on a shared VM, cancels
  // out of the figure while any slowdown of the program's kernels or read
  // path shows in it. The pass over the program's CSR gives the per-layer
  // Fig 7 gap; absolute times go per layer too.
  const double per_kernel = r.lap_budget(kShareKernels) / 4;
  const auto timed = [&](const char* name, const char* span,
                         const auto& kernel, const auto& reference) {
    const auto t_begin = Clock::now();
    do {
      auto t0 = Clock::now();
      {
        pb::Tracer::Scope sc(*r.tracer, span);
        kernel(snap);
      }
      const double td = seconds_since(t0);
      t0 = Clock::now();
      {
        pb::Tracer::Scope sc(*r.tracer, "oracle.kernel");
        reference();
      }
      const double tr = seconds_since(t0);
      t0 = Clock::now();
      kernel(csr);
      const double tc = seconds_since(t0);
      an.dgap_s[name].push_back(td);
      an.ref_s[name].push_back(tr);
      an.csr_s[name].push_back(tc);
      an.vs_csr[name].push_back(td / tc);
      r.put_sample(std::string(name) + "_vs_ref", td / tr, "ratio");
      r.attempted += 2;
    } while (seconds_since(t_begin) < per_kernel);
  };
  timed(
      "pr", "algorithms.pr",
      [&](const auto& g) { (void)dgap::algorithms::pagerank(g, kPr); },
      [&] { keep(pb::ref::pagerank(g0, kPrIterations)); });
  timed(
      "cc", "algorithms.cc",
      [&](const auto& g) { (void)dgap::algorithms::connected_components(g); },
      [&] { keep(pb::ref::components_hook(g0)); });
  timed(
      "bfs", "algorithms.bfs",
      [&](const auto& g) {
        for (const NodeId src : an.bfs_src) (void)dgap::algorithms::bfs(g, src);
      },
      [&] {
        for (const NodeId src : an.bfs_src) keep(pb::ref::bfs_depths(g0, src));
      });
  timed(
      "bc", "algorithms.bc",
      [&](const auto& g) {
        (void)dgap::algorithms::betweenness_centrality(g, an.bc_src);
      },
      [&] { keep(pb::ref::betweenness(g0, an.bc_src)); });
}

void kernels_finish(Run& r, Analysis& an) {
  phase("kernels-finish");
  DgapStore& s = *an.a.store;
  const double edges = static_cast<double>(r.edges());
  r.put_sample("pool_bytes_per_edge",
               static_cast<double>(s.resident_bytes()) / edges, "B");
  r.put_layer("pma.density", edges / static_cast<double>(s.capacity_slots()),
              "ratio");
  r.put_layer("pma.sections", static_cast<double>(s.num_segments()), "count");
  for (const std::string k : {"pr", "cc", "bfs", "bc"}) {
    r.put_layer("algorithms." + k + "_s", median(an.dgap_s[k]), "s");
    r.put_layer("algorithms." + k + "_csr_s", median(an.csr_s[k]), "s");
    r.put_layer("oracle." + k + "_s", median(an.ref_s[k]), "s");
    // PR's gap keeps the name snapshot.csr_gap; the others carry theirs.
    r.put_layer(k == "pr" ? "snapshot.csr_gap" : "snapshot." + k + "_csr_gap",
                median(an.vs_csr[k]), "ratio");
  }
  if (!r.trace) return;

  // Read-path probes and the parallel PageRank run in traced runs only,
  // after every end-to-end figure is taken.
  const dgap::core::Snapshot snap = s.consistent_view();
  const dgap::par::ScopedKernelThreads one(1);
  const NodeId n = snap.num_nodes();
  std::uint64_t sink = 0;
  const auto entry = timed_passes(0.2, [&] {
    pb::Tracer::Scope sc(*r.tracer, "snapshot.vertex_entry_sweep");
    for (NodeId v = 0; v < n; ++v)
      snap.for_each_out(v, [&](NodeId d) {
        sink += static_cast<std::uint64_t>(d);
        return true;  // stop at the first neighbour
      });
  });
  const auto scan = timed_passes(0.2, [&] {
    pb::Tracer::Scope sc(*r.tracer, "snapshot.scan_sweep");
    for (NodeId v = 0; v < n; ++v)
      snap.for_each_out(v,
                        [&](NodeId d) { sink += static_cast<std::uint64_t>(d); });
  });
  if (sink == 0) std::cerr << "perfbench: empty sweep\n";
  r.put_layer("snapshot.vertex_entry_ns",
              median(entry) * 1e9 / static_cast<double>(n), "ns");
  r.put_layer("snapshot.scan_ns_per_edge", median(scan) * 1e9 / edges, "ns");
  {
    const dgap::par::ScopedKernelThreads all_threads(
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
    const auto par = timed_passes(0.4, [&] {
      pb::Tracer::Scope sc(*r.tracer, "algorithms.pr_par");
      (void)dgap::algorithms::pagerank(snap, kPr);
    });
    r.put_layer("sched.pr_par_s", median(par), "s");
  }
}

// --- tiers (traced runs only) ------------------------------------------------

// The same stream in a store with the SSD cold tier (default transport) and
// the DRAM section cache on, read-charged media as fig7 --dram-cache models
// it, and the pmem budget cut to half the loaded footprint. Each kernel runs
// once after a fresh enforcement pass. Its timings spread too widely on a
// shared VM (IQR/median 0.27-0.33 over five seeds: the cold tier's reads
// and demotions go through the page cache to a virtio disk) to carry an
// end-to-end bound, so the tier layers report here, per layer.
void tier_probe(Run& r, const Analysis& an) {
  phase("tier-probe");
  Store t;
  t.opts = store_options(r);
  t.opts.cold_tier = true;
  t.opts.cold_tier_path = r.scratch + "/cold-tier";
  t.opts.dram_cache_mb = kTierCacheMb;
  t.pool = dgap::pmem::PmemPool::create({.path = "", .size = kPoolMb << 20});
  t.store = DgapStore::create(*t.pool, t.opts);
  load_batches(r, *t.store, r.stream.all());
  DgapStore& s = *t.store;
  const double edges = static_cast<double>(r.edges());
  const auto budget = static_cast<std::uint64_t>(
      static_cast<double>(s.resident_bytes()) * kTierBudgetFraction);
  s.set_cold_budget_bytes(budget);

  dgap::pmem::LatencyConfig lc;  // Optane defaults plus the read charge
  lc.enabled = true;
  lc.read_ns_per_line = kTierReadNsPerLine;
  dgap::pmem::latency_model().configure(lc);
  const auto cache0 = s.cache_stats();
  const auto cold0 = s.cold_stats();
  const dgap::par::ScopedKernelThreads one(1);
  std::vector<double> enforce_ms;
  std::vector<double> resident_after;
  const auto timed = [&](const char* name, auto&& kernel) {
    const auto t0 = Clock::now();
    {
      pb::Tracer::Scope sc(*r.tracer, "tier.enforce");
      s.cold_enforce_budget();
    }
    enforce_ms.push_back(seconds_since(t0) * 1e3);
    r.check(s.resident_bytes() <= budget,
            "tier: " + std::to_string(s.resident_bytes()) +
                " resident bytes after enforcement, budget " +
                std::to_string(budget));
    const dgap::core::Snapshot snap = s.consistent_view();
    const auto t1 = Clock::now();
    {
      pb::Tracer::Scope sc(*r.tracer, "algorithms.tier_kernel");
      kernel(snap);
    }
    r.put_layer(std::string("tier.") + name + "_s", seconds_since(t1), "s");
    resident_after.push_back(static_cast<double>(s.resident_bytes()));
  };
  timed("pr", [&](const auto& g) { (void)dgap::algorithms::pagerank(g, kPr); });
  timed("cc", [&](const auto& g) {
    (void)dgap::algorithms::connected_components(g);
  });
  timed("bfs", [&](const auto& g) {
    for (const NodeId src : an.bfs_src) (void)dgap::algorithms::bfs(g, src);
  });
  timed("bc", [&](const auto& g) {
    (void)dgap::algorithms::betweenness_centrality(g, an.bc_src);
  });
  check_kernels(r, an, s.consistent_view(), "tier");
  lc.read_ns_per_line = 0;
  dgap::pmem::latency_model().configure(lc);

  const auto cache = s.cache_stats();
  const auto cold = s.cold_stats();
  const double hits = static_cast<double>(cache.hits - cache0.hits);
  const double misses = static_cast<double>(cache.misses - cache0.misses);
  r.put_layer("dram.hit_rate",
              hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  const auto count = [&](const char* k, std::uint64_t now, std::uint64_t then,
                         const char* unit) {
    r.put_layer(k, static_cast<double>(now - then), unit);
  };
  count("dram.populates", cache.populates, cache0.populates, "count");
  count("dram.evictions", cache.evictions, cache0.evictions, "count");
  count("dram.admit_rejects", cache.admit_rejects, cache0.admit_rejects,
        "count");
  count("cold.demotions", cold.demotions, cold0.demotions, "count");
  count("cold.promotions", cold.promotions, cold0.promotions, "count");
  count("cold.cold_read_bytes", cold.cold_read_bytes, cold0.cold_read_bytes,
        "B");
  count("cold.read_retries", cold.read_retries, cold0.read_retries, "count");
  const double cold_reads = static_cast<double>(cold.cold_reads - cold0.cold_reads);
  r.put_layer("cold.promotions_per_cold_read",
              cold_reads > 0 ? static_cast<double>(cold.promotions -
                                                   cold0.promotions) /
                                   cold_reads
                             : 0.0,
              "ratio");
  r.put_layer("cold.enforce_ms", median(enforce_ms), "ms");
  r.put_layer("cold.budget_bytes_per_edge", static_cast<double>(budget) / edges,
              "B");
  // Residency after a kernel: reads promote sections without re-enforcing
  // the budget, so this can exceed the budget line above.
  r.put_layer("cold.resident_bytes_per_edge", median(resident_after) / edges,
              "B");
  t.close();
  std::filesystem::remove(r.scratch + "/cold-tier");
}

// --- setup --------------------------------------------------------------------

// setup_s: generate the stream and preload the analysis store with it,
// three times; the median is reported and the last store is kept.
void setup(Run& r, Analysis& an) {
  phase("setup");
  std::vector<double> times, gen_times;
  for (int i = 0; i < 3; ++i) {
    an.a.close();
    const auto t0 = Clock::now();
    {
      pb::Tracer::Scope s(*r.tracer, "graph.generate");
      r.stream = generate(*r.w, r.seed);
    }
    gen_times.push_back(seconds_since(t0));
    an.a = fresh_store(r);
    load_batches(r, *an.a.store, r.stream.all());
    times.push_back(seconds_since(t0));
  }
  for (const double t : times) r.put_sample("setup_s", t, "s");
  r.put_layer("graph.generate_s", median(gen_times), "s");
  {
    pb::Tracer::Scope s(*r.tracer, "oracle.adjacency");
    r.ref = std::make_unique<pb::ref::Adjacency>(r.stream.num_vertices(),
                                                 r.stream.all());
  }
  check_graph(r, *an.a.store, "preload");
  const std::uint64_t graph_seed = dgap::dataset_spec(r.w->name).seed;
  an.bfs_src = pick_sources(*r.ref, graph_seed, kBfsSources);
  an.bc_src = pick_sources(*r.ref, graph_seed + 1, kBcSources);
}

// --- driver -------------------------------------------------------------------

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --scratch DIR [--part K]\n";
  std::exit(2);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// One line for run.py: the end-to-end samples (every value, run.py pools
// them across the run's processes and reports medians) and the per-layer
// figures of this process.
std::string json_result(const Run& r) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"samples\": {";
  const char* sep = "";
  for (const auto& [k, v] : r.samples) {
    os << sep << "\"" << k << "\": {\"unit\": \"" << r.sample_units.at(k)
       << "\", \"values\": [";
    for (std::size_t i = 0; i < v.size(); ++i)
      os << (i ? ", " : "") << json_number(v[i]);
    os << "]}";
    sep = ", ";
  }
  os << "}, \"layer\": {";
  sep = "";
  for (const auto& [k, v] : r.layer) {
    os << sep << "\"" << k << "\": {\"value\": " << json_number(v.value)
       << ", \"unit\": \"" << v.unit << "\"}";
    sep = ", ";
  }
  os << "}}";
  return os.str();
}

void run_all(Run& r) {
  Analysis an;
  setup(r, an);
  Durable d;
  durable_setup(r, d);
  Htap h;
  htap_setup(r, h);
  IngestState ingest;
  for (int lap = 0; lap < kLaps; ++lap) {
    lap_ingest(r, ingest, lap == kLaps - 1);
    for (int c = 0; c < kDurableCycles; ++c) {
      lap_restart(r, d);
      lap_recover(r, d, lap * kDurableCycles + c);
    }
    lap_htap(r, h, lap);
    lap_kernels(r, an, lap);
  }
  report_ingest(r, ingest);
  durable_finish(r, d);
  htap_finish(r, h);
  kernels_finish(r, an);
  if (r.trace) tier_probe(r, an);
}

}  // namespace

int main(int argc, char** argv) {
  Run r;
  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        workload = v;
      } else if (a == "--seed") {
        r.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        r.seconds = std::stod(v);
        have_seconds = r.seconds > 0 && r.seconds <= 600;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        r.trace = v == "1";
        have_trace = true;
      } else if (a == "--part") {
        r.part = std::stoi(v);
      } else if (a == "--scratch") {
        r.scratch = v;
      } else {
        usage("unknown flag " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  for (const Workload& w : kWorkloads)
    if (workload == w.name) r.w = &w;
  if (r.w == nullptr) usage("unknown --workload '" + workload + "'");
  if (!have_seed || !have_seconds || !have_trace || r.scratch.empty())
    usage("--seed, --seconds (0 < S <= 600), --trace and --scratch are "
          "required");
  std::filesystem::create_directories(r.scratch);

  // The Optane model at its defaults, as every bench in bench/ runs it.
  dgap::pmem::LatencyConfig lc;
  lc.enabled = true;
  dgap::pmem::latency_model().configure(lc);
  dgap::sched::Options so;
  so.workers = kSchedWorkers;
  dgap::sched::TaskScheduler::configure(so);

  pb::Tracer tracer(r.trace);
  r.tracer = &tracer;
  int code = 0;
  try {
    run_all(r);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: phase " << g_phase << " threw: " << e.what()
              << "\n";
    ++r.failed;
    code = 3;
  }
  r.put_sample("peak_rss_mb", peak_rss_mb(), "MB");
  if (!r.correct && code == 0) code = 1;

  if (r.trace) {
    // Spans go next to the scratch directory, which is removed below.
    tracer.write_chrome_json(r.scratch + ".trace.json");
    const auto self = tracer.self_seconds_by_layer();
    for (const char* l : {"graph", "oracle", "pmem", "core", "snapshot",
                          "algorithms", "ingest", "tier"}) {
      const auto it = self.find(l);
      r.put_layer(std::string("trace.") + l + ".self_s",
                  it == self.end() ? 0.0 : it->second, "s");
    }
    r.put_layer("trace.spans", static_cast<double>(tracer.size()), "count");
    r.put_layer("ingest.reordered_vertices",
                static_cast<double>(r.async_reordered), "count");
  }
  std::filesystem::remove_all(r.scratch);
  std::cout << json_result(r) << std::endl;
  return code;
}
