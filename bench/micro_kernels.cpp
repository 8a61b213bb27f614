// Micro-benchmarks (google-benchmark) for the primitive operations whose
// costs drive every push/pull tradeoff in the paper: plain vs atomic vs
// lock-accounted updates, frontier machinery, and single iterations of the
// core kernels in both directions.
#include <benchmark/benchmark.h>
#include <omp.h>

#include <random>

#include "core/bfs.hpp"
#include "core/connected_components.hpp"
#include "core/frontier.hpp"
#include "core/incremental.hpp"
#include "core/pagerank.hpp"
#include "engine/blocked_view.hpp"
#include "engine/edge_map.hpp"
#include "engine/policy.hpp"
#include "graph/analogs.hpp"
#include "graph/delta_graph.hpp"
#include "graph/partition_aware.hpp"
#include "obs/trace.hpp"
#include "sync/atomics.hpp"
#include "sync/spinlock.hpp"

namespace pushpull {
namespace {

// --- update primitives (the §4.9 sync-cost hierarchy) -----------------------

void BM_PlainAdd(benchmark::State& state) {
  std::vector<double> data(1024, 0.0);
  std::size_t i = 0;
  for (auto _ : state) {
    data[i++ & 1023] += 1.0;
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_PlainAdd);

void BM_AtomicFaaInt(benchmark::State& state) {
  std::vector<std::int64_t> data(1024, 0);
  std::size_t i = 0;
  for (auto _ : state) {
    faa(data[i++ & 1023], std::int64_t{1});
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_AtomicFaaInt);

void BM_CasLoopFloatAdd(benchmark::State& state) {
  std::vector<double> data(1024, 0.0);
  std::size_t i = 0;
  for (auto _ : state) {
    atomic_add(data[i++ & 1023], 1.0);
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_CasLoopFloatAdd);

void BM_SpinlockAdd(benchmark::State& state) {
  std::vector<double> data(1024, 0.0);
  Spinlock lock;
  std::size_t i = 0;
  for (auto _ : state) {
    SpinGuard guard(lock);
    data[i++ & 1023] += 1.0;
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_SpinlockAdd);

void BM_AtomicMinFloat(benchmark::State& state) {
  std::vector<float> data(1024, 1e30f);
  std::size_t i = 0;
  float v = 1e29f;
  for (auto _ : state) {
    atomic_min(data[i++ & 1023], v);
    v *= 0.999999f;
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_AtomicMinFloat);

// --- frontier machinery (the k-filter) ---------------------------------------

void BM_FrontierMerge(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    FrontierBuffers buffers(omp_get_max_threads());
#pragma omp parallel for schedule(static)
    for (int i = 0; i < n; ++i) buffers.push_local(i);
    std::vector<vid_t> out;
    state.ResumeTiming();
    buffers.merge_into(out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_FrontierMerge)->Arg(1 << 12)->Arg(1 << 16);

// --- one PR iteration in each direction --------------------------------------

const Csr& micro_graph() {
  static const Csr g = pok_analog(-2);
  return g;
}

void BM_PrIterationPull(benchmark::State& state) {
  const Csr& g = micro_graph();
  PageRankOptions opt;
  opt.iterations = 1;
  for (auto _ : state) {
    auto pr = pagerank_pull(g, opt);
    benchmark::DoNotOptimize(pr.data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_PrIterationPull);

void BM_PrIterationPush(benchmark::State& state) {
  const Csr& g = micro_graph();
  PageRankOptions opt;
  opt.iterations = 1;
  for (auto _ : state) {
    auto pr = pagerank_push(g, opt);
    benchmark::DoNotOptimize(pr.data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_PrIterationPush);

void BM_PrIterationPushPa(benchmark::State& state) {
  const Csr& g = micro_graph();
  static const PartitionAwareCsr pa(g, Partition1D(g.n(), omp_get_max_threads()));
  PageRankOptions opt;
  opt.iterations = 1;
  for (auto _ : state) {
    auto pr = pagerank_push_pa(g, pa, opt);
    benchmark::DoNotOptimize(pr.data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_PrIterationPushPa);

// --- one full BFS in each direction --------------------------------------------

void BM_BfsPush(benchmark::State& state) {
  const Csr& g = micro_graph();
  for (auto _ : state) {
    auto r = bfs_push(g, 0);
    benchmark::DoNotOptimize(r.dist.data());
  }
}
BENCHMARK(BM_BfsPush);

void BM_BfsPull(benchmark::State& state) {
  const Csr& g = micro_graph();
  for (auto _ : state) {
    auto r = bfs_pull(g, 0);
    benchmark::DoNotOptimize(r.dist.data());
  }
}
BENCHMARK(BM_BfsPull);

void BM_BfsDirOpt(benchmark::State& state) {
  const Csr& g = micro_graph();
  for (auto _ : state) {
    auto r = bfs_direction_optimizing(g, 0);
    benchmark::DoNotOptimize(r.dist.data());
  }
}
BENCHMARK(BM_BfsDirOpt);

// --- tracing overhead contract (DESIGN.md §6) --------------------------------
//
// The *TracerOff rows instantiate the kernels with the live obs::Tracer type
// — the tracing branches are compiled in — but the tracer is runtime-disabled.
// The overhead contract: these rows stay within 2% of their NullTracer
// siblings above (one relaxed atomic load per round, nothing per edge).

obs::Tracer& disabled_tracer() {
  static obs::Tracer t([] {
    obs::TracerOptions o;
    o.start_enabled = false;
    return o;
  }());
  return t;
}

void BM_BfsDirOptTracerOff(benchmark::State& state) {
  const Csr& g = micro_graph();
  for (auto _ : state) {
    auto r = bfs_direction_optimizing(g, 0, {}, NullInstr{}, &disabled_tracer());
    benchmark::DoNotOptimize(r.dist.data());
  }
}
BENCHMARK(BM_BfsDirOptTracerOff);

void BM_PrIterationPullTracerOff(benchmark::State& state) {
  const Csr& g = micro_graph();
  PageRankOptions opt;
  opt.iterations = 1;
  for (auto _ : state) {
    auto pr = pagerank_pull(g, opt, NullInstr{}, &disabled_tracer());
    benchmark::DoNotOptimize(pr.data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_PrIterationPullTracerOff);

// Blocked-pull sibling pair: the blocked executor threads the same stats/
// tracer plumbing as the flat sweep, so the TracerOff row must satisfy the
// same ≤2% parity contract against its NullTracer sibling.
const engine::BlockedView<engine::SymmetricView>& micro_blocked() {
  static const engine::BlockedView<engine::SymmetricView> bv(
      engine::SymmetricView(micro_graph()), engine::BlockedOptions{.num_blocks = 4});
  return bv;
}

void BM_PrIterationPullBlocked(benchmark::State& state) {
  PageRankOptions opt;
  opt.iterations = 1;
  for (auto _ : state) {
    auto pr = pagerank_pull(micro_blocked(), opt);
    benchmark::DoNotOptimize(pr.data());
  }
  state.SetItemsProcessed(state.iterations() * micro_graph().num_arcs());
}
BENCHMARK(BM_PrIterationPullBlocked);

void BM_PrIterationPullBlockedTracerOff(benchmark::State& state) {
  PageRankOptions opt;
  opt.iterations = 1;
  for (auto _ : state) {
    auto pr = pagerank_pull(micro_blocked(), opt, NullInstr{}, &disabled_tracer());
    benchmark::DoNotOptimize(pr.data());
  }
  state.SetItemsProcessed(state.iterations() * micro_graph().num_arcs());
}
BENCHMARK(BM_PrIterationPullBlockedTracerOff);

void BM_CcGreedySwitchTracerOff(benchmark::State& state) {
  const Csr& g = micro_graph();
  CcOptions opt;
  opt.strategy = engine::StrategyKind::GreedySwitch;
  for (auto _ : state) {
    auto r = connected_components(g, opt, NullInstr{}, &disabled_tracer());
    benchmark::DoNotOptimize(r.comp.data());
  }
}
BENCHMARK(BM_CcGreedySwitchTracerOff);

// --- one converged-PageRank sweep on an overlaid DeltaGraph snapshot ---------
//
// A served PageRank reads a snapshot, where every degree/neighbors call first
// resolves its vertex through SnapshotCsr's slot index. The Snapshot rows run
// one pagerank_converged sweep on weighted pok* (scale -1) after 0, 8 and 16
// commits of 16 random weighted edges (the serve_live writer's batch shape);
// the Static rows run the same sweep on that snapshot materialized into a
// plain Csr. The gap between a Snapshot row and its Static sibling is the
// price of the snapshot read path, and should not grow with the commits.

DeltaGraph& overlaid_pok() {
  static DeltaGraph dg(pok_analog(-1, /*weighted=*/true));
  static const bool committed = [] {
    std::mt19937_64 rng(13);
    std::uniform_real_distribution<float> weight(1.0f, 4.0f);
    const auto n = static_cast<std::uint64_t>(dg.n());
    for (int c = 0; c < 16; ++c) {
      for (int i = 0; i < 16; ++i) {
        const auto u = static_cast<vid_t>(rng() % n);
        const auto v = static_cast<vid_t>(rng() % n);
        if (u != v) dg.add_edge(u, v, weight(rng));
      }
      dg.commit();
    }
    return true;
  }();
  (void)committed;
  return dg;
}

template <class View>
void pr_sweep(benchmark::State& state, const View& view) {
  IncrementalOptions opt;
  opt.max_iterations = 1;
  for (auto _ : state) {
    auto fix = pagerank_converged(view, opt);
    benchmark::DoNotOptimize(fix.ranks.data());
  }
  state.SetItemsProcessed(state.iterations() * view.num_arcs());
}

void BM_PrSweepSnapshot(benchmark::State& state) {
  const SnapshotView snap = overlaid_pok().snapshot(state.range(0));
  state.counters["touched"] =
      static_cast<double>(snap.out().touched().size());
  pr_sweep(state, snap);
}
BENCHMARK(BM_PrSweepSnapshot)->Arg(0)->Arg(8)->Arg(16);

void BM_PrSweepStatic(benchmark::State& state) {
  const Csr flat = overlaid_pok().snapshot(state.range(0)).out().materialize();
  pr_sweep(state, engine::SymmetricView(flat));
}
BENCHMARK(BM_PrSweepStatic)->Arg(0)->Arg(8)->Arg(16);

// --- raw engine edge_map throughput, one label-min round per loop shape ------
//
// The same CcPropagate functor through every traversal mode: the deltas
// between these rows are pure engine/loop-shape costs (k-filter merge vs
// dense sweep vs membership filter), with the per-edge work held constant.

void BM_EdgeMapSparsePush(benchmark::State& state) {
  const Csr& g = micro_graph();
  std::vector<vid_t> comp(static_cast<std::size_t>(g.n()));
  engine::Workspace ws(g.n());
  engine::VertexSet in = engine::VertexSet::all(g.n());
  engine::EdgeMapOptions opt;
  opt.dedup_output = true;
  for (auto _ : state) {
    for (vid_t v = 0; v < g.n(); ++v) comp[static_cast<std::size_t>(v)] = v;
    auto out = engine::sparse_push(
        g, ws, in, detail::CcPropagate{comp.data(), nullptr}, opt);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_EdgeMapSparsePush);

void BM_EdgeMapDensePush(benchmark::State& state) {
  const Csr& g = micro_graph();
  std::vector<vid_t> comp(static_cast<std::size_t>(g.n()));
  engine::Workspace ws(g.n());
  engine::EdgeMapOptions opt;
  opt.dedup_output = true;
  for (auto _ : state) {
    for (vid_t v = 0; v < g.n(); ++v) comp[static_cast<std::size_t>(v)] = v;
    auto out = engine::dense_push(g, ws, nullptr,
                                  detail::CcPropagate{comp.data(), nullptr}, opt);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_EdgeMapDensePush);

void BM_EdgeMapDensePull(benchmark::State& state) {
  const Csr& g = micro_graph();
  std::vector<vid_t> comp(static_cast<std::size_t>(g.n()));
  engine::Workspace ws(g.n());
  for (auto _ : state) {
    for (vid_t v = 0; v < g.n(); ++v) comp[static_cast<std::size_t>(v)] = v;
    auto out = engine::dense_pull(g, ws,
                                  detail::CcPropagate{comp.data(), nullptr});
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_EdgeMapDensePull);

// --- cache-blocked pull vs the flat dense sweep ------------------------------
//
// The same CcPropagate round through a BlockedView at several block counts:
// the row-vs-row delta against BM_EdgeMapDensePull is the pure cost/benefit
// of restricting each pass to one source-range column block. Counters report
// the locality model's inputs: the cut-array overhead and the per-block
// source-slice footprint that the LLC budget is sized against.

void BM_EdgeMapBlockedPull(benchmark::State& state) {
  const Csr& g = micro_graph();
  engine::BlockedOptions bo;
  bo.num_blocks = static_cast<int>(state.range(0));
  const engine::BlockedView<engine::SymmetricView> bv(engine::SymmetricView(g),
                                                      bo);
  std::vector<vid_t> comp(static_cast<std::size_t>(g.n()));
  engine::Workspace ws(g.n());
  for (auto _ : state) {
    for (vid_t v = 0; v < g.n(); ++v) comp[static_cast<std::size_t>(v)] = v;
    auto out = engine::dense_pull(bv, ws,
                                  detail::CcPropagate{comp.data(), nullptr});
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
  vid_t widest = 0;
  for (int b = 0; b < bv.num_blocks(); ++b) {
    widest = std::max(widest, bv.block_end(b) - bv.block_begin(b));
  }
  state.counters["blocks"] = static_cast<double>(bv.num_blocks());
  state.counters["cut_bytes"] =
      static_cast<double>(bv.representation_cells() * sizeof(eid_t));
  state.counters["block_src_bytes"] =
      static_cast<double>(widest) * sizeof(double);
}
BENCHMARK(BM_EdgeMapBlockedPull)->Arg(1)->Arg(4)->Arg(16);

// --- per_direction_thresholds: cached census vs O(n) scan --------------------
//
// engine::per_direction_thresholds answers from Csr's cached nonzero-degree
// census when the view exposes it; this pair prices the hoist. The Scan row
// routes the same graph through a facade that hides num_nonempty(), forcing
// the per-call O(n) reduction the cache removed from every directed-BFS run.

struct UncachedFacadeView {
  const Csr* g;
  struct NoCensus {
  } nc;
  const NoCensus& out() const noexcept { return nc; }
  const NoCensus& in() const noexcept { return nc; }
  vid_t n() const noexcept { return g->n(); }
  eid_t num_arcs() const noexcept { return g->num_arcs(); }
  vid_t out_degree(vid_t v) const noexcept { return g->degree(v); }
  vid_t in_degree(vid_t v) const noexcept { return g->degree(v); }
};

void BM_PerDirectionThresholdsCached(benchmark::State& state) {
  const engine::SymmetricView view(micro_graph());
  for (auto _ : state) {
    auto t = engine::per_direction_thresholds(view);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_PerDirectionThresholdsCached);

void BM_PerDirectionThresholdsScan(benchmark::State& state) {
  const UncachedFacadeView view{&micro_graph(), {}};
  for (auto _ : state) {
    auto t = engine::per_direction_thresholds(view);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_PerDirectionThresholdsScan);

// --- frontier-aware pull vs dense pull at fixed frontier densities -----------
//
// Same CcPropagate work as the rows above, but only every `stride`-th vertex
// is active. The FrontierPull row consults the transposed frontier index and
// gallops over in-arc runs from inactive source blocks; the DensePullSparse
// sibling scans every arc and filters per-arc with the changed bitmap (what
// CC's FrontierExploit pull did before the index). Their gap, as a function
// of 1/stride density, is the window DirectionPolicy::pull_shape's gamma is
// tuned against (bench/frontier_sweep.cpp sweeps it finely).

engine::VertexSet strided_frontier(const Csr& g, vid_t stride) {
  std::vector<vid_t> ids;
  for (vid_t v = 0; v < g.n(); v += stride) ids.push_back(v);
  return engine::VertexSet(g.n(), std::move(ids));
}

void BM_EdgeMapFrontierPull(benchmark::State& state) {
  const Csr& g = micro_graph();
  const engine::VertexSet frontier =
      strided_frontier(g, static_cast<vid_t>(state.range(0)));
  std::vector<vid_t> comp(static_cast<std::size_t>(g.n()));
  engine::Workspace ws(g.n());
  for (auto _ : state) {
    for (vid_t v = 0; v < g.n(); ++v) comp[static_cast<std::size_t>(v)] = v;
    engine::FrontierIndex& idx = ws.frontier_index();
    idx.build(frontier.ids());
    auto out = engine::frontier_pull(g, ws, idx,
                                     detail::CcPropagate{comp.data(), nullptr});
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_EdgeMapFrontierPull)->Arg(4)->Arg(32)->Arg(256);

void BM_EdgeMapDensePullSparse(benchmark::State& state) {
  const Csr& g = micro_graph();
  const engine::VertexSet frontier =
      strided_frontier(g, static_cast<vid_t>(state.range(0)));
  std::vector<vid_t> comp(static_cast<std::size_t>(g.n()));
  engine::Workspace ws(g.n());
  for (auto _ : state) {
    for (vid_t v = 0; v < g.n(); ++v) comp[static_cast<std::size_t>(v)] = v;
    auto out = engine::dense_pull(
        g, ws, detail::CcPropagate{comp.data(), &frontier.dense()});
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_EdgeMapDensePullSparse)->Arg(4)->Arg(32)->Arg(256);

// --- full CC runs under each §5 policy bundle --------------------------------

void cc_policy_bench(benchmark::State& state, engine::StrategyKind k) {
  const Csr& g = micro_graph();
  CcOptions opt;
  opt.strategy = k;
  for (auto _ : state) {
    auto r = connected_components(g, opt);
    benchmark::DoNotOptimize(r.comp.data());
  }
}

void BM_CcStaticPush(benchmark::State& s) { cc_policy_bench(s, engine::StrategyKind::StaticPush); }
void BM_CcStaticPull(benchmark::State& s) { cc_policy_bench(s, engine::StrategyKind::StaticPull); }
void BM_CcFrontierExploit(benchmark::State& s) { cc_policy_bench(s, engine::StrategyKind::FrontierExploit); }
void BM_CcGenericSwitch(benchmark::State& s) { cc_policy_bench(s, engine::StrategyKind::GenericSwitch); }
void BM_CcGreedySwitch(benchmark::State& s) { cc_policy_bench(s, engine::StrategyKind::GreedySwitch); }
BENCHMARK(BM_CcStaticPush);
BENCHMARK(BM_CcStaticPull);
BENCHMARK(BM_CcFrontierExploit);
BENCHMARK(BM_CcGenericSwitch);
BENCHMARK(BM_CcGreedySwitch);

}  // namespace
}  // namespace pushpull

BENCHMARK_MAIN();
