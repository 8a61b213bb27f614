// Serving layer (src/serve/) differential + concurrency tests.
//
// Pillars:
//  - multi_source_bfs / multi_source_sssp: every lane of one batched pass is
//    bit-identical to the standalone single-source kernel on the zoo graphs,
//    at 1..64 lanes and 1/4 OpenMP threads.
//  - Snapshot pinning under a live writer (the PR's headline contract): k
//    reader queries pinned to distinct epochs while a writer thread commits
//    throughout; every payload matches a standalone run on the PINNED
//    snapshot, never a later one.
//  - Cache, admission, batching, staleness accounting semantics.
#include <gtest/gtest.h>
#include <omp.h>

#include <future>
#include <random>
#include <thread>
#include <vector>

#include "core/incremental.hpp"
#include "core/sssp_delta.hpp"
#include "graph/delta_graph.hpp"
#include "graph_zoo.hpp"
#include "serve/executor.hpp"
#include "serve/service.hpp"

namespace pushpull {
namespace {

using serve::Algo;
using serve::GraphService;
using serve::QueryRequest;
using serve::QueryResult;
using serve::Reject;

std::vector<vid_t> pick_sources(std::mt19937_64& rng, vid_t n, int k) {
  std::vector<vid_t> s;
  s.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    s.push_back(static_cast<vid_t>(rng() % static_cast<std::uint64_t>(n)));
  }
  return s;
}

// --- Multi-source kernels vs standalone single-source ------------------------

TEST(MultiSourceBfs, LanesMatchSingleSourceOnZoo) {
  std::mt19937_64 rng(42);
  for (int threads : {1, 4}) {
    omp_set_num_threads(threads);
    for (const auto& entry : testing::unweighted_zoo()) {
      engine::SymmetricView view(entry.graph);
      const vid_t n = view.n();
      for (int k : {1, 2, 17, 64}) {
        const std::vector<vid_t> sources = pick_sources(rng, n, k);
        const MultiSourceBfsResult ms = multi_source_bfs(
            view, std::span<const vid_t>(sources));
        ASSERT_EQ(ms.lanes, k);
        for (int l = 0; l < k; ++l) {
          EXPECT_EQ(ms.lane(l, n), bfs_levels(view, sources[l]))
              << entry.name << " lane " << l << " of " << k << " src "
              << sources[l] << " threads " << threads;
        }
      }
    }
  }
  omp_set_num_threads(4);
}

TEST(MultiSourceBfs, DuplicateSourcesShareLevels) {
  const auto& entry = testing::unweighted_zoo().front();
  engine::SymmetricView view(entry.graph);
  const vid_t n = view.n();
  const std::vector<vid_t> sources{3, 3, 3};
  const MultiSourceBfsResult ms =
      multi_source_bfs(view, std::span<const vid_t>(sources));
  const std::vector<vid_t> want = bfs_levels(view, vid_t{3});
  for (int l = 0; l < 3; ++l) EXPECT_EQ(ms.lane(l, n), want);
}

TEST(MultiSourceBfs, StaticDirectionsAgree) {
  std::mt19937_64 rng(7);
  const auto& entry = testing::unweighted_zoo()[8];  // er200
  engine::SymmetricView view(entry.graph);
  const vid_t n = view.n();
  const std::vector<vid_t> sources = pick_sources(rng, n, 9);
  MultiSourceBfsOptions push_opt, pull_opt;
  push_opt.strategy = engine::StrategyKind::StaticPush;
  pull_opt.strategy = engine::StrategyKind::StaticPull;
  const auto a =
      multi_source_bfs(view, std::span<const vid_t>(sources), push_opt);
  const auto b =
      multi_source_bfs(view, std::span<const vid_t>(sources), pull_opt);
  EXPECT_EQ(a.levels, b.levels);
}

TEST(MultiSourceSssp, LanesMatchDeltaSteppingOnZoo) {
  std::mt19937_64 rng(1234);
  for (int threads : {1, 4}) {
    omp_set_num_threads(threads);
    for (const auto& entry : testing::weighted_zoo()) {
      const Csr& g = entry.graph;
      const vid_t n = g.n();
      for (int k : {1, 2, 17}) {
        const std::vector<vid_t> sources = pick_sources(rng, n, k);
        const MultiSourceSsspResult ms =
            multi_source_sssp(g, std::span<const vid_t>(sources));
        ASSERT_EQ(ms.lanes, k);
        for (int l = 0; l < k; ++l) {
          const std::vector<weight_t> want =
              sssp_delta_push(g, sources[l], weight_t{2.0f}).dist;
          const std::vector<weight_t> got = ms.lane(l, n);
          ASSERT_EQ(got.size(), want.size());
          for (vid_t v = 0; v < n; ++v) {
            EXPECT_EQ(got[static_cast<std::size_t>(v)],
                      want[static_cast<std::size_t>(v)])
                << entry.name << " lane " << l << " src " << sources[l]
                << " v " << v << " threads " << threads;
          }
        }
      }
    }
  }
  omp_set_num_threads(4);
}

// --- DeltaGraph staleness exposure -------------------------------------------

TEST(DeltaGraphServe, NumBatchesSinceCountsCommits) {
  DeltaGraph dg(testing::unweighted_zoo().front().graph);
  const epoch_t e0 = dg.epoch();
  EXPECT_EQ(dg.num_batches_since(e0), 0u);
  for (int i = 0; i < 3; ++i) {
    dg.add_edge(0, static_cast<vid_t>(10 + i));
    dg.commit();
  }
  EXPECT_EQ(dg.num_batches_since(e0), 3u);
  EXPECT_EQ(dg.num_batches_since(dg.epoch()), 0u);
  EXPECT_EQ(dg.num_batches_since(e0 + 1), 2u);
}

// --- Service: snapshot pinning under a concurrent writer ---------------------

// Writer commits batches while k readers hold queries pinned to distinct
// epochs. Each payload must equal the standalone kernel on the PINNED
// snapshot — proving later commits never leak into a pinned answer.
TEST(GraphServicePinning, ReadersSeePinnedEpochUnderConcurrentCommits) {
  Csr base = testing::weighted_zoo().front().graph;
  DeltaGraph dg(std::move(base));
  const vid_t n = dg.n();

  // Lay down a few epochs to pin before the service starts.
  std::vector<epoch_t> epochs{dg.epoch()};
  std::mt19937_64 rng(99);
  for (int b = 0; b < 4; ++b) {
    for (int i = 0; i < 8; ++i) {
      const vid_t u = static_cast<vid_t>(rng() % static_cast<std::uint64_t>(n));
      const vid_t v = static_cast<vid_t>(rng() % static_cast<std::uint64_t>(n));
      if (u != v) dg.add_edge(u, v, 1.0f + 0.25f * static_cast<float>(b));
    }
    dg.commit();
    epochs.push_back(dg.epoch());
  }

  // Expected payloads from the pinned snapshots, computed BEFORE the writer
  // starts mutating — the pin contract says later commits cannot change them.
  std::vector<std::vector<vid_t>> want_levels;
  std::vector<std::vector<weight_t>> want_dist;
  for (const epoch_t e : epochs) {
    const SnapshotView snap = dg.snapshot(e);
    want_levels.push_back(
        serve::run_bfs(snap, 0, engine::StrategyKind::GenericSwitch));
    want_dist.push_back(serve::run_sssp(
        snap, 0, 2.0f, engine::StrategyKind::GenericSwitch));
  }

  serve::ServiceOptions opt;
  opt.workers = 3;
  opt.batch_window_us = 100;
  GraphService svc(dg, opt);

  std::atomic<bool> stop_writer{false};
  std::thread writer([&] {
    std::mt19937_64 wrng(7);
    while (!stop_writer.load()) {
      for (int i = 0; i < 8; ++i) {
        const vid_t u =
            static_cast<vid_t>(wrng() % static_cast<std::uint64_t>(n));
        const vid_t v =
            static_cast<vid_t>(wrng() % static_cast<std::uint64_t>(n));
        if (u != v) dg.add_edge(u, v, 0.5f);
      }
      dg.commit();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::future<QueryResult>> futs;
    for (std::size_t i = 0; i < epochs.size(); ++i) {
      QueryRequest req;
      req.algo = (round % 2 == 0) ? Algo::Bfs : Algo::Sssp;
      req.source = 0;
      req.pin_epoch = epochs[i];
      futs.push_back(svc.submit(req));
    }
    for (std::size_t i = 0; i < futs.size(); ++i) {
      const QueryResult r = futs[i].get();
      ASSERT_TRUE(r.ok) << r.reject_detail;
      EXPECT_EQ(r.epoch, epochs[i]);
      if (r.algo == Algo::Bfs) {
        EXPECT_EQ(r.levels, want_levels[i]) << "epoch " << epochs[i];
      } else {
        EXPECT_EQ(r.dist, want_dist[i]) << "epoch " << epochs[i];
      }
    }
  }

  stop_writer.store(true);
  writer.join();
  svc.stop();
}

// Unpinned queries resolve to the latest epoch at submit time and report how
// many commits they are behind by completion.
TEST(GraphServicePinning, UnpinnedQueriesResolveLatestAndReportStaleness) {
  DeltaGraph dg(testing::weighted_zoo().front().graph);
  GraphService svc(dg);
  QueryRequest req;
  req.algo = Algo::Bfs;
  req.source = 1;
  const QueryResult r = svc.submit(req).get();
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.epoch, dg.epoch());
  EXPECT_EQ(r.behind_batches, 0u);

  dg.add_edge(0, 5, 1.0f);
  dg.commit();
  // A result pinned to the old epoch is now one batch behind.
  QueryRequest old_req;
  old_req.algo = Algo::Bfs;
  old_req.source = 1;
  old_req.pin_epoch = r.epoch;
  const QueryResult r2 = svc.submit(old_req).get();
  ASSERT_TRUE(r2.ok);
  EXPECT_EQ(r2.epoch, r.epoch);
  EXPECT_EQ(r2.behind_batches, 1u);
  EXPECT_EQ(r2.levels, r.levels);
}

// --- Service: cache semantics ------------------------------------------------

TEST(GraphServiceCache, HitsOnlyWithinOneEpoch) {
  DeltaGraph dg(testing::weighted_zoo().front().graph);
  GraphService svc(dg);
  QueryRequest req;
  req.algo = Algo::Bfs;
  req.source = 2;

  const QueryResult r1 = svc.submit(req).get();
  ASSERT_TRUE(r1.ok);
  EXPECT_FALSE(r1.from_cache);

  const QueryResult r2 = svc.submit(req).get();
  ASSERT_TRUE(r2.ok);
  EXPECT_TRUE(r2.from_cache);
  EXPECT_EQ(r2.levels, r1.levels);
  EXPECT_EQ(r2.epoch, r1.epoch);

  dg.add_edge(2, 7, 1.0f);
  dg.commit();
  const QueryResult r3 = svc.submit(req).get();
  ASSERT_TRUE(r3.ok);
  EXPECT_FALSE(r3.from_cache);  // new epoch, new key
  EXPECT_EQ(r3.epoch, dg.epoch());

  const serve::ServiceStats st = svc.stats();
  EXPECT_EQ(st.cache_hits, 1u);
  EXPECT_EQ(st.cache_misses, 2u);
}

TEST(GraphServiceCache, WholeGraphAlgorithmsShareOneKeyPerEpoch) {
  DeltaGraph dg(testing::weighted_zoo().front().graph);
  GraphService svc(dg);
  QueryRequest a, b;
  a.algo = b.algo = Algo::Cc;
  a.source = 3;  // source is normalized out of whole-graph cache keys
  b.source = 9;
  const QueryResult r1 = svc.submit(a).get();
  const QueryResult r2 = svc.submit(b).get();
  ASSERT_TRUE(r1.ok && r2.ok);
  EXPECT_FALSE(r1.from_cache);
  EXPECT_TRUE(r2.from_cache);
  EXPECT_EQ(r1.comp, r2.comp);
}

// --- Service: admission ------------------------------------------------------

TEST(GraphServiceAdmission, RejectsWithReason) {
  DeltaGraph dg(testing::weighted_zoo().front().graph);
  GraphService svc(dg);

  QueryRequest bad_source;
  bad_source.algo = Algo::Bfs;
  bad_source.source = dg.n() + 100;
  const QueryResult r1 = svc.submit(bad_source).get();
  EXPECT_FALSE(r1.ok);
  EXPECT_EQ(r1.reject, Reject::BadRequest);

  QueryRequest bad_epoch;
  bad_epoch.algo = Algo::Bfs;
  bad_epoch.pin_epoch = dg.epoch() + 50;
  const QueryResult r2 = svc.submit(bad_epoch).get();
  EXPECT_FALSE(r2.ok);
  EXPECT_EQ(r2.reject, Reject::BadRequest);

  QueryRequest tiny_ops;
  tiny_ops.algo = Algo::Bfs;
  tiny_ops.op_budget = 1;
  const QueryResult r3 = svc.submit(tiny_ops).get();
  EXPECT_FALSE(r3.ok);
  EXPECT_EQ(r3.reject, Reject::OverOpBudget);
  EXPECT_FALSE(r3.reject_detail.empty());

  QueryRequest rushed;
  rushed.algo = Algo::PageRank;
  rushed.time_budget_s = 1e-9;
  const QueryResult r4 = svc.submit(rushed).get();
  EXPECT_FALSE(r4.ok);
  EXPECT_EQ(r4.reject, Reject::OverTimeBudget);

  const serve::ServiceStats st = svc.stats();
  EXPECT_EQ(st.rejected, 4u);
  EXPECT_EQ(st.completed, 0u);
}

TEST(GraphServiceAdmission, CapacityGatesInflightOps) {
  DeltaGraph dg(testing::weighted_zoo().front().graph);
  serve::ServiceOptions opt;
  opt.admission.capacity_ops = 1;  // everything is over capacity
  GraphService svc(dg, opt);
  QueryRequest req;
  req.algo = Algo::Bfs;
  const QueryResult r = svc.submit(req).get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reject, Reject::OverCapacity);
}

TEST(AdmissionController, QueueLimitAndLedger) {
  serve::AdmissionOptions opt;
  opt.max_queue = 2;
  opt.capacity_ops = 1000000;
  serve::AdmissionController ac(opt);
  QueryRequest req;
  req.algo = Algo::Bfs;

  const auto d1 = ac.admit(req, 100, 1000, /*queued=*/0);
  ASSERT_TRUE(d1.ok());
  EXPECT_EQ(d1.priced_ops, serve::AdmissionController::price(Algo::Bfs, 100, 1000));
  EXPECT_EQ(ac.inflight_ops(), d1.priced_ops);

  const auto d2 = ac.admit(req, 100, 1000, /*queued=*/2);
  EXPECT_EQ(d2.reject, Reject::QueueFull);
  EXPECT_EQ(ac.inflight_ops(), d1.priced_ops);  // rejects charge nothing

  ac.release(d1.priced_ops);
  EXPECT_EQ(ac.inflight_ops(), 0u);
}

// --- Service: batching -------------------------------------------------------

// With a wide window and one worker, concurrently submitted same-policy BFS
// queries merge into one multi-source pass; each lane still equals the
// standalone run.
TEST(GraphServiceBatching, MergesCompatibleQueriesAndStaysExact) {
  DeltaGraph dg(testing::weighted_zoo().front().graph);
  const SnapshotView snap = dg.snapshot();
  serve::ServiceOptions opt;
  opt.workers = 1;
  opt.batch_window_us = 100000;  // 100 ms: everything below lands in one pass
  opt.cache_entries = 0;         // force execution for every query
  GraphService svc(dg, opt);

  constexpr int kQueries = 6;
  std::vector<std::future<QueryResult>> futs;
  std::vector<vid_t> sources;
  for (int i = 0; i < kQueries; ++i) {
    QueryRequest req;
    req.algo = Algo::Bfs;
    req.source = static_cast<vid_t>(3 * i + 1);
    sources.push_back(req.source);
    futs.push_back(svc.submit(req));
  }
  int max_lanes = 0;
  for (int i = 0; i < kQueries; ++i) {
    const QueryResult r = futs[static_cast<std::size_t>(i)].get();
    ASSERT_TRUE(r.ok) << r.reject_detail;
    max_lanes = std::max(max_lanes, r.batch_lanes);
    EXPECT_EQ(r.levels, serve::run_bfs(snap, sources[static_cast<std::size_t>(i)],
                                       engine::StrategyKind::GenericSwitch));
  }
  EXPECT_GE(max_lanes, 2);  // the window did merge
  const serve::ServiceStats st = svc.stats();
  EXPECT_GT(st.batched_queries, 0u);
  EXPECT_LT(st.batches, static_cast<std::uint64_t>(kQueries));
}

// The batcher must compare queued queries against the head's key, not against
// a reference into the growing batch: merging enough compatible queries
// reallocates the batch and frees the head (ASan reports the stale read; a
// normal build may merge a CC or wrong-epoch query into the BFS pass). One
// worker is held busy by a PageRank while a BFS head, 20 compatible BFS
// queries and incompatible ones between them queue up; every answer must
// carry its own algorithm and epoch and equal the standalone run.
TEST(GraphServiceBatching, HarvestAfterBatchReallocationStaysExact) {
  DeltaGraph dg(make_undirected_weighted(
      4096, rmat_edges(12, 16, 71), 1.0f, 4.0f, 73));
  const epoch_t e0 = dg.epoch();
  dg.add_edge(0, 4095, 1.5f);
  dg.add_edge(1, 4094, 2.5f);
  const epoch_t e1 = dg.commit();

  serve::ServiceOptions opt;
  opt.workers = 1;
  opt.batch_window_us = 20000;
  opt.cache_entries = 0;  // every query executes
  GraphService svc(dg, opt);

  std::vector<QueryRequest> reqs;
  auto add = [&](Algo algo, vid_t source, epoch_t e) {
    QueryRequest req;
    req.algo = algo;
    req.source = source;
    req.pin_epoch = e;
    reqs.push_back(req);
  };
  add(Algo::PageRank, 0, e1);  // occupies the worker while the rest queue
  add(Algo::Bfs, 0, e0);       // the batch head
  for (vid_t i = 1; i <= 20; ++i) {
    add(Algo::Bfs, 5 * i, e0);  // compatible: forces batch reallocations
    if (i % 4 == 0) add(Algo::Cc, 0, e0);
    if (i % 4 == 2) add(Algo::Bfs, 5 * i, e1);
  }
  std::vector<std::future<QueryResult>> futs;
  for (const QueryRequest& req : reqs) futs.push_back(svc.submit(req));

  int max_lanes = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const QueryRequest& req = reqs[i];
    const QueryResult r = futs[i].get();
    ASSERT_TRUE(r.ok) << r.reject_detail;
    ASSERT_EQ(r.algo, req.algo) << "query " << i;
    ASSERT_EQ(r.epoch, req.pin_epoch) << "query " << i;
    const SnapshotView snap = dg.snapshot(req.pin_epoch);
    switch (req.algo) {
      case Algo::Bfs:
        max_lanes = std::max(max_lanes, r.batch_lanes);
        EXPECT_EQ(r.levels, serve::run_bfs(snap, req.source, req.policy))
            << "query " << i;
        break;
      case Algo::Cc:
        EXPECT_EQ(r.comp, serve::run_cc(snap)) << "query " << i;
        break;
      case Algo::PageRank: {
        // Not bitwise above one OpenMP thread: the dangling-mass reduction
        // combines per-thread partial sums in arrival order.
        const std::vector<double> want = serve::run_pagerank(snap);
        ASSERT_EQ(r.ranks.size(), want.size());
        for (std::size_t v = 0; v < want.size(); ++v) {
          ASSERT_NEAR(r.ranks[v], want[v], 1e-12) << "vertex " << v;
        }
        break;
      }
      case Algo::Sssp:
        FAIL() << "no SSSP query was sent";
    }
  }
  EXPECT_GT(max_lanes, 4);  // the head's pass outgrew several capacities
}

// --- Service: lifecycle ------------------------------------------------------

TEST(GraphServiceLifecycle, StopIsIdempotentAndDtorSafe) {
  DeltaGraph dg(testing::weighted_zoo().front().graph);
  GraphService svc(dg);
  QueryRequest req;
  req.algo = Algo::Cc;
  EXPECT_TRUE(svc.submit(req).get().ok);
  svc.stop();
  svc.stop();
  QueryRequest fresh;  // uncached: a repeat CC would legitimately hit the cache
  fresh.algo = Algo::Bfs;
  fresh.source = 4;
  const QueryResult r = svc.submit(fresh).get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reject, Reject::Shutdown);
}

}  // namespace
}  // namespace pushpull
