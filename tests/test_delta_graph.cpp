// DeltaGraph: the versioned mutable store behind SnapshotView. Covers the
// writer API edge cases (duplicates, absent deletes, self-loops), epoch
// history, snapshot equivalence against statically built CSRs across the
// zoos, kernel bit-identity on SnapshotView vs the static views, compaction
// under live snapshots, and a concurrent writer/reader pass that the TSan CI
// job runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/incremental.hpp"
#include "digraph_zoo.hpp"
#include "engine/graph_view.hpp"
#include "graph/builder.hpp"
#include "graph/delta_graph.hpp"
#include "graph_zoo.hpp"

namespace pushpull {
namespace {

static_assert(engine::GraphView<SnapshotView>);
static_assert(CsrLike<SnapshotCsr>);

// A small symmetric base: path 0-1-2-3-4 plus chord 1-3.
Csr small_base() {
  return make_undirected(
      5, EdgeList{{0, 1, 1.0f}, {1, 2, 1.0f}, {2, 3, 1.0f}, {3, 4, 1.0f},
                  {1, 3, 1.0f}});
}

std::vector<vid_t> sorted_neighbors(const SnapshotCsr& g, vid_t v) {
  auto nb = g.neighbors(v);
  return std::vector<vid_t>(nb.begin(), nb.end());
}

TEST(DeltaGraph, DuplicateInsertsAndAbsentDeletesAreRejected) {
  DeltaGraph dg(small_base());
  EXPECT_FALSE(dg.add_edge(0, 1));  // already in the base
  EXPECT_FALSE(dg.add_edge(1, 0));  // symmetric alias of a base edge
  EXPECT_TRUE(dg.add_edge(0, 2));
  EXPECT_FALSE(dg.add_edge(2, 0));  // already staged
  EXPECT_FALSE(dg.remove_edge(0, 4));  // never existed
  EXPECT_TRUE(dg.remove_edge(4, 3));   // base edge, either orientation
  EXPECT_FALSE(dg.remove_edge(3, 4));  // already gone from staged state
  EXPECT_EQ(dg.pending_updates(), 2u);

  // Staged ops are invisible until commit.
  EXPECT_EQ(dg.snapshot().out().degree(0), 1);
  const epoch_t e = dg.commit();
  EXPECT_EQ(dg.pending_updates(), 0u);
  const SnapshotView snap = dg.snapshot(e);
  EXPECT_EQ(sorted_neighbors(snap.out(), 0), (std::vector<vid_t>{1, 2}));
  EXPECT_EQ(sorted_neighbors(snap.out(), 4), std::vector<vid_t>{});
}

TEST(DeltaGraph, SelfLoopsRoundTrip) {
  DeltaGraph dg(small_base());
  EXPECT_TRUE(dg.add_edge(2, 2));
  EXPECT_FALSE(dg.add_edge(2, 2));
  dg.commit();
  EXPECT_EQ(sorted_neighbors(dg.snapshot().out(), 2),
            (std::vector<vid_t>{1, 2, 3}));
  EXPECT_TRUE(dg.remove_edge(2, 2));
  dg.commit();
  EXPECT_EQ(sorted_neighbors(dg.snapshot().out(), 2),
            (std::vector<vid_t>{1, 3}));
}

TEST(DeltaGraph, ReinsertAfterDeleteWithinOneBatch) {
  DeltaGraph dg(small_base());
  EXPECT_TRUE(dg.remove_edge(1, 2));
  EXPECT_TRUE(dg.add_edge(1, 2));
  dg.commit();
  EXPECT_TRUE(dg.snapshot().out().has_edge(1, 2));
}

TEST(DeltaGraph, EpochHistoryAndBatchesSince) {
  DeltaGraph dg(small_base());
  const epoch_t e0 = dg.epoch();
  EXPECT_EQ(dg.commit(), e0);  // empty commit is a no-op

  dg.add_edge(0, 3);
  const epoch_t e1 = dg.commit();
  EXPECT_EQ(e1, e0 + 1);
  dg.remove_edge(0, 1);
  dg.add_edge(2, 4);
  const epoch_t e2 = dg.commit();
  EXPECT_EQ(e2, e1 + 1);

  const auto batches = dg.batches_since(e0);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].epoch, e1);
  ASSERT_EQ(batches[0].updates.size(), 1u);
  EXPECT_TRUE(batches[0].updates[0].insert);
  EXPECT_EQ(batches[1].epoch, e2);
  EXPECT_EQ(batches[1].updates.size(), 2u);
  EXPECT_TRUE(dg.batches_since(e2).empty());

  // Per-epoch snapshots observe exactly their batch prefix.
  EXPECT_FALSE(dg.snapshot(e0).out().has_edge(0, 3));
  EXPECT_TRUE(dg.snapshot(e1).out().has_edge(0, 3));
  EXPECT_TRUE(dg.snapshot(e1).out().has_edge(0, 1));
  EXPECT_FALSE(dg.snapshot(e2).out().has_edge(0, 1));
}

TEST(DeltaGraph, CompactKeepsLiveSnapshotsValid) {
  DeltaGraph dg(small_base());
  dg.add_edge(0, 4);
  const epoch_t e1 = dg.commit();
  const SnapshotView before = dg.snapshot(e1);

  dg.remove_edge(0, 4);
  const epoch_t e2 = dg.commit();
  const SnapshotView at_e2 = dg.snapshot(e2);
  dg.compact();

  // The pre-compaction snapshots still read their epochs' adjacency.
  EXPECT_TRUE(before.out().has_edge(0, 4));
  EXPECT_FALSE(at_e2.out().has_edge(0, 4));
  // The compacted store answers identically to the last committed epoch and
  // has folded the whole overlay away.
  EXPECT_EQ(dg.oldest_epoch(), e2);
  EXPECT_EQ(dg.overlay_entries(), 0u);
  const SnapshotView after = dg.snapshot();
  EXPECT_EQ(after.epoch(), e2);
  for (vid_t v = 0; v < dg.n(); ++v) {
    EXPECT_EQ(sorted_neighbors(after.out(), v),
              sorted_neighbors(at_e2.out(), v));
  }
  // Staged-but-uncommitted work survives compaction.
  dg.add_edge(0, 2);
  dg.compact();
  EXPECT_EQ(dg.pending_updates(), 1u);
  dg.commit();
  EXPECT_TRUE(dg.snapshot().out().has_edge(0, 2));
}

// Applies a reproducible random batch to both a DeltaGraph and a std::set
// model of the edge set; returns false if they ever disagree on accept.
template <class ApplyStatic>
void random_churn_equivalence(const Csr& base, bool symmetric,
                              std::uint64_t seed, ApplyStatic rebuild) {
  const vid_t n = base.n();
  std::set<std::pair<vid_t, vid_t>> model;  // canonical arcs
  const auto canon = [&](vid_t u, vid_t v) {
    if (symmetric && u > v) std::swap(u, v);
    return std::make_pair(u, v);
  };
  for (vid_t v = 0; v < n; ++v) {
    for (vid_t u : base.neighbors(v)) model.insert(canon(v, u));
  }

  DeltaGraph dg{Csr(base)};
  std::mt19937_64 rng(seed);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 40; ++i) {
      const vid_t u = static_cast<vid_t>(rng() % n);
      const vid_t v = static_cast<vid_t>(rng() % n);
      if ((rng() & 1u) != 0) {
        EXPECT_EQ(dg.add_edge(u, v), model.insert(canon(u, v)).second);
      } else {
        EXPECT_EQ(dg.remove_edge(u, v), model.erase(canon(u, v)) > 0);
      }
    }
    dg.commit();
    if (round == 1) dg.compact();  // interleave compaction mid-churn

    // The snapshot must agree arc-for-arc with a statically rebuilt CSR.
    const SnapshotView snap = dg.snapshot();
    const Csr fresh = rebuild(n, model);
    ASSERT_EQ(snap.num_arcs(), fresh.num_arcs());
    for (vid_t v = 0; v < n; ++v) {
      ASSERT_EQ(sorted_neighbors(snap.out(), v),
                std::vector<vid_t>(fresh.neighbors(v).begin(),
                                   fresh.neighbors(v).end()))
          << "vertex " << v << " round " << round;
    }
  }
}

TEST(DeltaGraph, SnapshotMatchesStaticRebuildAcrossZoo) {
  std::uint64_t seed = 7;
  for (const auto& entry : pushpull::testing::unweighted_zoo()) {
    random_churn_equivalence(
        entry.graph, /*symmetric=*/true, seed++,
        [](vid_t n, const std::set<std::pair<vid_t, vid_t>>& model) {
          EdgeList edges;
          for (const auto& [u, v] : model) edges.push_back(Edge{u, v, 1.0f});
          // The churn legitimately adds self-loops; the rebuild must keep
          // them (make_undirected's builder default would drop them).
          BuildOptions opts;
          opts.remove_self_loops = false;
          return build_csr(n, std::move(edges), opts);
        });
  }
}

TEST(DeltaGraph, DigraphSnapshotKeepsTransposeConsistent) {
  std::uint64_t seed = 1234;
  for (const auto& entry : pushpull::testing::digraph_zoo()) {
    const Digraph& base = entry.graph;
    const vid_t n = base.out.n();
    std::set<std::pair<vid_t, vid_t>> model;
    for (vid_t v = 0; v < n; ++v) {
      for (vid_t u : base.out.neighbors(v)) model.emplace(v, u);
    }
    DeltaGraph dg(Digraph{Csr(base.out), Csr(base.in)});
    std::mt19937_64 rng(seed++);
    for (int i = 0; i < 60; ++i) {
      const vid_t u = static_cast<vid_t>(rng() % n);
      const vid_t v = static_cast<vid_t>(rng() % n);
      if ((rng() & 1u) != 0) {
        EXPECT_EQ(dg.add_edge(u, v), model.emplace(u, v).second);
      } else {
        EXPECT_EQ(dg.remove_edge(u, v), model.erase({u, v}) > 0);
      }
    }
    dg.commit();
    const SnapshotView snap = dg.snapshot();
    EXPECT_FALSE(snap.is_symmetric());
    // in() must be exactly the transpose of out().
    std::set<std::pair<vid_t, vid_t>> fwd, bwd;
    for (vid_t v = 0; v < n; ++v) {
      for (vid_t u : snap.out().neighbors(v)) fwd.emplace(v, u);
      for (vid_t u : snap.in().neighbors(v)) bwd.emplace(u, v);
    }
    EXPECT_EQ(fwd, model) << entry.name;
    EXPECT_EQ(bwd, model) << entry.name;
    // reversed() swaps the roles.
    EXPECT_EQ(&snap.reversed().out(), &snap.in());
  }
}

// Kernels must not be able to tell a SnapshotView from a statically built
// view of the same graph: identical traversal order → bit-identical results.
TEST(DeltaGraph, KernelsBitIdenticalToStaticViews) {
  for (const auto& entry : pushpull::testing::unweighted_zoo()) {
    const vid_t n = entry.graph.n();
    DeltaGraph dg{Csr(entry.graph)};
    std::mt19937_64 rng(n);
    for (int i = 0; i < 30; ++i) {
      const vid_t u = static_cast<vid_t>(rng() % n);
      const vid_t v = static_cast<vid_t>(rng() % n);
      if ((rng() & 1u) != 0) {
        dg.add_edge(u, v);
      } else {
        dg.remove_edge(u, v);
      }
    }
    dg.commit();
    const SnapshotView snap = dg.snapshot();
    const Csr static_g = snap.out().materialize();
    const engine::SymmetricView flat(static_g);

    EXPECT_EQ(bfs_levels(snap, 0), bfs_levels(flat, 0)) << entry.name;
    EXPECT_EQ(cc_labels(snap), cc_labels(flat)) << entry.name;
    const PrFixpoint a = pagerank_converged(snap);
    const PrFixpoint b = pagerank_converged(flat);
    EXPECT_EQ(a.iterations, b.iterations) << entry.name;
    EXPECT_EQ(a.ranks, b.ranks) << entry.name;  // bit-identical, not approx
  }
}

// Writer staging/committing/compacting while another thread snapshots and
// traverses — the TSan job runs this binary to certify the claimed thread
// model (immutable snapshots, mutex-guarded writer state).
TEST(DeltaGraph, ConcurrentWriterAndSnapshotReaders) {
  DeltaGraph dg(make_undirected(256, rmat_edges(8, 4, 99)));
  const vid_t n = dg.n();
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    std::mt19937_64 rng(5);
    for (int round = 0; round < 50; ++round) {
      for (int i = 0; i < 16; ++i) {
        const vid_t u = static_cast<vid_t>(rng() % n);
        const vid_t v = static_cast<vid_t>(rng() % n);
        if ((rng() & 3u) != 0) {
          dg.add_edge(u, v);
        } else {
          dg.remove_edge(u, v);
        }
      }
      dg.commit();
      if (round % 8 == 7) dg.compact();
    }
    stop.store(true, std::memory_order_release);
  });

  // do/while: at least one traversal runs even when the writer wins the
  // scheduling race and finishes before the first stop check.
  do {
    const SnapshotView snap = dg.snapshot();
    // A snapshot is frozen: within it, arc counts and adjacency agree no
    // matter how far the writer has advanced in the meantime.
    eid_t arcs = 0;
    for (vid_t v = 0; v < n; ++v) {
      arcs += snap.out().degree(v);
      for (vid_t u : snap.out().neighbors(v)) {
        ASSERT_TRUE(u >= 0 && u < n);
      }
    }
    ASSERT_EQ(arcs, snap.num_arcs());
  } while (!stop.load(std::memory_order_acquire));
  writer.join();
}

// --- The slot index: O(1) reads over any touched set --------------------------

// A DeltaGraph beside a std::set model of its visible arcs.
struct ModeledDelta {
  DeltaGraph dg;
  bool symmetric;
  std::set<std::pair<vid_t, vid_t>> arcs;

  template <class Base>
  ModeledDelta(Base base, bool sym) : dg(std::move(base)), symmetric(sym) {
    const SnapshotView snap = dg.snapshot();
    for (vid_t v = 0; v < dg.n(); ++v) {
      for (vid_t u : snap.out().neighbors(v)) arcs.emplace(v, u);
    }
  }

  // Insert arc u→v when absent, remove it when present.
  void toggle(vid_t u, vid_t v) {
    if (arcs.count({u, v}) != 0) {
      ASSERT_TRUE(dg.remove_edge(u, v));
      arcs.erase({u, v});
      if (symmetric) arcs.erase({v, u});
    } else {
      ASSERT_TRUE(dg.add_edge(u, v, 0.5f + static_cast<float>((u + v) % 7)));
      arcs.emplace(u, v);
      if (symmetric) arcs.emplace(v, u);
    }
  }
};

// Every read of one snapshot side agrees with the model and with the
// materialized CSR, and the edge ids of [edge_begin, edge_end) map back to
// neighbors(v) and weights(v) through edge_target and edge_weight.
void expect_side_reads_exact(const SnapshotCsr& g,
                             const std::set<std::pair<vid_t, vid_t>>& arcs,
                             bool transposed, const std::string& what) {
  const Csr flat = g.materialize();
  ASSERT_EQ(flat.n(), g.n()) << what;
  ASSERT_EQ(flat.num_arcs(), g.num_arcs()) << what;
  ASSERT_EQ(static_cast<std::size_t>(g.num_arcs()), arcs.size()) << what;
  for (vid_t v = 0; v < g.n(); ++v) {
    const auto nb = g.neighbors(v);
    ASSERT_EQ(g.degree(v), flat.degree(v)) << what << " v " << v;
    ASSERT_EQ(nb.size(), static_cast<std::size_t>(g.degree(v))) << what;
    ASSERT_TRUE(std::ranges::equal(nb, flat.neighbors(v))) << what << " v " << v;
    for (vid_t u : nb) {
      ASSERT_EQ(arcs.count(transposed ? std::pair{u, v} : std::pair{v, u}), 1u)
          << what << " v " << v << " u " << u;
    }
    if (g.has_weights()) {
      ASSERT_TRUE(std::ranges::equal(g.weights(v), flat.weights(v)))
          << what << " v " << v;
    }
    const eid_t b = g.edge_begin(v);
    ASSERT_EQ(g.edge_end(v) - b, static_cast<eid_t>(g.degree(v))) << what;
    for (std::size_t i = 0; i < nb.size(); ++i) {
      const eid_t e = b + static_cast<eid_t>(i);
      ASSERT_EQ(g.edge_target(e), nb[i]) << what << " v " << v;
      if (g.has_weights()) {
        ASSERT_EQ(g.edge_weight(e), g.weights(v)[i]) << what << " v " << v;
      }
    }
  }
}

void expect_snapshot_reads_exact(const ModeledDelta& md,
                                 const std::string& what) {
  const SnapshotView snap = md.dg.snapshot();
  expect_side_reads_exact(snap.out(), md.arcs, false, what + " out");
  if (!md.symmetric) {
    expect_side_reads_exact(snap.in(), md.arcs, true, what + " in");
  }
}

void slot_index_edge_cases(ModeledDelta& md, const std::string& name) {
  const vid_t n = md.dg.n();
  ASSERT_GE(n, 2);
  auto touched = [&] {
    const SnapshotView snap = md.dg.snapshot();
    const auto t = snap.out().touched();
    return std::vector<vid_t>(t.begin(), t.end());
  };

  // Nothing touched: every vertex reads from the base.
  EXPECT_TRUE(touched().empty()) << name;
  expect_snapshot_reads_exact(md, name + " untouched");

  // The first and last vertex: the index's boundary entries.
  md.toggle(0, n - 1);
  if (!md.symmetric) md.toggle(n - 1, 0);
  md.dg.commit();
  ASSERT_EQ(touched().size(), 2u) << name;
  EXPECT_EQ(touched().front(), 0) << name;
  EXPECT_EQ(touched().back(), n - 1) << name;
  expect_snapshot_reads_exact(md, name + " ends");

  // Every vertex touched: no read falls through to the base.
  for (vid_t v = 0; v < n; ++v) md.toggle(v, v);
  md.dg.commit();
  EXPECT_EQ(touched().size(), static_cast<std::size_t>(n)) << name;
  if (!md.symmetric) {
    EXPECT_EQ(md.dg.snapshot().in().touched().size(),
              static_cast<std::size_t>(n))
        << name;
  }
  expect_snapshot_reads_exact(md, name + " all");

  // Compaction folds the overlay into a fresh base; the index of a snapshot
  // over it starts empty and refills from the next commit.
  md.dg.compact();
  EXPECT_TRUE(touched().empty()) << name;
  expect_snapshot_reads_exact(md, name + " compacted");
  for (vid_t v = 0; v < n; v += 3) md.toggle(v, n - 1 - v);
  md.dg.commit();
  EXPECT_FALSE(touched().empty()) << name;
  expect_snapshot_reads_exact(md, name + " after compact");
}

TEST(SnapshotSlotIndex, EdgeCasesOnSymmetricGraph) {
  for (const auto& entry : pushpull::testing::weighted_zoo()) {
    if (entry.name != "w_ba300" && entry.name != "w_path50") continue;
    ModeledDelta md(Csr(entry.graph), /*sym=*/true);
    slot_index_edge_cases(md, entry.name);
  }
}

TEST(SnapshotSlotIndex, EdgeCasesOnDigraph) {
  for (const auto& entry : pushpull::testing::digraph_zoo()) {
    ModeledDelta md(Digraph{Csr(entry.graph.out), Csr(entry.graph.in)},
                    /*sym=*/false);
    slot_index_edge_cases(md, entry.name);
  }
}

}  // namespace
}  // namespace pushpull
