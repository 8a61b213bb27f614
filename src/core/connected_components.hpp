// Connected components via label propagation — an engine client written
// against the abstraction alone (~60 lines of algorithm): min-label waves ride
// engine::sparse_push / dense_pull, and the §5 strategies come in as
// DirectionPolicy choices rather than new loops.
//
//   push — dense_push: every vertex re-pushes its label along out-edges each
//          round (AtomicCtx::min), touching all m arcs per round,
//   pull — dense_pull: every vertex re-derives its label from all neighbors
//          (PlainCtx), also all m arcs per round,
//   FE   — Frontier-Exploit: sparse_push over the vertices whose label
//          changed last round — only the frontier's neighborhood is touched,
//   GS   — FE that flips to a dense pull (changed-filtered) when the frontier
//          out-degree crosses the α threshold,
//   GrS  — FE that finishes the sub-threshold remainder with a sequential
//          worklist sweep (the engine supplies the decision, the tail is ~10
//          lines).
//
// The result is policy-invariant: comp[v] = smallest vertex id in v's
// component (asserted against the union-find baseline in the tests).
#pragma once

#include <vector>

#include "engine/edge_map.hpp"
#include "engine/policy.hpp"
#include "graph/csr.hpp"
#include "obs/trace.hpp"
#include "perf/instr.hpp"
#include "util/check.hpp"

namespace pushpull {

struct CcOptions {
  engine::StrategyKind strategy = engine::StrategyKind::GreedySwitch;
  double grs_threshold = 0.05;   // GrS: sequential tail below this fraction
  double alpha = kSwitchAlpha;   // GS work threshold
  double beta = kSwitchBeta;     // GS count threshold
  double gamma = 3.0;            // frontier-aware pull window; 0 disables
};

// `comp` is deterministic under every policy and thread count. The round
// trace is not: labels are lowered in place, so a round may already read
// labels written earlier in the same round. With one OpenMP thread that order
// is fixed and so are `rounds`, `sequential_tail_rounds` and `round_dirs`;
// with more, how far a label travels per round depends on thread scheduling,
// and the same graph can take a different number of rounds from run to run.
struct CcResult {
  std::vector<vid_t> comp;  // smallest vertex id in the component
  int rounds = 0;
  int sequential_tail_rounds = 0;  // GrS: 1 when the tail ran
  std::vector<Direction> round_dirs;
};

namespace detail {

struct CcPropagate {
  vid_t* comp;
  const DenseFrontier* changed;  // pull: only listen to last round's movers

  template <class Ctx>
  bool update(Ctx& ctx, vid_t s, vid_t d, eid_t) const {
    if (changed != nullptr && !changed->test(s)) return false;
    return ctx.min(comp[d], atomic_load(comp[s]));
  }
};

}  // namespace detail

template <CsrLike G, class Instr = NullInstr, class TracerT = obs::NullTracer>
CcResult connected_components(const G& g, const CcOptions& opt = {},
                              Instr instr = {}, TracerT* tracer = nullptr) {
  const vid_t n = g.n();
  CcResult r;
  r.comp.resize(static_cast<std::size_t>(n));
  for (vid_t v = 0; v < n; ++v) r.comp[static_cast<std::size_t>(v)] = v;
  if (n == 0) return r;

  engine::Workspace ws(n);
  engine::DirectionPolicy policy(
      opt.strategy, {opt.alpha, opt.beta, opt.grs_threshold, opt.gamma},
      Direction::Push);
  engine::EdgeMapOptions emo;
  emo.region = 70;
  emo.dedup_output = true;

  engine::VertexSet changed = engine::VertexSet::all(n);
  while (!changed.empty()) {
    const bool trace = obs::tracing(tracer);
    const double active_work = changed.out_degree_sum(g);
    const double active_count = static_cast<double>(changed.size());

    // Greedy-Switch: finish the small remainder with a sequential worklist.
    if (policy.suggest_sequential(active_count, static_cast<double>(n)) &&
        r.rounds > 0) {
      const std::uint64_t t0 = trace ? obs::now_ns() : 0;
      std::vector<vid_t> work(changed.ids().begin(), changed.ids().end());
      while (!work.empty()) {
        const vid_t v = work.back();
        work.pop_back();
        for (vid_t u : g.neighbors(v)) {
          if (r.comp[static_cast<std::size_t>(v)] < r.comp[static_cast<std::size_t>(u)]) {
            r.comp[static_cast<std::size_t>(u)] = r.comp[static_cast<std::size_t>(v)];
            work.push_back(u);
          }
        }
      }
      r.sequential_tail_rounds = 1;
      ++r.rounds;
      if (trace) {
        obs::RoundEvent ev;
        ev.kernel = "cc";
        ev.mode = "sequential-tail";
        ev.round = r.rounds;
        ev.frontier_size = static_cast<std::int64_t>(active_count);
        ev.active_work = static_cast<std::int64_t>(active_work);
        ev.total_work = static_cast<std::int64_t>(g.num_arcs());
        ev.total_count = n;
        ev.alpha = opt.alpha;
        ev.beta = opt.beta;
        ev.t0_ns = t0;
        ev.dur_ns = obs::now_ns() - t0;
        obs::record_round(tracer, ev);
      }
      break;
    }

    const Direction dir =
        policy.choose(active_work, static_cast<double>(g.num_arcs()),
                      active_count, static_cast<double>(n));
    const bool frontier_exploit =
        opt.strategy != engine::StrategyKind::StaticPush &&
        opt.strategy != engine::StrategyKind::StaticPull;
    engine::EdgeMapStats st;
    const std::uint64_t t0 = trace ? obs::now_ns() : 0;
    const CounterBlock c0 = trace ? obs::instr_snapshot(instr) : CounterBlock{};
    engine::EdgeMapStats* stp = trace ? &st : nullptr;
    if (dir == Direction::Push) {
      if (frontier_exploit) {
        // FE: only the changed set's neighborhood is touched this round.
        changed = engine::sparse_push(
            g, ws, changed, detail::CcPropagate{r.comp.data(), nullptr}, emo,
            instr, stp);
      } else {
        // Static push: all m arcs re-pushed every round.
        changed = engine::dense_push(g, ws, /*sources=*/nullptr,
                                     detail::CcPropagate{r.comp.data(), nullptr},
                                     emo, instr, stp);
      }
    } else if (frontier_exploit &&
               policy.pull_shape(active_work,
                                 static_cast<double>(g.num_arcs())) ==
                   engine::PullShape::FrontierIndexed) {
      // Medium-density pull: the changed set is exactly what CcPropagate
      // listens to, so the index filter replaces the per-arc bitmap test and
      // whole blocks with no movers are skipped unread.
      engine::FrontierIndex& idx = ws.frontier_index();
      idx.build(changed.ids());
      changed = engine::frontier_pull(
          g, ws, idx, detail::CcPropagate{r.comp.data(), nullptr}, emo, instr,
          stp);
    } else {
      changed = engine::dense_pull(
          g, ws,
          detail::CcPropagate{r.comp.data(),
                              frontier_exploit ? &changed.dense() : nullptr},
          emo, instr, stp);
    }
    r.round_dirs.push_back(dir);
    ++r.rounds;
    if (trace) {
      obs::RoundEvent ev;
      ev.kernel = "cc";
      ev.mode = engine::to_string(st.mode);
      ev.round = r.rounds;
      ev.frontier_size = static_cast<std::int64_t>(active_count);
      ev.active_work = static_cast<std::int64_t>(active_work);
      ev.total_work = static_cast<std::int64_t>(g.num_arcs());
      ev.total_count = n;
      ev.alpha = opt.alpha;
      ev.beta = opt.beta;
      ev.updates = st.updates;
      ev.t0_ns = t0;
      ev.dur_ns = obs::now_ns() - t0;
      ev.instr = obs::counter_delta(obs::instr_snapshot(instr), c0);
      obs::record_round(tracer, ev);
    }
  }
  return r;
}

}  // namespace pushpull
