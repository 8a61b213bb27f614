// analytics: closed loop, one client. A fixed seeded job list (PageRank with
// a fixed iteration count, BFS and SSSP-Δ from seeded sources, CC) runs back
// to back under the engine's default policies with nproc threads, on two
// resident static graphs: orc* (skewed social, low diameter, dense pull
// dominates) and rca* (road, diameter in the hundreds, hundreds of
// sparse-push rounds and Δ buckets). Nearly all time goes to engine/core;
// serve, DeltaGraph and dist are bypassed.
#include <omp.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <tuple>

#include "core/baselines/baselines.hpp"
#include "core/baselines/union_find.hpp"
#include "core/bfs.hpp"
#include "core/connected_components.hpp"
#include "core/pagerank.hpp"
#include "core/sssp_delta.hpp"
#include "graph/analogs.hpp"
#include "obs/trace.hpp"
#include "perf/counters.hpp"
#include "perf/instr.hpp"
#include "workloads.hpp"

namespace repobench {
namespace {

using namespace pushpull;

// The job list: PageRank with a fixed iteration count, and BFS/SSSP-Δ from
// kSources seeded sources per graph, on orc* at scale 1 and rca* at scale 0
// (the largest instances whose whole job list still runs several times in a
// run). Δ is 16 on the social graph and 32 on the road graph (weights 1–64).
constexpr int kSocialScale = 1;
constexpr int kRoadScale = 0;
constexpr weight_t kSocialDelta = 16;
constexpr weight_t kRoadDelta = 32;
constexpr int kPrIters = 10;
constexpr int kSources = 48;
constexpr int kSetupReps = 5;

enum class Kernel { Pr, Bfs, Sssp, Cc };
constexpr Kernel kKernels[] = {Kernel::Pr, Kernel::Bfs, Kernel::Sssp, Kernel::Cc};

const char* kname(Kernel k) {
  switch (k) {
    case Kernel::Pr: return "pr";
    case Kernel::Bfs: return "bfs";
    case Kernel::Sssp: return "sssp";
    case Kernel::Cc: return "cc";
  }
  return "?";
}

struct Family {
  std::string name;
  Csr g;
  weight_t delta = 1.0f;
  std::vector<vid_t> sources;
};

struct Job {
  int fam = 0;
  Kernel k = Kernel::Pr;
  vid_t src = 0;
};

// One kernel call's output, compared against the reference after the call.
struct Output {
  std::vector<double> pr;
  std::vector<vid_t> levels;
  std::vector<weight_t> dist;
  std::vector<vid_t> comp;
  int buckets = 0;
};

// The engine's default policy per kernel: PageRank pulls (zero-sync), BFS is
// the generic direction switch, SSSP-Δ relaxes by push (the serving
// choice), CC is the greedy switch.
template <class Instr = NullInstr, class TracerT = obs::NullTracer>
Output run_default(const Family& f, Kernel k, vid_t src, int pr_iters, Instr instr = {},
                   TracerT* tracer = nullptr) {
  Output o;
  switch (k) {
    case Kernel::Pr: {
      PageRankOptions po;
      po.iterations = pr_iters;
      o.pr = pagerank_pull(f.g, po, instr, tracer);
      break;
    }
    case Kernel::Bfs:
      o.levels = bfs_direction_optimizing(f.g, src, DirOptParams{}, instr, tracer).dist;
      break;
    case Kernel::Sssp: {
      DeltaSteppingResult r = sssp_delta_push(f.g, src, f.delta, instr);
      o.dist = std::move(r.dist);
      o.buckets = r.epochs;
      break;
    }
    case Kernel::Cc:
      o.comp = connected_components(f.g, CcOptions{}, instr, tracer).comp;
      break;
  }
  return o;
}

// The paper's direction pair for one kernel: static push or static pull.
Output run_direction(const Family& f, Kernel k, vid_t src, int pr_iters, bool push) {
  Output o;
  switch (k) {
    case Kernel::Pr: {
      PageRankOptions po;
      po.iterations = pr_iters;
      o.pr = push ? pagerank_push(f.g, po) : pagerank_pull(f.g, po);
      break;
    }
    case Kernel::Bfs:
      o.levels = push ? bfs_push(f.g, src).dist : bfs_pull(f.g, src).dist;
      break;
    case Kernel::Sssp:
      o.dist = push ? sssp_delta_push(f.g, src, f.delta).dist
                    : sssp_delta_pull(f.g, src, f.delta).dist;
      break;
    case Kernel::Cc: {
      CcOptions co;
      co.strategy = push ? engine::StrategyKind::StaticPush : engine::StrategyKind::StaticPull;
      o.comp = connected_components(f.g, co).comp;
      break;
    }
  }
  return o;
}

// References from core/baselines, computed once per (graph, kernel, source)
// and outside every timed window.
class Checker {
 public:
  Checker(const std::vector<Family>& fams, int pr_iters) : fams_(&fams), pr_iters_(pr_iters) {}

  bool check(int fam, Kernel k, vid_t src, const Output& o, std::string& why) {
    const Output& ref = reference(fam, k, src);
    const std::string where = (*fams_)[fam].name + "." + kname(k) + " source " +
                              std::to_string(src) + ": ";
    switch (k) {
      case Kernel::Pr: {
        if (o.pr.size() != ref.pr.size()) return bad(why, where + "size");
        for (std::size_t i = 0; i < ref.pr.size(); ++i) {
          if (!(std::fabs(o.pr[i] - ref.pr[i]) <= 1e-9)) {
            return bad(why, where + "rank differs from pagerank_seq by more than 1e-9");
          }
        }
        return true;
      }
      case Kernel::Bfs:
        return o.levels == ref.levels || bad(why, where + "levels differ from baseline BFS");
      case Kernel::Sssp: {
        if (o.dist.size() != ref.dist.size()) return bad(why, where + "size");
        for (std::size_t i = 0; i < ref.dist.size(); ++i) {
          const double a = o.dist[i], b = ref.dist[i];
          if (std::isinf(b) ? a != b : !(std::fabs(a - b) <= kSsspRelTol * std::max(1.0, b))) {
            return bad(why, where + "distance differs from Dijkstra beyond 1e-5 relative");
          }
        }
        return true;
      }
      case Kernel::Cc:
        return o.comp == ref.comp || bad(why, where + "labels differ from union-find");
    }
    return false;
  }

  // Distances are float sums; Δ-stepping may add a path's weights in another
  // order than Dijkstra, so they agree to a relative 1e-5, not bitwise.
  static constexpr double kSsspRelTol = 1e-5;

 private:
  static bool bad(std::string& why, std::string msg) {
    why = std::move(msg);
    return false;
  }

  const Output& reference(int fam, Kernel k, vid_t src) {
    const bool sourced = k == Kernel::Bfs || k == Kernel::Sssp;
    const auto key = std::make_tuple(fam, static_cast<int>(k), sourced ? src : vid_t{-1});
    auto it = refs_.find(key);
    if (it != refs_.end()) return it->second;
    const Csr& g = (*fams_)[fam].g;
    Output r;
    switch (k) {
      case Kernel::Pr: {
        PageRankOptions po;
        po.iterations = pr_iters_;
        r.pr = pagerank_seq(g, po);
        break;
      }
      case Kernel::Bfs: r.levels = baseline::bfs(g, src).dist; break;
      case Kernel::Sssp: r.dist = baseline::dijkstra(g, src); break;
      case Kernel::Cc: {
        UnionFind uf(g.n());
        for (vid_t v = 0; v < g.n(); ++v) {
          for (const vid_t u : g.neighbors(v)) uf.unite(v, u);
        }
        std::vector<vid_t> min_id(static_cast<std::size_t>(g.n()), -1);
        r.comp.resize(static_cast<std::size_t>(g.n()));
        for (vid_t v = 0; v < g.n(); ++v) {
          vid_t& m = min_id[static_cast<std::size_t>(uf.find(v))];
          if (m < 0) m = v;  // ascending scan: the first member is the minimum
          r.comp[static_cast<std::size_t>(v)] = m;
        }
        break;
      }
    }
    return refs_.emplace(key, std::move(r)).first->second;
  }

  const std::vector<Family>* fams_;
  int pr_iters_;
  std::map<std::tuple<int, int, vid_t>, Output> refs_;
};

// Per (graph, kernel), the runs of each job.
using Samples = std::map<std::pair<int, Kernel>, JobRuns>;

struct Analytics {
  Analytics(Report& r, SpanLog* s) : rep(r), spans(s) {}
  Report& rep;
  SpanLog* spans;
  int pr_iters = kPrIters;
  std::vector<Family> fams;
  std::vector<Job> jobs;
  std::size_t cursor = 0;
  std::uint64_t job_ids = 0;

  // Runs jobs from the list, cyclically, until their summed wall time
  // reaches `budget_s` and every job kind has run at least once. Each
  // output is checked after its timed call.
  Samples loop(double budget_s, Checker& chk, obs::Tracer* tracer) {
    Samples t;
    double used = 0.0;
    std::size_t ran = 0;
    while (used < budget_s || ran < jobs.size()) {
      const Job& j = jobs[cursor++ % jobs.size()];
      ++ran;
      const Family& f = fams[static_cast<std::size_t>(j.fam)];
      Output o;
      double dt = 0.0;
      {
        SpanLog::Scope s(tracer != nullptr ? spans : nullptr, "core",
                         f.name + "." + kname(j.k), ++job_ids);
        dt = time_s([&] {
          o = tracer != nullptr ? run_default(f, j.k, j.src, pr_iters, NullInstr{}, tracer)
                                : run_default(f, j.k, j.src, pr_iters);
        });
      }
      used += dt;
      t[{j.fam, j.k}][j.src].push_back(dt);
      rep.attempt();
      std::string why;
      if (!chk.check(j.fam, j.k, j.src, o, why)) rep.fail(why);
    }
    return t;
  }
};

}  // namespace

void run_analytics(const RunArgs& args, Report& rep, SpanLog* spans) {
  const int threads = kNproc;
  omp_set_num_threads(threads);  // the one client thread runs its kernels on nproc threads
  Analytics a(rep, spans);
  note_machine(rep);
  rep.note("analytics.threads", threads);

  // Set-up: build both graphs (the analogs' published instances; the seed
  // draws sources and job order), draw sources, then warm every kernel on
  // both graphs once so the first OpenMP region and first-touch page faults
  // land here instead of in the first timed job.
  double build_s = 0.0;
  const double setup_s = cold_setup_s(rep, kSetupReps, [&] {
    a.fams.clear();
    SpanLog::Scope s(spans, "graph", "setup");
    build_s = time_s([&] {
      a.fams.push_back({"social", orc_analog(kSocialScale, true), kSocialDelta, {}});
      a.fams.push_back({"road", rca_analog(kRoadScale, true), kRoadDelta, {}});
    });
    for (std::size_t i = 0; i < a.fams.size(); ++i) {
      a.fams[i].sources = pick_sources(a.fams[i].g, kSources, derive_seed(args.seed, 10 + i));
      for (const Kernel k : kKernels) run_default(a.fams[i], k, a.fams[i].sources[0], a.pr_iters);
    }
  });

  // The job list: every kernel once per source on each graph (PageRank and
  // CC ignore the source), shuffled by the seed.
  for (int fi = 0; fi < static_cast<int>(a.fams.size()); ++fi) {
    for (const vid_t s : a.fams[static_cast<std::size_t>(fi)].sources) {
      for (const Kernel k : kKernels) a.jobs.push_back({fi, k, s});
    }
  }
  std::mt19937_64 rng(derive_seed(args.seed, 3));
  std::shuffle(a.jobs.begin(), a.jobs.end(), rng);

  double graph_bytes = 0.0;
  for (const Family& f : a.fams) {
    note_graph(rep, "graph." + f.name, f.g);
    graph_bytes += csr_bytes(f.g);
  }
  Checker chk(a.fams, a.pr_iters);

  if (!args.trace) {
    // Per kernel, the geometric mean over the two graphs of each graph's
    // job time: a gain on one family that costs the other as much cancels, a
    // change on either alone shows at the square root. A graph's job time is
    // its jobs' median best run (see job_time_ms); the median over all runs
    // is in the detail line.
    const Samples t = a.loop(args.seconds, chk, nullptr);
    std::map<Kernel, std::vector<double>> fam_ms;
    std::map<Kernel, std::size_t> jobs;
    std::vector<double> kind_ms;
    for (const auto& [key, v] : t) {
      const double ms = job_time_ms(v);
      const std::string kind = a.fams[static_cast<std::size_t>(key.first)].name + "." + kname(key.second);
      rep.note(kind + "_ms", ms);
      rep.note(kind + "_ms.p50_all_runs", median(all_runs(v)) * 1e3);
      fam_ms[key.second].push_back(ms);
      jobs[key.second] += all_runs(v).size();
      kind_ms.push_back(ms);
    }
    auto op = [&](Kernel k) { return OpTime{geomean(fam_ms[k]), jobs[k]}; };
    std::size_t ops = 0;
    for (const auto& [k, n] : jobs) ops += n;
    report_end_to_end(rep, setup_s, kSetupReps, op(Kernel::Pr), op(Kernel::Bfs), op(Kernel::Sssp),
                      kind_ms, ops);
    return;
  }

  // Traced run: half the window untraced, half with spans and the kernels'
  // tracer hooks attached; the ratio of the two is the tracing overhead.
  const Samples plain = a.loop(args.seconds / 2, chk, nullptr);
  obs::TracerOptions to;
  to.events_per_thread = std::size_t{1} << 17;
  obs::Tracer tracer(to);
  const Samples traced = a.loop(args.seconds / 2, chk, &tracer);
  if (spans != nullptr) adopt_round_events(*spans, tracer);

  double log_ratio = 0.0;
  int ratios = 0;
  for (const auto& [key, v] : traced) {
    log_ratio += std::log(median(all_runs(v)) / median(all_runs(plain.at(key))));
    ++ratios;
  }
  rep.add("obs.trace_overhead", std::exp(log_ratio / ratios), "ratio", static_cast<std::size_t>(ratios));
  rep.add("graph.build_s", build_s, "s", 1);
  rep.add("graph.bytes", graph_bytes, "bytes", 1);

  // Direction decisions per job, from the kernels' own round events.
  std::map<std::string, std::map<std::string, double>> rounds;  // job kind → mode → count
  std::map<std::string, double> jobs_of_kind;
  if (spans != nullptr) {
    std::map<std::uint64_t, std::string> kind_of;
    for (const Span& s : spans->spans()) {
      if (s.layer == "core") {
        kind_of[s.id] = s.name;
        jobs_of_kind[s.name] += 1;
      }
    }
    for (const Span& s : spans->spans()) {
      if (s.layer != "engine") continue;
      auto it = kind_of.find(s.parent);
      if (it != kind_of.end()) rounds[it->second][s.name.substr(s.name.find('.') + 1)] += 1;
    }
  }
  const Family& social = a.fams[0];
  // Computed, not measured: bytes a pull sweep moves per arc — the neighbor
  // id, its rank and its two offsets per arc, plus per vertex its own offset
  // pair, the rank written and the dangling-mass rank read.
  const double n = social.g.n(), m = static_cast<double>(social.g.num_arcs());
  rep.add("engine.pr.computed_bytes_per_arc",
          (m * (sizeof(vid_t) + sizeof(double) + 2 * sizeof(eid_t)) +
           n * (2 * sizeof(eid_t) + 2 * sizeof(double))) / m,
          "bytes", 1);

  for (int fi = 0; fi < static_cast<int>(a.fams.size()); ++fi) {
    const Family& f = a.fams[static_cast<std::size_t>(fi)];
    const vid_t src = f.sources[0];
    for (const Kernel k : kKernels) {
      const std::string base = f.name + "." + kname(k);
      std::string why;
      // Exact operation counts at one thread (the paper's Table 1).
      omp_set_num_threads(1);
      PerfCounters pc(1);
      const Output counted = run_default(f, k, src, a.pr_iters, CountingInstr(pc));
      const CounterBlock c = pc.total();
      rep.add("engine." + base + ".reads", static_cast<double>(c.reads), "count", 1);
      rep.add("engine." + base + ".writes", static_cast<double>(c.writes), "count", 1);
      rep.add("engine." + base + ".atomics", static_cast<double>(c.atomics), "count", 1);
      rep.add("engine." + base + ".locks", static_cast<double>(c.locks), "count", 1);
      // Single-thread baseline over the first sources, against the
      // nproc-thread median of the same job kind.
      std::vector<double> one;
      for (std::size_t i = 0; i < std::min<std::size_t>(3, f.sources.size()); ++i) {
        one.push_back(time_s([&] { run_default(f, k, f.sources[i], a.pr_iters); }));
      }
      omp_set_num_threads(threads);
      rep.add("engine." + base + ".speedup_1t", median(one) / median(all_runs(plain.at({fi, k}))),
              "ratio", one.size());
      if (k == Kernel::Bfs || k == Kernel::Cc) {
        const auto& r = rounds[base];
        const double njobs = std::max(1.0, jobs_of_kind[base]);
        auto count = [&](const char* mode) {
          auto it = r.find(mode);
          return it == r.end() ? 0.0 : it->second / njobs;
        };
        rep.add("engine." + base + ".rounds_push", count("sparse-push") + count("dense-push"),
                "count", static_cast<std::size_t>(jobs_of_kind[base]));
        rep.add("engine." + base + ".rounds_pull", count("dense-pull"), "count",
                static_cast<std::size_t>(jobs_of_kind[base]));
        rep.add("engine." + base + ".rounds_frontier_pull", count("frontier-pull"), "count",
                static_cast<std::size_t>(jobs_of_kind[base]));
      }
      if (k == Kernel::Sssp && f.name == "road") {
        rep.add("core.road.sssp.buckets", counted.buckets, "count", 1);
      }
      rep.attempt();
      if (!chk.check(fi, k, src, counted, why)) rep.fail(why);
      // The paper's direction pair next to the default policy.
      for (const bool push : {true, false}) {
        Output o;
        double dt = 0.0;
        {
          SpanLog::Scope s(spans, "core", base + (push ? ".push" : ".pull"));
          dt = time_s([&] { o = run_direction(f, k, src, a.pr_iters, push); });
        }
        rep.add("core." + base + (push ? ".push_s" : ".pull_s"), dt, "s", 1);
        rep.attempt();
        if (!chk.check(fi, k, src, o, why)) rep.fail(why);
      }
    }
  }
}

}  // namespace repobench
