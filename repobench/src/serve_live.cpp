// serve_live: open loop at fixed offered rates into GraphService over a
// weighted pok* DeltaGraph (the analog's published instance; the seed draws
// the query stream and the writer's batches), with a writer committing
// beside the readers.
// The only workload where serve (admission, batching, cache) and the
// DeltaGraph (commit, snapshot, overlay growth, compaction) do the work.
//
// One generator thread sends at a fixed design rate: BFS, SSSP and CC in the
// proportions of bench/serve_workload, with Zipf-skewed sources (some repeat,
// most do not), plus a PageRank once per compaction period; each query is
// pinned to the latest epoch at send time. Each algorithm's median latency,
// timed from the scheduled send, is reported on its own. The writer commits
// small weighted batches on the same clock — a fixed commit count per second
// of run — and compacts every N commits, but only after every in-flight
// query pinned to an older epoch has drained (the pinning contract in
// serve/service.hpp); the wait is measured, not hidden.
// Between compactions the overlay keeps growing, and with it the cost of
// every snapshot-backed kernel.
//
// Every served answer is checked after the run, bitwise, against serve::run_*
// on snapshot(epoch); the writer takes that snapshot right after each commit,
// before any compaction can retire the epoch.
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <future>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <thread>
#include <tuple>

#include "core/incremental.hpp"
#include "graph/analogs.hpp"
#include "graph/delta_graph.hpp"
#include "obs/trace.hpp"
#include "openloop.hpp"
#include "serve/executor.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

namespace repobench {
namespace {

using namespace pushpull;
using serve::Algo;
using serve::Reject;

// Workload constants, and what each rests on.
// From bench/serve_workload, the repository's existing serving traffic: the
// BFS:SSSP:CC proportions (45:40:8), the writer's 16-edge insert batches and
// the weighted pok* graph. The writer's weights come from the analog's own
// range (1–64), and SSSP's Δ is the one analytics uses on the social graph.
// Measured, and why serve_workload's 7% PageRank share is not used: on an
// overlaid pok* snapshot a PageRank (converged to 1e-12, about 110 sweeps)
// takes 0.25 s at scale -2, 0.6 s at scale -1 and 0.9–1.5 s at scale 0,
// hundreds of times a traversal. At 7% it alone saturated the four workers
// below 100 queries/s on scale 0 (p50 over 2 s); on scale -2 at 120/s its
// tail made p99 and max_qps vary by 40–70% between seeds. Sent once a second
// at random phases of the compaction cycle on scale 0, it held a worker most
// of the time and its own median latency varied by 22% (IQR over median, ten
// seeds). So PageRank runs on a timer locked to the compaction cycle (below),
// its latency reported as pr_ms, on scale -1, where it finishes well inside
// half a cycle.
// Designed, not taken from any measured trace: the Zipf skew of the sources,
// the commit rate and compaction cadence (PageRank's cost grows several-fold
// between compactions) and the design rate (about a quarter of the measured
// capacity of 1000–1600 queries/s).
constexpr int kPokScale = -1;
constexpr int kMixWeights[] = {45, 40, 8};  // BFS, SSSP-Δ, CC
constexpr double kZipfS = 0.6;
constexpr int kCommitEdges = 16;
constexpr double kCommitsPerS = 10;
constexpr int kCompactEvery = 16;
constexpr weight_t kSsspDelta = 16;
constexpr double kDesignRate = 330;
// PageRank falls due at fixed times on the writer's clock, whatever the
// offered rate: once per compaction period, midway between compactions, so
// each sees a half-grown overlay and (taking well under half a period) has
// finished before the next compaction drains pins.
constexpr std::uint64_t kCompactPeriodNs =
    static_cast<std::uint64_t>(kCompactEvery / kCommitsPerS * 1e9);
constexpr double kLagLimitMs = 50;  // generator health
constexpr int kSetupReps = 5;

const char* short_name(Algo a) { return a == Algo::PageRank ? "pr" : serve::to_string(a); }

std::uint64_t hash_bytes(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ULL ^ bytes;
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 0x100000001b3ULL;
    h ^= h >> 29;
  }
  for (; i < bytes; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return h;
}

template <class T>
std::uint64_t hash_vec(const std::vector<T>& v) {
  return hash_bytes(v.data(), v.size() * sizeof(T));
}

std::uint64_t payload_hash(const serve::QueryResult& r) {
  switch (r.algo) {
    case Algo::Bfs: return hash_vec(r.levels);
    case Algo::Sssp: return hash_vec(r.dist);
    case Algo::PageRank: return hash_vec(r.ranks);
    case Algo::Cc: return hash_vec(r.comp);
  }
  return 0;
}

// One send and what came back.
struct Record {
  Algo algo = Algo::Bfs;
  vid_t source = 0;
  epoch_t pin = -1;
  std::uint64_t due_ns = 0;
  std::uint64_t sent_ns = 0;
  double submit_us = 0.0;
  bool ok = false;
  Reject reject = Reject::None;
  bool from_cache = false;
  std::size_t behind = 0;
  double latency_ms = 0.0;  // from the due time
  std::uint64_t hash = 0;
  bool done = false;
  bool wrong = false;  // set by the post-run check
};

// Pinned-epoch ledger shared by the generator (pin + register), the
// collector (release) and the writer (drain before compaction).
class PinLedger {
 public:
  epoch_t pin_latest(const DeltaGraph& dg) {
    std::lock_guard<std::mutex> lk(mu_);
    const epoch_t e = dg.epoch();
    ++inflight_[e];
    return e;
  }
  void release(epoch_t e) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (--inflight_[e] == 0) inflight_.erase(e);
    }
    cv_.notify_all();
  }
  // Blocks until no in-flight query is pinned below `e`.
  void drain_below(epoch_t e) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return inflight_.empty() || inflight_.begin()->first >= e; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<epoch_t, int> inflight_;
};

// Resolves futures as they become ready (not in send order, so one long
// query cannot hide later completions from the drain wait or the pin
// ledger), filling records; the service's own submit-to-completion time
// anchors completion, so the collector's pace does not leak into latency.
class Collector {
 public:
  Collector(std::vector<Record>& records, PinLedger& ledger)
      : records_(records), ledger_(ledger), thread_([this] { loop(); }) {}
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;
  ~Collector() { finish(); }

  void push(std::size_t idx, std::future<serve::QueryResult> fut) {
    std::lock_guard<std::mutex> lk(mu_);
    incoming_.emplace_back(idx, std::move(fut));
  }
  std::uint64_t completed() const { return completed_.load(std::memory_order_acquire); }
  // Resolves everything pushed so far, then stops the thread.
  void finish() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

 private:
  using Item = std::pair<std::size_t, std::future<serve::QueryResult>>;

  void loop() {
    std::vector<Item> pending;
    for (;;) {
      const bool stopping = stop_.load(std::memory_order_acquire);
      {
        std::lock_guard<std::mutex> lk(mu_);
        for (Item& it : incoming_) pending.push_back(std::move(it));
        incoming_.clear();
      }
      if (stopping && pending.empty()) return;
      std::size_t kept = 0;
      for (Item& it : pending) {
        if (it.second.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
          record(it.first, it.second.get());
        } else {
          pending[kept++] = std::move(it);
        }
      }
      pending.resize(kept);
      if (!pending.empty()) {
        pending.front().second.wait_for(std::chrono::milliseconds(1));
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }

  void record(std::size_t idx, const serve::QueryResult& r) {
    Record& rec = records_[idx];
    rec.ok = r.ok;
    rec.reject = r.reject;
    rec.from_cache = r.from_cache;
    rec.behind = r.behind_batches;
    rec.latency_ms = latency_from_due_ms(rec.due_ns, rec.sent_ns, r.latency_s);
    if (r.ok) rec.hash = payload_hash(r);
    rec.done = true;
    ledger_.release(rec.pin);
    completed_.fetch_add(1, std::memory_order_release);
  }

  std::vector<Record>& records_;
  PinLedger& ledger_;
  std::mutex mu_;
  std::vector<Item> incoming_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> completed_{0};
  std::thread thread_;  // last: starts after the members it uses
};

// Seeded query stream: the kMixWeights mix with Zipf-ranked sources mapped
// through a seeded permutation of the giant component (hot vertices are
// arbitrary, not low ids, and no query degenerates to a tiny component), and
// the first send due at or after each PageRank time turned into a PageRank.
class QueryGen {
 public:
  QueryGen(std::vector<vid_t> pool, std::uint64_t seed, std::uint64_t writer_t0_ns)
      : rng_(seed), perm_(std::move(pool)), next_pr_ns_(writer_t0_ns + kCompactPeriodNs / 2) {
    cdf_.resize(perm_.size());
    double acc = 0.0;
    for (std::size_t r = 0; r < perm_.size(); ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
      cdf_[r] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }

  // Fills in a send whose due time is already set.
  void next(Record& rec) {
    std::uniform_real_distribution<double> u(0.0, 1.0);
    const std::size_t rank = static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u(rng_)) - cdf_.begin());
    rec.source = perm_[std::min(rank, perm_.size() - 1)];
    if (rec.due_ns >= next_pr_ns_) {
      while (next_pr_ns_ <= rec.due_ns) next_pr_ns_ += kCompactPeriodNs;
      rec.algo = Algo::PageRank;
      return;
    }
    constexpr Algo kMix[] = {Algo::Bfs, Algo::Sssp, Algo::Cc};
    int roll = static_cast<int>(rng_() % (kMixWeights[0] + kMixWeights[1] + kMixWeights[2]));
    std::size_t a = 0;
    while (roll >= kMixWeights[a]) roll -= kMixWeights[a++];
    rec.algo = kMix[a];
  }

 private:
  std::mt19937_64 rng_;
  std::vector<vid_t> perm_;
  std::vector<double> cdf_;
  std::uint64_t next_pr_ns_;
};

// The writer's measurements.
struct WriterLog {
  std::vector<double> commit_us, snapshot_ms, touched, overlay, compact_ms, compact_wait_ms;
  std::map<epoch_t, SnapshotView> snaps;  // every committed epoch, for the check
  std::uint64_t commits = 0;
};

struct Phase {
  std::size_t first = 0;  // record range
  std::size_t last = 0;
  LagAccount lag;  // generator health over this phase's sends
  serve::ServiceStats before, after;
};

struct ServeLive {
  ServeLive(const RunArgs& a, Report& r, SpanLog* sp) : args(a), rep(r), spans(sp) {}
  const RunArgs& args;
  Report& rep;
  SpanLog* spans;
  std::unique_ptr<DeltaGraph> dg;
  std::vector<vid_t> pool;  // giant-component vertices, seeded order
  std::unique_ptr<serve::GraphService> svc;
  obs::Tracer tracer{[] {
    obs::TracerOptions o;
    o.events_per_thread = std::size_t{1} << 16;
    o.start_enabled = false;
    return o;
  }()};
  // Sized once before any send: the collector writes into it concurrently.
  std::vector<Record> records;
  std::size_t next_record = 0;
  PinLedger ledger;
  WriterLog wlog;

  void setup(double& build_s) {
    svc.reset();
    dg.reset();
    SpanLog::Scope s(spans, "graph", "setup");
    build_s = time_s([&] {
      Csr g = pok_analog(kPokScale, true);
      pool = pick_sources(g, g.n(), derive_seed(args.seed, 2));
      dg = std::make_unique<DeltaGraph>(std::move(g));
    });
    dg->set_tracer(&tracer);
    serve::ServiceOptions so;  // the service's defaults otherwise
    so.workers = kNproc;
    so.sssp_delta = kSsspDelta;
    so.tracer = &tracer;
    svc = std::make_unique<serve::GraphService>(*dg, so);
    // Warm-up: every algorithm once per worker, so the workers' first
    // OpenMP regions and first-touch faults are paid here.
    std::vector<std::future<serve::QueryResult>> warm;
    for (int w = 0; w < so.workers; ++w) {
      for (const Algo a : {Algo::Bfs, Algo::Sssp, Algo::PageRank, Algo::Cc}) {
        serve::QueryRequest q;
        q.algo = a;
        q.source = static_cast<vid_t>(w);
        warm.push_back(svc->submit(q));
      }
    }
    for (auto& f : warm) {
      if (!f.get().ok) rep.fail("warm-up query rejected");
    }
  }

  // The writer: commits on the generator's clock, probes a snapshot of each
  // new epoch, and compacts every N commits after older pins drain.
  void writer_loop(std::uint64_t t0_ns, const std::atomic<bool>& stop) {
    const double interval_ns = 1e9 / kCommitsPerS;
    std::mt19937_64 rng(derive_seed(args.seed, 7));
    std::uniform_real_distribution<float> wdist(1.0f, 64.0f);
    const vid_t n = dg->n();
    for (std::uint64_t k = 1;; ++k) {
      const std::uint64_t due = t0_ns + static_cast<std::uint64_t>(static_cast<double>(k) * interval_ns);
      while (obs::now_ns() < due) {
        if (stop.load(std::memory_order_acquire)) return;
        const std::uint64_t left = due - obs::now_ns();
        std::this_thread::sleep_for(std::chrono::nanoseconds(std::min<std::uint64_t>(left, 2'000'000)));
      }
      if (stop.load(std::memory_order_acquire)) return;
      for (int i = 0; i < kCommitEdges; ++i) {
        const vid_t u = static_cast<vid_t>(rng() % static_cast<std::uint64_t>(n));
        const vid_t v = static_cast<vid_t>(rng() % static_cast<std::uint64_t>(n));
        if (u != v) dg->add_edge(u, v, wdist(rng));
      }
      SpanLog* sp = tracer.enabled() ? spans : nullptr;
      epoch_t e = 0;
      {
        SpanLog::Scope s(sp, "graph", "delta.commit");
        wlog.commit_us.push_back(time_s([&] { e = dg->commit(); }) * 1e6);
      }
      ++wlog.commits;
      {
        SpanLog::Scope s(sp, "graph", "delta.snapshot");
        std::optional<SnapshotView> snap;
        wlog.snapshot_ms.push_back(time_s([&] { snap.emplace(dg->snapshot(e)); }) * 1e3);
        wlog.touched.push_back(static_cast<double>(snap->out().touched().size()));
        wlog.snaps.emplace(e, *snap);
      }
      wlog.overlay.push_back(static_cast<double>(dg->overlay_entries()));
      if (wlog.commits % kCompactEvery == 0) {
        wlog.compact_wait_ms.push_back(time_s([&] { ledger.drain_below(e); }) * 1e3);
        SpanLog::Scope s(sp, "graph", "delta.compact");
        wlog.compact_ms.push_back(time_s([&] { dg->compact(); }) * 1e3);
      }
    }
  }

  // One open-loop phase at a fixed rate.
  Phase send_phase(double rate, double seconds, QueryGen& gen, Collector& col) {
    Phase ph;
    ph.before = svc->stats();
    ph.first = next_record;
    ph.last = next_record + sends_for(rate, seconds);
    next_record = ph.last;
    SpanLog* sp = tracer.enabled() ? spans : nullptr;
    Schedule sched{obs::now_ns() + 1'000'000, rate};
    for (std::uint64_t i = 0; i < ph.last - ph.first; ++i) {
      const std::size_t idx = ph.first + i;
      Record& rec = records[idx];
      rec.due_ns = sched.due_ns(i);
      gen.next(rec);
      wait_until_ns(rec.due_ns);
      serve::QueryRequest q;
      q.algo = rec.algo;
      q.source = rec.source;
      rec.pin = ledger.pin_latest(*dg);
      q.pin_epoch = rec.pin;
      rec.sent_ns = obs::now_ns();
      ph.lag.note(rec.due_ns, rec.sent_ns);
      std::future<serve::QueryResult> fut;
      {
        SpanLog::Scope s(sp, "serve", std::string("submit.") + short_name(rec.algo), idx + 1);
        fut = svc->submit(q);
      }
      rec.submit_us = static_cast<double>(obs::now_ns() - rec.sent_ns) * 1e-3;
      col.push(idx, std::move(fut));
    }
    // Drain outside the window: the next phase starts from an empty queue.
    while (col.completed() < ph.last) std::this_thread::sleep_for(std::chrono::microseconds(200));
    ph.after = svc->stats();
    return ph;
  }

  // Latencies from the due times over a phase's sends of one algorithm (all
  // algorithms if none is given); a refused query counts as infinitely late.
  std::vector<double> latencies(const Phase& ph, std::optional<Algo> algo = std::nullopt) const {
    std::vector<double> v;
    for (std::size_t i = ph.first; i < ph.last; ++i) {
      if (algo && records[i].algo != *algo) continue;
      v.push_back(records[i].ok ? records[i].latency_ms : std::numeric_limits<double>::infinity());
    }
    return v;
  }

  static std::size_t sends_for(double rate, double seconds) {
    return std::max<std::size_t>(1, static_cast<std::size_t>(rate * seconds));
  }
};

}  // namespace

void run_serve_live(const RunArgs& args, Report& rep, SpanLog* spans) {
  ServeLive s(args, rep, spans);
  note_machine(rep);
  double build_s = 0.0;
  const double setup_s = cold_setup_s(rep, kSetupReps, [&] { s.setup(build_s); });
  note_graph(rep, "graph.pok", s.dg->snapshot().out().base());
  const double graph_bytes = csr_bytes(s.dg->snapshot().out().base());

  // The design phase fills the run; the traced run splits it into an
  // untraced and a traced half.
  const double design_s = args.trace ? args.seconds / 2 : args.seconds;
  s.records.resize(ServeLive::sends_for(kDesignRate, design_s) * (args.trace ? 2 : 1));

  std::vector<Phase> phases;
  {
    Collector col(s.records, s.ledger);
    std::atomic<bool> stop{false};
    s.wlog.snaps.emplace(s.dg->epoch(), s.dg->snapshot());
    const std::uint64_t t0 = obs::now_ns();
    QueryGen gen(s.pool, derive_seed(args.seed, 5), t0);
    std::thread writer([&] { s.writer_loop(t0, stop); });
    phases.push_back(s.send_phase(kDesignRate, design_s, gen, col));
    if (args.trace) {
      // Second half with every hook attached: the traced design phase.
      s.tracer.set_enabled(true);
      phases.push_back(s.send_phase(kDesignRate, design_s, gen, col));
      s.tracer.set_enabled(false);
    }
    stop.store(true, std::memory_order_release);
    writer.join();
    col.finish();
  }
  s.svc->stop();
  const std::size_t sent_total = phases.back().last;

  // ---- checks, all after the timed phases --------------------------------
  // Unique (algo, source, epoch) answers: one reference per key, bitwise.
  using Key = std::tuple<int, vid_t, epoch_t>;
  std::map<Key, std::vector<std::size_t>> by_key;
  for (std::size_t i = 0; i < sent_total; ++i) {
    const Record& r = s.records[i];
    rep.attempt();
    if (!r.done) {
      rep.fail("query " + std::to_string(i) + " never completed");
      continue;
    }
    // The pinning discipline above must keep every pin snapshottable.
    if (r.reject == Reject::BadRequest || r.reject == Reject::Shutdown) {
      rep.fail(std::string("query ") + std::to_string(i) + " rejected: " + serve::to_string(r.reject));
      continue;
    }
    if (!r.ok) continue;
    const bool whole = r.algo == Algo::PageRank || r.algo == Algo::Cc;
    by_key[{static_cast<int>(r.algo), whole ? vid_t{-1} : r.source, r.pin}].push_back(i);
  }
  std::vector<std::pair<Key, std::vector<std::size_t>>> keys(by_key.begin(), by_key.end());
  std::map<std::string, std::vector<double>> kernel_ms;
  std::vector<double> pr_iters;
  std::mutex mu;
  std::atomic<std::size_t> next{0};
  auto verify = [&] {
    for (std::size_t k; (k = next.fetch_add(1)) < keys.size();) {
      const auto& [key, idxs] = keys[k];
      const auto [algo_i, src, epoch] = key;
      const Algo algo = static_cast<Algo>(algo_i);
      const SnapshotView& view = s.wlog.snaps.at(epoch);
      std::uint64_t want = 0;
      int iters = 0;
      const double ms = time_s([&] {
        switch (algo) {
          case Algo::Bfs:
            want = hash_vec(serve::run_bfs(view, src, engine::StrategyKind::GenericSwitch));
            break;
          case Algo::Sssp:
            want = hash_vec(serve::run_sssp(view, src, kSsspDelta, engine::StrategyKind::GenericSwitch));
            break;
          case Algo::PageRank: {
            // serve::run_pagerank is pagerank_converged(view).ranks; called
            // directly to also read the iteration count.
            const PrFixpoint fx = pagerank_converged(view);
            want = hash_vec(fx.ranks);
            iters = fx.iterations;
            break;
          }
          case Algo::Cc: want = hash_vec(serve::run_cc(view)); break;
        }
      }) * 1e3;
      std::lock_guard<std::mutex> lk(mu);
      kernel_ms[short_name(algo)].push_back(ms);
      if (algo == Algo::PageRank) pr_iters.push_back(iters);
      for (const std::size_t i : idxs) {
        if (s.records[i].hash != want) {
          s.records[i].wrong = true;
          rep.fail(std::string("served ") + short_name(algo) + " answer at epoch " +
                   std::to_string(epoch) + (s.records[i].from_cache ? " (from cache)" : "") +
                   " differs from serve::run_* on snapshot(epoch)");
        }
      }
    }
  };
  {
    SpanLog::Scope sc(spans, "core", "serve.verify");
    std::vector<std::thread> vt;
    for (int w = 0; w < kNproc; ++w) vt.emplace_back(verify);
    for (std::thread& t : vt) t.join();
  }

  // Generator health, and the service's refusals: at the design rate no
  // query may be refused.
  const Phase& design = phases.back();
  const Tail lag_tail = design.lag.p99();
  rep.note("serve.writer_commits", static_cast<double>(s.wlog.commits));
  for (const Phase& ph : phases) {
    if (ph.lag.fell_behind(kLagLimitMs)) {
      rep.invalid("load generator fell behind its schedule: lag p" + std::to_string(ph.lag.p99().pct) +
                  " = " + std::to_string(ph.lag.p99().value) + " ms");
    }
  }
  for (std::size_t i = 0; i < sent_total; ++i) {
    const Record& r = s.records[i];
    if (r.done && !r.ok && r.reject != Reject::BadRequest && r.reject != Reject::Shutdown) {
      rep.refused(std::string("query ") + std::to_string(i) + " refused: " + serve::to_string(r.reject));
    }
  }
  if (!args.trace) {
    // mix_ms is the median latency of all queries, in the offered mix's
    // proportions — not a mean over per-algorithm medians: most CC queries
    // hit the cache (one CC result per epoch serves the rest), so CC's own
    // median sits on the edge between hit and miss latency and flips between
    // runs.
    const std::vector<double> lat = sorted(s.latencies(design));
    const Tail tail = supported_tail(lat);
    rep.note("serve.design.tail_pct", tail.pct);
    rep.note("serve.design.tail_ms", tail.value);
    std::map<Algo, OpTime> op;
    for (const Algo a : {Algo::PageRank, Algo::Bfs, Algo::Sssp, Algo::Cc}) {
      const std::vector<double> v = s.latencies(design, a);
      op[a] = {median(v), v.size()};
      rep.note(std::string("serve.design.") + short_name(a) + "_ms", op[a].ms);
    }
    report_end_to_end(rep, setup_s, kSetupReps, op[Algo::PageRank], op[Algo::Bfs], op[Algo::Sssp],
                      {percentile_sorted(lat, 50.0)}, lat.size());
    return;
  }

  // ---- traced run: per-layer numbers --------------------------------------
  const Phase& traced = design;
  const Phase& untraced = phases.front();
  const double p50_plain = percentile_sorted(sorted(s.latencies(untraced)), 50.0);
  const double p50_traced = percentile_sorted(sorted(s.latencies(traced)), 50.0);
  rep.add("obs.trace_overhead", p50_traced / p50_plain, "ratio", traced.last - traced.first);
  rep.add("graph.build_s", build_s, "s", 1);
  rep.add("graph.bytes", graph_bytes, "bytes", 1);
  const WriterLog& w = s.wlog;
  rep.add("graph.delta.commit_us.p50", percentile_sorted(sorted(w.commit_us), 50.0), "us", w.commit_us.size());
  rep.add("graph.delta.commit_us.p99", percentile_sorted(sorted(w.commit_us), 99.0), "us", w.commit_us.size());
  rep.add("graph.delta.snapshot_ms", median(w.snapshot_ms), "ms", w.snapshot_ms.size());
  rep.add("graph.delta.touched_vertices", mean(w.touched), "count", w.touched.size());
  rep.add("graph.delta.overlay_entries", mean(w.overlay), "count", w.overlay.size());
  rep.add("graph.delta.compact_ms", median(w.compact_ms), "ms", w.compact_ms.size());
  rep.add("graph.delta.compact_wait_ms", median(w.compact_wait_ms), "ms", w.compact_wait_ms.size());

  for (const char* a : {"bfs", "sssp", "pr", "cc"}) {
    const auto& v = kernel_ms[a];
    rep.add(std::string("core.serve.") + a + ".kernel_ms", median(v), "ms", v.size());
  }
  rep.add("core.serve.pr.iterations", median(pr_iters), "count", pr_iters.size());

  // Serving-layer numbers over the traced half.
  std::vector<double> submit_us, behind;
  std::map<std::string, std::vector<double>> lat_by;
  std::map<Reject, double> rejects;
  std::uint64_t ok = 0, hits = 0, misses = 0, near_repeat = 0;
  std::set<std::pair<int, vid_t>> seen;  // (algo, source) served before
  for (std::size_t i = 0; i < traced.last; ++i) {
    const Record& r = s.records[i];
    const bool whole = r.algo == Algo::PageRank || r.algo == Algo::Cc;
    const std::pair<int, vid_t> pair{static_cast<int>(r.algo), whole ? vid_t{-1} : r.source};
    if (i >= traced.first) {
      submit_us.push_back(r.submit_us);
      if (!r.ok) {
        rejects[r.reject] += 1;
      } else {
        ++ok;
        behind.push_back(static_cast<double>(r.behind));
        lat_by[short_name(r.algo)].push_back(r.latency_ms);
        if (r.from_cache) {
          ++hits;
        } else {
          ++misses;
          if (seen.count(pair) != 0) ++near_repeat;
        }
      }
    }
    if (r.ok) seen.insert(pair);
  }
  const double sent = static_cast<double>(traced.last - traced.first);
  rep.add("serve.submit_us", median(submit_us), "us", submit_us.size());
  rep.add("serve.cache_hit_ratio", static_cast<double>(hits) / std::max<double>(1, ok), "ratio", ok);
  rep.add("serve.near_epoch_repeat_ratio", static_cast<double>(near_repeat) / std::max<double>(1, misses),
          "ratio", misses);
  for (const char* a : {"bfs", "sssp", "pr", "cc"}) {
    const auto& v = lat_by[a];
    const Tail t = supported_tail(v);
    rep.add(std::string("serve.latency_ms.") + a + ".p50", percentile_sorted(sorted(v), 50.0), "ms", v.size());
    rep.add(std::string("serve.latency_ms.") + a + ".tail", t.value, "ms", v.size());
    rep.note(std::string("serve.latency_ms.") + a + ".tail_pct", t.pct);
  }
  for (const Reject why : {Reject::QueueFull, Reject::OverCapacity, Reject::OverOpBudget,
                           Reject::OverTimeBudget, Reject::BadRequest}) {
    rep.add(std::string("serve.reject_ratio.") + serve::to_string(why), rejects[why] / sent, "ratio",
            traced.last - traced.first);
  }
  const double executed = static_cast<double>((traced.after.completed - traced.after.cache_hits) -
                                              (traced.before.completed - traced.before.cache_hits));
  const double batches = static_cast<double>(traced.after.batches - traced.before.batches);
  rep.add("serve.batch_merge_ratio", executed / std::max(1.0, batches), "ratio",
          static_cast<std::size_t>(batches));
  rep.add("serve.behind_batches_p50", percentile_sorted(sorted(behind), 50.0), "count", behind.size());
  rep.add("serve.generator_lag_ms", lag_tail.value, "ms", lag_tail.samples);

  // Queue wait and execution time from the service's own spans: a query's
  // wait ends when the execute span that completed it began (same worker).
  std::vector<double> wait_ms;
  std::map<std::string, std::vector<double>> exec_ms;
  std::map<int, std::vector<const obs::TraceEvent*>> execs;
  const auto events = s.tracer.sorted_events();
  for (const auto& [tid, ev] : events) {
    if (std::strcmp(ev.name, "serve/execute") == 0) {
      execs[tid].push_back(&ev);
      exec_ms[ev.mode != nullptr && std::strcmp(ev.mode, "pagerank") == 0 ? "pr" : ev.mode]
          .push_back(static_cast<double>(ev.dur_ns) * 1e-6);
    }
  }
  for (const auto& [tid, ev] : events) {
    if (std::strcmp(ev.name, "serve/query") != 0) continue;
    bool cached = false;
    for (int a = 0; a < ev.n_args; ++a) {
      if (std::strcmp(ev.args[a].key, "cached") == 0) cached = ev.args[a].value != 0.0;
    }
    if (cached) continue;
    const std::uint64_t done = ev.ts_ns + ev.dur_ns;
    for (const obs::TraceEvent* x : execs[tid]) {
      if (x->ts_ns <= done && done <= x->ts_ns + x->dur_ns) {
        wait_ms.push_back(x->ts_ns > ev.ts_ns ? static_cast<double>(x->ts_ns - ev.ts_ns) * 1e-6 : 0.0);
        break;
      }
    }
  }
  rep.add("serve.queue_wait_ms", percentile_sorted(sorted(wait_ms), 50.0), "ms", wait_ms.size());
  for (const char* a : {"bfs", "sssp", "pr", "cc"}) {
    rep.add(std::string("serve.exec_ms.") + a, percentile_sorted(sorted(exec_ms[a]), 50.0), "ms",
            exec_ms[a].size());
  }
  rep.note("serve.trace_dropped", static_cast<double>(s.tracer.dropped()));
}

}  // namespace repobench
