// Observability layer tests (DESIGN.md §6): tracer ring semantics, the
// Chrome exporter's golden invariants, tracer-on/off differential runs on the
// zoo, the multi-writer record path (exercised under TSan in CI), the metrics
// registry, and the JsonWriter escaping fix.
#include <gtest/gtest.h>
#include <omp.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/bfs.hpp"
#include "core/connected_components.hpp"
#include "core/incremental.hpp"
#include "core/pagerank.hpp"
#include "graph/delta_graph.hpp"
#include "graph_zoo.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace pushpull {
namespace {

obs::TraceEvent make_event(const char* name, std::uint64_t ts, int tid = 7) {
  obs::TraceEvent ev;
  ev.name = name;
  ev.cat = "test";
  ev.ts_ns = ts;
  ev.dur_ns = 10;
  ev.tid = tid;  // explicit lane: independent of which thread records
  return ev;
}

// --- ring semantics ----------------------------------------------------------

TEST(Tracer, RecordsAndCounts) {
  obs::Tracer t;
  EXPECT_EQ(t.recorded(), 0u);
  for (int i = 0; i < 5; ++i) t.record(make_event("e", 100 + i));
  EXPECT_EQ(t.recorded(), 5u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Tracer, OverflowDropsNewestAndCounts) {
  obs::TracerOptions opt;
  opt.events_per_thread = 4;
  obs::Tracer t(opt);
  for (int i = 0; i < 10; ++i) t.record(make_event("e", 100 + i));
  EXPECT_EQ(t.recorded(), 4u);
  EXPECT_EQ(t.dropped(), 6u);
  // The *oldest* events survive (drop-newest): ts 100..103.
  const auto events = t.sorted_events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].second.ts_ns, 100 + i);
  }
}

TEST(Tracer, DisabledRecordsNothing) {
  obs::TracerOptions opt;
  opt.start_enabled = false;
  obs::Tracer t(opt);
  t.record(make_event("e", 1));
  EXPECT_EQ(t.recorded(), 0u);
  EXPECT_EQ(t.dropped(), 0u);  // disabled is not a drop
  t.set_enabled(true);
  t.record(make_event("e", 2));
  EXPECT_EQ(t.recorded(), 1u);
}

TEST(Tracer, NullTracerHelpers) {
  obs::NullTracer* null_tracer = nullptr;
  EXPECT_FALSE(obs::tracing(null_tracer));
  obs::NullTracer nt;
  EXPECT_FALSE(obs::tracing(&nt));
  obs::Tracer* live_null = nullptr;
  EXPECT_FALSE(obs::tracing(live_null));
  // The NullTracer ScopedSpan specialization is an empty no-op.
  obs::ScopedSpan<obs::NullTracer> span(&nt, "x", "y");
  span.arg("a", 1.0);
  span.set_mode("m");
  static_assert(sizeof(span) <= sizeof(void*));
}

TEST(Tracer, ArgOverflowIsIgnored) {
  obs::TraceEvent ev;
  for (int i = 0; i < obs::TraceEvent::kMaxArgs + 5; ++i) ev.arg("k", i);
  EXPECT_EQ(ev.n_args, obs::TraceEvent::kMaxArgs);
}

// --- multi-writer record path (the CI TSan job runs this) --------------------

TEST(Tracer, ConcurrentWritersFromManyThreads) {
  obs::Tracer t;
  constexpr int kThreads = 8;
  constexpr int kEventsEach = 500;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&t, &go, w] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kEventsEach; ++i) {
        obs::TraceEvent ev;
        ev.name = "w";
        ev.cat = "mt";
        ev.ts_ns = obs::now_ns();
        ev.tid = 100 + w;
        ev.arg("i", i);
        t.record(ev);
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Concurrent reader: the release/acquire head handshake must make every
  // event it sees a complete write (TSan verifies no data race).
  std::uint64_t seen = 0;
  for (int i = 0; i < 50; ++i) seen = std::max(seen, t.recorded());
  for (auto& w : writers) w.join();
  EXPECT_LE(seen, static_cast<std::uint64_t>(kThreads) * kEventsEach);
  EXPECT_EQ(t.recorded() + t.dropped(),
            static_cast<std::uint64_t>(kThreads) * kEventsEach);
  // Every thread's events landed in its own lane, in order.
  const auto events = t.sorted_events();
  std::vector<int> per_lane(kThreads, 0);
  for (const auto& [tid, ev] : events) {
    ASSERT_GE(tid, 100);
    ASSERT_LT(tid, 100 + kThreads);
    ++per_lane[static_cast<std::size_t>(tid - 100)];
  }
}

// --- exporter golden invariants ----------------------------------------------

TEST(Tracer, SortedEventsMonotonePerLane) {
  obs::Tracer t;
  // Record out of timestamp order within one lane (nested-ScopedSpan shape:
  // the inner span records first with a later ts).
  t.record(make_event("outer", 500, 3));
  t.record(make_event("inner", 900, 3));
  t.record(make_event("early", 100, 3));
  t.record(make_event("other_lane", 50, 9));
  const auto events = t.sorted_events();
  ASSERT_EQ(events.size(), 4u);
  int prev_tid = -1;
  std::uint64_t prev_ts = 0;
  for (const auto& [tid, ev] : events) {
    EXPECT_GE(tid, prev_tid);
    if (tid == prev_tid) {
      EXPECT_GE(ev.ts_ns, prev_ts);
    }
    prev_tid = tid;
    prev_ts = ev.ts_ns;
  }
}

// Minimal structural JSON scan: quotes/braces/brackets balance outside
// strings, no raw control characters. Catches the classes of breakage a
// hand-rolled emitter can produce without needing a JSON library.
void check_json_well_formed(const std::string& s) {
  int depth = 0;
  int array_depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : s) {
    if (in_string) {
      ASSERT_GE(static_cast<unsigned char>(c), 0x20) << "raw control char";
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++depth; break;
      case '}': --depth; ASSERT_GE(depth, 0); break;
      case '[': ++array_depth; break;
      case ']': --array_depth; ASSERT_GE(array_depth, 0); break;
      default: break;
    }
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(array_depth, 0);
}

TEST(Tracer, ChromeJsonGolden) {
  obs::Tracer t;
  obs::TraceEvent span = make_event("round \"quoted\"", 2000, 1);
  span.mode = "dense-pull";
  span.arg("frontier", 42).arg("alpha", 14.5);
  t.record(span);
  obs::TraceEvent instant = make_event("marker", 3000, 1);
  instant.ph = 'i';
  t.record(instant);

  const std::string json = t.chrome_json();
  check_json_well_formed(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"otherData\""), std::string::npos);
  EXPECT_NE(json.find("\"recorded\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\": 0"), std::string::npos);
  // The quote in the event name must be escaped.
  EXPECT_NE(json.find("round \\\"quoted\\\""), std::string::npos);
  EXPECT_EQ(json.find("round \"quoted\""), std::string::npos);
  EXPECT_NE(json.find("\"mode\": \"dense-pull\""), std::string::npos);
  // Timestamps are rebased to the earliest event: ts 2000ns -> 0us.
  EXPECT_NE(json.find("\"ts\": 0.000"), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 1.000"), std::string::npos);
  // Instant events carry a scope, spans a duration.
  EXPECT_NE(json.find("\"s\": \"t\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 0.010"), std::string::npos);
}

TEST(Tracer, ChromeJsonEmptyTraceIsWellFormed) {
  obs::Tracer t;
  check_json_well_formed(t.chrome_json());
}

// --- scoped spans and round events -------------------------------------------

TEST(Tracer, ScopedSpanRecordsOnDestruction) {
  obs::Tracer t;
  {
    obs::ScopedSpan<obs::Tracer> span(&t, "commit", "storage");
    span.arg("updates", 17);
    span.set_mode("overlay");
    EXPECT_EQ(t.recorded(), 0u);  // nothing until close
  }
  ASSERT_EQ(t.recorded(), 1u);
  const auto events = t.sorted_events();
  EXPECT_STREQ(events[0].second.name, "commit");
  EXPECT_STREQ(events[0].second.cat, "storage");
  EXPECT_STREQ(events[0].second.mode, "overlay");
  ASSERT_EQ(events[0].second.n_args, 1);
  EXPECT_EQ(events[0].second.args[0].value, 17.0);
}

TEST(Tracer, RecordRoundCarriesDecisionInputs) {
  obs::Tracer t;
  obs::RoundEvent r;
  r.kernel = "cc";
  r.mode = "sparse-push";
  r.round = 3;
  r.frontier_size = 12;
  r.active_work = 99;
  r.total_work = 640;
  r.total_count = 200;
  r.alpha = 14.0;
  r.beta = 24.0;
  r.updates = 7;
  r.t0_ns = obs::now_ns();
  r.dur_ns = 1234;
  obs::record_round(&t, r);
  const auto events = t.sorted_events();
  ASSERT_EQ(events.size(), 1u);
  const obs::TraceEvent& ev = events[0].second;
  EXPECT_STREQ(ev.name, "cc");
  EXPECT_STREQ(ev.cat, "round");
  EXPECT_STREQ(ev.mode, "sparse-push");
  ASSERT_GE(ev.n_args, 8);
  EXPECT_EQ(ev.args[1].value, 12.0);   // frontier
  EXPECT_EQ(ev.args[2].value, 99.0);   // active_work
  EXPECT_EQ(ev.args[5].value, 14.0);   // alpha
  // Null tracer pointer: no-op, no crash.
  obs::Tracer* none = nullptr;
  obs::record_round(none, r);
  obs::NullTracer* null_policy = nullptr;
  obs::record_round(null_policy, r);
  EXPECT_EQ(t.recorded(), 1u);
}

// --- tracer-on/off differential: tracing must not change results -------------

// CC's round count is pinned at one thread only: above that it depends on
// thread scheduling (see CcResult), so only its labels are compared there.
// The second pass runs at the process's thread count (OMP_NUM_THREADS=1 under
// TSan, whose view of libgomp is blind).
TEST(TracerDifferential, KernelsBitIdenticalWithTracerOn) {
  const int saved_threads = omp_get_max_threads();
  for (const int threads : {1, saved_threads}) {
    omp_set_num_threads(threads);
    for (const auto& entry : pushpull::testing::unweighted_zoo()) {
      const Csr& g = entry.graph;
      const std::string where =
          entry.name + " threads " + std::to_string(threads);
      obs::Tracer t;

      CcOptions cc_opt;
      cc_opt.strategy = engine::StrategyKind::GreedySwitch;
      const CcResult cc_off = connected_components(g, cc_opt);
      const CcResult cc_on =
          connected_components(g, cc_opt, NullInstr{}, &t);
      EXPECT_EQ(cc_off.comp, cc_on.comp) << where;
      if (threads == 1) {
        EXPECT_EQ(cc_off.rounds, cc_on.rounds) << where;
      }

      const BfsResult bfs_off = bfs_direction_optimizing(g, 0);
      const BfsResult bfs_on =
          bfs_direction_optimizing(g, 0, {}, NullInstr{}, &t);
      EXPECT_EQ(bfs_off.dist, bfs_on.dist) << where;
      EXPECT_EQ(bfs_off.parent, bfs_on.parent) << where;

      PageRankOptions pr_opt;
      pr_opt.iterations = 5;
      const std::vector<double> pr_off = pagerank_pull(g, pr_opt);
      const std::vector<double> pr_on =
          pagerank_pull(g, pr_opt, NullInstr{}, &t);
      EXPECT_EQ(pr_off, pr_on) << where;  // bit-identical, not approximate

      EXPECT_GT(t.recorded(), 0u) << where;
    }
  }
  omp_set_num_threads(saved_threads);
}

TEST(TracerDifferential, DeltaGraphCommitSpansDoNotChangeState) {
  const Csr base = make_undirected(6, path_edges(6));
  DeltaGraph plain{Csr(base)};
  DeltaGraph traced{Csr(base)};
  obs::Tracer t;
  traced.set_tracer(&t);
  for (DeltaGraph* dg : {&plain, &traced}) {
    dg->add_edge(0, 3);
    dg->add_edge(2, 5);
    dg->commit();
    dg->remove_edge(0, 1);
    dg->commit();
    dg->compact();
  }
  EXPECT_EQ(cc_labels(plain.snapshot()), cc_labels(traced.snapshot()));
  EXPECT_EQ(plain.num_arcs(), traced.num_arcs());
  // Two commits + one compact recorded as storage spans.
  EXPECT_EQ(t.recorded(), 3u);
}

TEST(TracerDifferential, IncrementalRepairSpansTagFellBack) {
  const Csr base = make_undirected(8, path_edges(8));
  DeltaGraph dg{Csr(base)};
  std::vector<vid_t> dist = bfs_levels(dg.snapshot(), 0);
  dg.add_edge(0, 7);
  const epoch_t e = dg.commit();
  const std::vector<EdgeUpdate> ups = flatten(dg.batches_since(e - 1));
  obs::Tracer t;
  IncrementalStats st;
  const std::vector<vid_t> repaired = incremental_bfs(
      dg.snapshot(), std::span<const EdgeUpdate>(ups), 0, dist, &st,
      NullInstr{}, &t);
  EXPECT_EQ(repaired, bfs_levels(dg.snapshot(), 0));
  const auto events = t.sorted_events();
  bool saw_repair = false;
  for (const auto& [tid, ev] : events) {
    if (std::string(ev.cat) == "repair") {
      saw_repair = true;
      EXPECT_STREQ(ev.name, "incremental_bfs");
      ASSERT_NE(ev.mode, nullptr);
      EXPECT_EQ(std::string(ev.mode),
                st.fell_back ? "fell-back" : "incremental");
    }
  }
  EXPECT_TRUE(saw_repair);
}

// --- metrics registry --------------------------------------------------------

TEST(Metrics, CounterGaugeBasics) {
  obs::Counter c;
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42);
  c.reset();
  EXPECT_EQ(c.value(), 0);
  obs::Gauge g;
  g.set(2.5);
  EXPECT_EQ(g.value(), 2.5);
}

TEST(Metrics, HistogramPercentilesLandInBucket) {
  obs::Histogram h;
  // 90 samples around 1000ns (bucket [512, 1023]), 10 around 1M ns.
  for (int i = 0; i < 90; ++i) h.record(1000);
  for (int i = 0; i < 10; ++i) h.record(1'000'000);
  EXPECT_EQ(h.count(), 100u);
  const std::uint64_t p50 = h.percentile(50.0);
  EXPECT_GE(p50, 512u);
  EXPECT_LE(p50, 1023u);
  const std::uint64_t p99 = h.percentile(99.0);
  EXPECT_GE(p99, 524288u);    // 2^19
  EXPECT_LE(p99, 1048575u);   // 2^20 - 1
  EXPECT_NEAR(h.mean(), 0.9 * 1000 + 0.1 * 1'000'000, 1.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(50.0), 0u);
}

TEST(Metrics, HistogramEdgeBuckets) {
  obs::Histogram h;
  h.record(0);
  EXPECT_EQ(h.percentile(50.0), 0u);  // bucket 0 holds only zero
  h.record(~std::uint64_t{0});        // top bucket must not overflow
  EXPECT_GT(h.percentile(99.0), std::uint64_t{1} << 62);
}

TEST(Metrics, RegistryStableRefsAndSerialization) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("queries");
  obs::Counter& c2 = reg.counter("queries");
  EXPECT_EQ(&c, &c2);  // same name, same instrument
  c.inc(3);
  reg.gauge("load").set(0.75);
  reg.histogram("latency").record(1000);

  bench::JsonWriter w;
  reg.write_to(w);
  const std::string path = ::testing::TempDir() + "/metrics_dump.json";
  w.write(path);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content(1 << 12, '\0');
  content.resize(std::fread(content.data(), 1, content.size(), f));
  std::fclose(f);
  check_json_well_formed(content);
  EXPECT_NE(content.find("\"metrics.queries\": 3"), std::string::npos);
  EXPECT_NE(content.find("\"metrics.latency.count\": 1"), std::string::npos);
  EXPECT_NE(content.find("\"metrics.latency.p50_ns\""), std::string::npos);

  reg.reset_all();
  EXPECT_EQ(c.value(), 0);                       // reference still valid
  EXPECT_EQ(reg.gauge("load").value(), 0.75);    // gauges keep their value
}

// --- JsonWriter escaping (the add_string fix) --------------------------------

TEST(JsonWriter, EscapesKeysAndStringValues) {
  bench::JsonWriter w;
  w.add_string("path", "a\"b\\c\nd\te");
  w.add_string("weird \"key\"", "v");
  w.add("n", 1.5);
  const std::string path = ::testing::TempDir() + "/writer_escape.json";
  w.write(path);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content(1 << 12, '\0');
  content.resize(std::fread(content.data(), 1, content.size(), f));
  std::fclose(f);
  check_json_well_formed(content);
  EXPECT_NE(content.find("a\\\"b\\\\c\\nd\\te"), std::string::npos);
  EXPECT_NE(content.find("weird \\\"key\\\""), std::string::npos);
}

}  // namespace
}  // namespace pushpull
