// The benchmark's own helpers: tail percentile selection, open-loop lag
// accounting, and span self time.
#include <gtest/gtest.h>

#include "openloop.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace repobench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v = ramp(100);
  EXPECT_EQ(percentile_sorted(v, 50.0), 50.0);
  EXPECT_EQ(percentile_sorted(v, 99.0), 99.0);
  EXPECT_EQ(percentile_sorted(v, 100.0), 100.0);
  EXPECT_EQ(samples_beyond(100, 90.0), 10u);
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(999, 99.0), 9u);
}

TEST(Percentile, PicksHighestWithTenBeyond) {
  // 1000 samples: p99 leaves exactly ten beyond it, p99.9 only one.
  Tail t = supported_tail(ramp(1000));
  EXPECT_TRUE(t.supported);
  EXPECT_EQ(t.pct, 99.0);
  EXPECT_EQ(t.value, 990.0);
  EXPECT_EQ(t.samples, 1000u);
  // 999 samples: p99 has nine beyond, so the tail falls back to p90.
  t = supported_tail(ramp(999));
  EXPECT_EQ(t.pct, 90.0);
  EXPECT_EQ(t.samples, 999u);
  // 10000 samples support p99.9.
  EXPECT_EQ(supported_tail(ramp(10000)).pct, 99.9);
  // Unsorted input is handled.
  std::vector<double> v = ramp(200);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(supported_tail(v).value, 180.0);
}

TEST(Percentile, TooFewSamplesIsFlagged) {
  const Tail t = supported_tail(ramp(15));
  EXPECT_FALSE(t.supported);
  EXPECT_EQ(t.pct, 50.0);
  EXPECT_EQ(t.samples, 15u);
  EXPECT_FALSE(supported_tail({}).supported);
}

TEST(Percentile, TailAtMostCapsThePercentile) {
  EXPECT_EQ(tail_at_most(ramp(100000), 99.0).pct, 99.0);
  EXPECT_EQ(tail_at_most(ramp(500), 99.0).pct, 90.0);
}

TEST(Stats, GeomeanWeighsEveryKindTheSame) {
  EXPECT_DOUBLE_EQ(geomean({2.0, 8.0}), 4.0);
  EXPECT_DOUBLE_EQ(geomean({5.0}), 5.0);
  // Doubling any one of four values moves the mean by the same factor.
  EXPECT_DOUBLE_EQ(geomean({1.0, 10.0, 100.0, 2000.0}) / geomean({1.0, 10.0, 100.0, 1000.0}),
                   std::pow(2.0, 0.25));
  EXPECT_EQ(geomean({}), 0.0);
}

TEST(OpenLoop, ScheduleIsFixedRate) {
  const Schedule s{1'000'000, 200.0};
  EXPECT_EQ(s.due_ns(0), 1'000'000u);
  EXPECT_EQ(s.due_ns(200), 1'001'000'000u);
}

TEST(OpenLoop, LatencyCountsFromDueTime) {
  // Sent 3 ms late, served in 2 ms: the request waited 5 ms.
  EXPECT_DOUBLE_EQ(latency_from_due_ms(10'000'000, 13'000'000, 0.002), 5.0);
  // Sent early (never happens, but must not subtract).
  EXPECT_DOUBLE_EQ(latency_from_due_ms(10'000'000, 9'000'000, 0.002), 2.0);
}

TEST(OpenLoop, LagAccountFlagsAGeneratorThatFellBehind) {
  LagAccount on_time;
  LagAccount behind;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t due = i * 1'000'000;
    on_time.note(due, due + 50'000);  // 0.05 ms late
    // A stall from send 900 on: every later send leaves ever later.
    behind.note(due, due + (i < 900 ? 50'000 : (i - 899) * 2'000'000));
  }
  EXPECT_EQ(on_time.samples(), 1000u);
  EXPECT_NEAR(on_time.p99().value, 0.05, 1e-9);
  EXPECT_FALSE(on_time.fell_behind(5.0));
  EXPECT_EQ(behind.p99().pct, 99.0);
  EXPECT_GT(behind.p99().value, 5.0);
  EXPECT_TRUE(behind.fell_behind(5.0));
}

Span make(std::uint64_t id, std::uint64_t parent, const char* layer, std::uint64_t t0,
          std::uint64_t t1) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.layer = layer;
  s.t0_ns = t0;
  s.t1_ns = t1;
  return s;
}

TEST(Spans, SelfTimeSubtractsChildCoverageOnce) {
  // core [0,100) with engine children [10,30), [20,50) (overlapping) and
  // [90,120) (clipped to the parent); one grandchild inside the first.
  const std::vector<Span> spans = {
      make(1, 0, "core", 0, 100),       make(2, 1, "engine", 10, 30),
      make(3, 1, "engine", 20, 50),     make(4, 1, "engine", 90, 120),
      make(5, 2, "graph", 12, 14),      make(6, 0, "serve", 200, 260),
  };
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self.at(1), 100u - 40u - 10u);  // [10,50) and [90,100) covered
  EXPECT_EQ(self.at(2), 18u);
  EXPECT_EQ(self.at(3), 30u);
  EXPECT_EQ(self.at(4), 30u);
  EXPECT_EQ(self.at(5), 2u);
  EXPECT_EQ(self.at(6), 60u);
  const auto by_layer = self_seconds_by_layer(spans);
  EXPECT_DOUBLE_EQ(by_layer.at("core"), 50e-9);
  EXPECT_DOUBLE_EQ(by_layer.at("engine"), 78e-9);
  EXPECT_DOUBLE_EQ(by_layer.at("graph"), 2e-9);
  EXPECT_DOUBLE_EQ(by_layer.at("serve"), 60e-9);
}

TEST(Spans, ScopesNestPerThreadAndNullLogIsANoOp) {
  SpanLog log;
  {
    SpanLog::Scope outer(&log, "core", "job", 7);
    SpanLog::Scope inner(&log, "engine", "round", 7);
    SpanLog::Scope off(nullptr, "serve", "ignored");
  }
  const std::vector<Span> spans = log.spans();
  ASSERT_EQ(spans.size(), 2u);
  const Span& inner = spans[0].name == "round" ? spans[0] : spans[1];
  const Span& outer = spans[0].name == "job" ? spans[0] : spans[1];
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(inner.job, 7u);
  EXPECT_LE(outer.t0_ns, inner.t0_ns);
  EXPECT_LE(inner.t1_ns, outer.t1_ns);
}

}  // namespace
}  // namespace repobench
