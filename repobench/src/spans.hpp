// The benchmark's own spans: name, layer, start, end, parent, and one id per
// query or job. Only the traced run records them (a null SpanLog makes every
// Scope a no-op); they stay in memory and are written out when the run ends.
//
// A layer's self time is a span's duration minus the part of that interval
// its child spans cover (overlapping children counted once).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace repobench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t job = 0;     // query / job id shared by a request's spans
  std::string layer;         // graph, engine, core, serve, dist, bench
  std::string name;
  int thread = -1;           // obs thread slot of the recording thread
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
};

class SpanLog {
 public:
  std::uint64_t next_id() {
    std::lock_guard<std::mutex> lk(mu_);
    return ++last_id_;
  }

  void add(Span s) {
    std::lock_guard<std::mutex> lk(mu_);
    if (s.id == 0) s.id = ++last_id_;
    spans_.push_back(std::move(s));
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
  }

  // RAII span around one call into a layer. Nests under the innermost open
  // Scope of the same thread unless an explicit parent is given.
  class Scope {
   public:
    Scope(SpanLog* log, const char* layer, std::string name, std::uint64_t job = 0)
        : log_(log) {
      if (log_ == nullptr) return;
      s_.id = log_->next_id();
      s_.parent = stack().empty() ? 0 : stack().back();
      s_.job = job;
      s_.layer = layer;
      s_.name = std::move(name);
      s_.thread = pushpull::obs::detail::thread_slot();
      stack().push_back(s_.id);
      s_.t0_ns = pushpull::obs::now_ns();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (log_ == nullptr) return;
      s_.t1_ns = pushpull::obs::now_ns();
      stack().pop_back();
      log_->add(std::move(s_));
    }

   private:
    static std::vector<std::uint64_t>& stack() {
      thread_local std::vector<std::uint64_t> open;
      return open;
    }
    SpanLog* log_;
    Span s_;
  };

 private:
  mutable std::mutex mu_;
  std::uint64_t last_id_ = 0;
  std::vector<Span> spans_;
};

// Self time of every span: its duration minus the union of its children's
// intervals clipped to it.
inline std::map<std::uint64_t, std::uint64_t> self_times_ns(
    const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids;
  for (const Span& s : spans) {
    if (s.parent != 0) kids[s.parent].emplace_back(s.t0_ns, s.t1_ns);
  }
  std::map<std::uint64_t, std::uint64_t> self;
  for (const Span& s : spans) {
    const std::uint64_t dur = s.t1_ns > s.t0_ns ? s.t1_ns - s.t0_ns : 0;
    std::uint64_t covered = 0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::uint64_t cur0 = 0, cur1 = 0;
      bool open = false;
      for (auto [a, b] : iv) {
        a = std::max(a, s.t0_ns);
        b = std::min(b, s.t1_ns);
        if (b <= a) continue;
        if (open && a <= cur1) {
          cur1 = std::max(cur1, b);
        } else {
          if (open) covered += cur1 - cur0;
          cur0 = a;
          cur1 = b;
          open = true;
        }
      }
      if (open) covered += cur1 - cur0;
    }
    self[s.id] = dur - std::min(dur, covered);
  }
  return self;
}

// Self time summed per layer, in seconds.
inline std::map<std::string, double> self_seconds_by_layer(
    const std::vector<Span>& spans) {
  const auto self = self_times_ns(spans);
  std::map<std::string, double> out;
  for (const Span& s : spans) out[s.layer] += static_cast<double>(self.at(s.id)) * 1e-9;
  return out;
}

// Re-parents kernel round events recorded through the program's own tracer
// hooks as `engine` spans under the benchmark span that encloses them on the
// same thread (the innermost one), so core self time excludes engine rounds.
inline void adopt_round_events(SpanLog& log, const pushpull::obs::Tracer& tracer) {
  const std::vector<Span> spans = log.spans();
  for (const auto& [tid, ev] : tracer.sorted_events()) {
    if (std::string(ev.cat) != "round") continue;
    const Span* best = nullptr;
    for (const Span& s : spans) {
      if (s.thread != tid || s.t0_ns > ev.ts_ns || s.t1_ns < ev.ts_ns + ev.dur_ns) continue;
      if (best == nullptr || s.t0_ns >= best->t0_ns) best = &s;
    }
    if (best == nullptr) continue;
    Span r;
    r.parent = best->id;
    r.job = best->job;
    r.layer = "engine";
    r.name = std::string(ev.name) + "." + (ev.mode != nullptr ? ev.mode : "?");
    r.thread = tid;
    r.t0_ns = ev.ts_ns;
    r.t1_ns = ev.ts_ns + ev.dur_ns;
    log.add(std::move(r));
  }
}

}  // namespace repobench
