// Open-loop load generation: sends fall due on a fixed schedule whatever the
// system's state, each request is timed from when it was due (so a stall is
// charged to every request it delays), and the generator reports how late
// it ran so a run whose generator fell behind is flagged invalid rather than
// reported as fast.
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "stats.hpp"

namespace repobench {

// Fixed-rate schedule anchored at t0: send i is due at t0 + i / rate.
struct Schedule {
  std::uint64_t t0_ns = 0;
  double rate_per_s = 1.0;

  std::uint64_t due_ns(std::uint64_t i) const {
    return t0_ns + static_cast<std::uint64_t>(static_cast<double>(i) * 1e9 / rate_per_s);
  }
};

// Latency of one request timed from its due time: the generator's own lag
// (sent - due) plus the system's submit-to-completion time.
inline double latency_from_due_ms(std::uint64_t due_ns, std::uint64_t sent_ns,
                                  double service_latency_s) {
  const double lag_ms =
      sent_ns > due_ns ? static_cast<double>(sent_ns - due_ns) * 1e-6 : 0.0;
  return lag_ms + service_latency_s * 1e3;
}

// Generator health: how late each send left relative to its due time.
class LagAccount {
 public:
  void note(std::uint64_t due_ns, std::uint64_t sent_ns) {
    lag_ms_.push_back(sent_ns > due_ns ? static_cast<double>(sent_ns - due_ns) * 1e-6
                                       : 0.0);
  }
  std::size_t samples() const { return lag_ms_.size(); }
  // The lag's p99 (or, with fewer than 1000 sends, the highest percentile
  // below it that has ten samples beyond it).
  Tail p99() const { return tail_at_most(lag_ms_, 99.0); }
  // Fell behind: the lag's p99 exceeds the limit, i.e. the offered schedule
  // was not actually offered.
  bool fell_behind(double limit_ms) const { return p99().value > limit_ms; }

 private:
  std::vector<double> lag_ms_;
};

// Sleep until the due time (an absolute deadline, so timer slack never
// accumulates across sends).
inline void wait_until_ns(std::uint64_t due_ns) {
  using namespace std::chrono;
  std::this_thread::sleep_until(steady_clock::time_point(nanoseconds(due_ns)));
}

}  // namespace repobench
