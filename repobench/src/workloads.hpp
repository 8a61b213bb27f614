// The three workloads and the helpers they share.
#pragma once

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <algorithm>
#include <map>
#include <random>

#include "core/connected_components.hpp"
#include "graph/csr.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace repobench {

// All load comes from one process using at most this many threads or ranks:
// the reference box's core count.
constexpr int kNproc = 4;

void run_analytics(const RunArgs& args, Report& rep, SpanLog* spans);
void run_serve_live(const RunArgs& args, Report& rep, SpanLog* spans);
void run_dist_bsp(const RunArgs& args, Report& rep, SpanLog* spans);

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

template <class F>
double time_s(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  return seconds_since(t0);
}

// Stream-splitting seed derivation (splitmix64), so every input drawn from
// one --seed is independent of the others and never 0 (0 selects a
// generator's builtin seed).
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

// Resident bytes of a CSR: offsets, adjacency and weights.
inline double csr_bytes(const pushpull::Csr& g) {
  return static_cast<double>(g.offsets().size() * sizeof(pushpull::eid_t) +
                             static_cast<std::size_t>(g.num_arcs()) * sizeof(pushpull::vid_t) +
                             g.weight_array().size() * sizeof(pushpull::weight_t));
}

// Machine context recorded beside every run: the set-up targets in-cache
// behaviour, so the LLC size is part of the result's meaning.
inline void note_machine(Report& rep) {
  rep.note("machine.nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  rep.note("machine.llc_bytes", static_cast<double>(sysconf(_SC_LEVEL3_CACHE_SIZE)));
}

inline void note_graph(Report& rep, const std::string& key, const pushpull::Csr& g) {
  rep.note(key + ".n", static_cast<double>(g.n()));
  rep.note(key + ".arcs", static_cast<double>(g.num_arcs()));
  rep.note(key + ".bytes", csr_bytes(g));
}

// Set-up time as a cold start pays it. `reps - 1` set-ups run each in a
// fresh forked process, then this process runs the one it keeps, so every
// rep pays the first OpenMP region, first-touch page faults and its forks'
// copy-on-write; the median of the reps is reported. The forks come before
// this process has run any OpenMP region (forking after libgomp started its
// thread pool is unsafe).
inline double cold_setup_s(Report& rep, int reps, const std::function<void()>& setup) {
  std::vector<double> t;
  for (int i = 0; i + 1 < reps; ++i) {
    int fds[2];
    if (pipe(fds) != 0) {
      rep.invalid("set-up: pipe failed");
      break;
    }
    const pid_t pid = fork();
    if (pid == 0) {
      close(fds[0]);
      const double s = time_s(setup);
      const bool sent = write(fds[1], &s, sizeof s) == static_cast<ssize_t>(sizeof s);
      _exit(sent && rep.correct() ? 0 : 1);
    }
    close(fds[1]);
    double s = 0.0;
    const bool got = pid > 0 && read(fds[0], &s, sizeof s) == static_cast<ssize_t>(sizeof s);
    close(fds[0]);
    int status = 0;
    if (pid > 0) waitpid(pid, &status, 0);
    if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      rep.invalid("set-up in a fresh process failed");
      continue;
    }
    t.push_back(s);
  }
  t.push_back(time_s(setup));
  return median(t);
}

// Wall times (s) of one kind's jobs in a closed loop: for each job of the
// list (keyed by its source), the runs it got as the loop cycled the list.
using JobRuns = std::map<pushpull::vid_t, std::vector<double>>;

inline std::vector<double> all_runs(const JobRuns& jobs) {
  std::vector<double> v;
  for (const auto& [src, runs] : jobs) v.insert(v.end(), runs.begin(), runs.end());
  return v;
}

// A closed loop's time for one job of a kind, in ms: each job's fastest run,
// then the median over the jobs. The reference box is a few vCPUs of a
// shared host whose steal time comes in bursts; a run caught in one is
// slower, never faster, and with every core in use each barrier waits for
// the stolen one. Between runs of the same job list the median over all
// runs moved by up to 45%; a job's fastest run is its cost without the
// interference (the reasoning of timeit's best-of-repeats), and the median
// over the jobs keeps the typical source, not the luckiest.
inline double job_time_ms(const JobRuns& jobs) {
  std::vector<double> best;
  for (const auto& [src, runs] : jobs) best.push_back(*std::min_element(runs.begin(), runs.end()));
  return median(best) * 1e3;
}

// The time of one operation of a kind, with the operations behind it.
struct OpTime {
  double ms = 0.0;
  std::size_t samples = 0;
};

// The end-to-end metrics, the same names in every workload (BENCHMARK.json's
// end_to_end list): set-up time; the time of one PageRank, BFS and SSSP-Δ
// operation; and mix_ms, one figure over the whole mix, CC included: the
// geometric mean of `mix_ms` (a time per operation kind, so each kind weighs
// the same, or a single median over the mix).
inline void report_end_to_end(Report& rep, double setup_s, std::size_t setup_reps, OpTime pr,
                              OpTime bfs, OpTime sssp, const std::vector<double>& mix_ms,
                              std::size_t ops) {
  rep.add("setup_s", setup_s, "s", setup_reps);
  rep.add("pr_ms", pr.ms, "ms", pr.samples);
  rep.add("bfs_ms", bfs.ms, "ms", bfs.samples);
  rep.add("sssp_ms", sssp.ms, "ms", sssp.samples);
  rep.add("mix_ms", geomean(mix_ms), "ms", ops);
}

// Sources drawn from the largest component, so no job degenerates to a
// traversal of a handful of vertices.
inline std::vector<pushpull::vid_t> pick_sources(const pushpull::Csr& g, int k,
                                                 std::uint64_t seed) {
  using pushpull::vid_t;
  const std::vector<vid_t> comp = pushpull::connected_components(g).comp;
  std::map<vid_t, vid_t> size;
  for (const vid_t c : comp) ++size[c];
  vid_t giant = 0;
  for (const auto& [c, s] : size) {
    if (s > size[giant]) giant = c;
  }
  std::vector<vid_t> members;
  for (vid_t v = 0; v < g.n(); ++v) {
    if (comp[static_cast<std::size_t>(v)] == giant) members.push_back(v);
  }
  std::mt19937_64 rng(seed);
  std::shuffle(members.begin(), members.end(), rng);
  members.resize(std::min<std::size_t>(members.size(), static_cast<std::size_t>(k)));
  return members;
}

}  // namespace repobench
