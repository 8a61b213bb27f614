// repobench: the repository's benchmark driver.
//
//   repobench --workload analytics|serve_live|dist_bsp --seed N --seconds S
//             --trace 0|1 [--out-dir DIR]
//
// Runs one workload from the seed, measures for S seconds, checks every
// output outside the timed windows, and prints every metric by name with
// unit and sample count. The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. Exits 1 when a check fails or
// the run is invalid, 2 on bad usage. Normally started through run.py, which
// builds it.
//
// OMP_NUM_THREADS must be 1 (run.py sets it): libgomp reads it once, at
// start-up, as the thread count of every thread the benchmark starts — the
// service's workers and the forked ranks run their kernels single-threaded.
// Only the analytics client raises its own thread count, to nproc.
#include <omp.h>
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "repobench: %s\nusage: repobench --workload analytics|serve_live|dist_bsp "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
               msg.c_str());
  std::exit(2);
}

void write_spans(const std::string& path, const std::vector<repobench::Span>& spans) {
  std::ofstream out(path);
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const repobench::Span& s = spans[i];
    out << (i ? ",\n" : "") << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"job\": " << s.job << ", \"layer\": \"" << s.layer << "\", \"name\": \""
        << s.name << "\", \"thread\": " << s.thread << ", \"start_ns\": " << s.t0_ns
        << ", \"end_ns\": " << s.t1_ns << "}";
  }
  out << "\n]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  repobench::RunArgs args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value after " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::stoull(v);
      have_seed = true;
    } else if (a == "--seconds") {
      args.seconds = std::stod(v);
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      args.trace = v == "1";
    } else if (a == "--out-dir") {
      args.out_dir = v;
    } else {
      usage("unknown argument " + a);
    }
  }
  if (!have_seed) usage("--seed is required");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  if (omp_get_max_threads() != 1) usage("run with OMP_NUM_THREADS=1 (run.py sets it)");

  repobench::Report rep;
  repobench::SpanLog log;
  repobench::SpanLog* spans = args.trace ? &log : nullptr;
  if (args.workload == "analytics") {
    repobench::run_analytics(args, rep, spans);
  } else if (args.workload == "serve_live") {
    repobench::run_serve_live(args, rep, spans);
  } else if (args.workload == "dist_bsp") {
    repobench::run_dist_bsp(args, rep, spans);
  } else {
    usage("unknown workload '" + args.workload + "'");
  }

  std::map<std::string, double> self_s;
  if (spans != nullptr) {
    const std::vector<repobench::Span> all = spans->spans();
    self_s = repobench::self_seconds_by_layer(all);
    mkdir(args.out_dir.c_str(), 0755);
    write_spans(args.out_dir + "/spans_" + args.workload + ".json", all);
  }
  rep.emit(self_s);
  return rep.correct() ? 0 : 1;
}
