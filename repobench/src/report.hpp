// Run arguments and the result report every workload fills in.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace repobench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit, std::size_t samples) {
    if (!std::isfinite(value)) invalid("metric " + name + " is not finite");
    metrics_.push_back({std::move(name), value, std::move(unit), samples});
  }
  // Context printed beside the metrics (graph sizes, LLC, tail percentiles).
  void note(std::string key, double value) { context_.emplace_back(std::move(key), value); }

  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  // A failed operation (a wrong answer or an error): counted, and the run is
  // marked incorrect.
  void fail(const std::string& why) {
    ++failed_;
    correct_ = false;
    if (errors_.size() < 20) errors_.push_back(why);
    std::fprintf(stderr, "repobench: CHECK FAILED: %s\n", why.c_str());
  }
  // An operation the system refused (admission control): counted as failed —
  // the workloads offer a load the system should carry in full — but no
  // output was wrong.
  void refused(const std::string& why) {
    ++failed_;
    if (errors_.size() < 20) errors_.push_back(why);
    std::fprintf(stderr, "repobench: REFUSED: %s\n", why.c_str());
  }
  // An invalid run (e.g. the load generator fell behind): not a failed
  // operation, but the result must not be reported as correct.
  void invalid(const std::string& why) {
    correct_ = false;
    if (errors_.size() < 20) errors_.push_back(why);
    std::fprintf(stderr, "repobench: INVALID RUN: %s\n", why.c_str());
  }
  bool correct() const { return correct_; }

  // Human-readable lines, a detail line with sample counts and context, and
  // the result object as the last line of stdout.
  void emit(const std::map<std::string, double>& self_s) const {
    for (const Metric& m : metrics_) {
      std::printf("  %-44s %14.6f %-6s n=%zu\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.samples);
    }
    std::string detail = "{\"detail\": {\"samples\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      detail += (i ? ", \"" : "\"") + metrics_[i].name + "\": " +
                std::to_string(metrics_[i].samples);
    }
    detail += "}, \"context\": {";
    for (std::size_t i = 0; i < context_.size(); ++i) {
      detail += (i ? ", \"" : "\"") + context_[i].first + "\": " + num(context_[i].second);
    }
    detail += "}, \"self_s_by_layer\": {";
    bool first = true;
    for (const auto& [layer, s] : self_s) {
      detail += (first ? "\"" : ", \"") + layer + "\": " + num(s);
      first = false;
    }
    detail += "}, \"errors\": [";
    for (std::size_t i = 0; i < errors_.size(); ++i) {
      detail += (i ? ", \"" : "\"") + escape(errors_[i]) + "\"";
    }
    detail += "]}}";
    std::printf("%s\n", detail.c_str());

    std::string out = std::string("{\"correct\": ") + (correct_ ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted_) +
                      ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      out += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " +
             num(metrics_[i].value) + ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  static std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }
  static std::string escape(const std::string& s) {
    std::string o;
    for (const char c : s) {
      if (c == '"' || c == '\\') o += '\\';
      o += (c == '\n') ? ' ' : c;
    }
    return o;
  }

  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, double>> context_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

}  // namespace repobench
