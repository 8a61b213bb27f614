#!/usr/bin/env python3
"""Checks BENCHMARK.json and repobench/metric_map.json against each other.

- BENCHMARK.json has exactly the contract's keys and limits: names of at most
  64 characters from [A-Za-z0-9_.-] starting with a letter or digit, used
  once; units from [A-Za-z0-9_/%.-]; bounds in (0, 0.25]; a `setup_s` metric
  in seconds, lower is better, with the largest bound.
- Every per-layer metric is mapped to its layer and to the end-to-end metric
  and workload it should move. (Every workload reports every end-to-end
  metric; run.py checks each run's metrics against this mapping.)

Run: python3 repobench/tests/check_benchmark_json.py  (exit 0 = pass)
"""
import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")
LAYERS = {"graph", "engine", "core", "serve", "dist", "obs"}


def check(bench, mapping):
    errors = []

    def need(cond, msg):
        if not cond:
            errors.append(msg)

    need(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
         "BENCHMARK.json keys: %s" % sorted(bench))
    cmd = bench.get("command", [])
    need(1 <= len(cmd) <= 32 and all(isinstance(c, str) and len(c) <= 200 for c in cmd), "command shape")
    need(all(not c.startswith("/") and ".." not in c.split("/") for c in cmd), "command leaves the repo")
    paths = bench.get("paths", [])
    need(1 <= len(paths) <= 16 and all(PATH.match(p) and ".." not in p.split("/") for p in paths), "paths")
    rs = bench.get("run_seconds")
    need(isinstance(rs, int) and 1 <= rs <= 60, "run_seconds must be a whole number in [1, 60]")

    workloads = [w["name"] for w in bench.get("workloads", [])]
    need(2 <= len(workloads) <= 8, "2 to 8 workloads")
    for w in bench.get("workloads", []):
        need(set(w) == {"name", "why"}, "workload keys: %s" % sorted(w))
        need(len(w.get("why", "")) <= 200 and "\n" not in w.get("why", ""), "why of %s" % w.get("name"))

    seen = set(workloads)
    need(len(seen) == len(workloads), "duplicate workload names")
    e2e = bench.get("end_to_end", [])
    layer = bench.get("per_layer", [])
    need(1 <= len(e2e) <= 16, "1 to 16 end-to-end metrics")
    need(1 <= len(layer) <= 128, "1 to 128 per-layer metrics")
    for m in e2e:
        need(set(m) == {"name", "unit", "better", "bound"}, "end_to_end keys of %s" % m.get("name"))
        need(isinstance(m.get("bound"), (int, float)) and 0 < m["bound"] <= 0.25,
             "bound of %s must be in (0, 0.25]" % m.get("name"))
    for m in layer:
        need(set(m) == {"name", "unit", "better"}, "per_layer keys of %s" % m.get("name"))
    for m in e2e + layer:
        name = m.get("name", "")
        need(bool(NAME.match(name)), "bad metric name %r" % name)
        need(name not in seen, "name used twice: %r" % name)
        seen.add(name)
        need(bool(UNIT.match(m.get("unit", ""))), "bad unit %r on %s" % (m.get("unit"), name))
        need(m.get("better") in ("higher", "lower"), "better of %s" % name)

    setup = [m for m in e2e if m.get("name") == "setup_s"]
    need(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
         "setup_s in s, lower is better")
    if setup:
        need(setup[0]["bound"] == max(m["bound"] for m in e2e), "setup_s carries the largest bound")

    # The mapping.
    e2e_names = {m["name"] for m in e2e}
    mapped = mapping.get("per_layer", {})
    layer_names = [m["name"] for m in layer]
    need(set(mapped) == set(layer_names),
         "per-layer metrics without a mapping: %s; mappings without a metric: %s"
         % (sorted(set(layer_names) - set(mapped)), sorted(set(mapped) - set(layer_names))))
    for name, info in mapped.items():
        need(info.get("layer") in LAYERS, "%s: layer %r" % (name, info.get("layer")))
        need(name.split(".")[0] == info.get("layer"), "%s: name does not start with its layer" % name)
        moves = info.get("moves", [])
        need(len(moves) >= 1, "%s names no end-to-end metric it should move" % name)
        for mv in moves:
            wl, target = mv.get("workload"), mv.get("metric")
            need(wl in workloads, "%s: unknown workload %r" % (name, wl))
            need(target in e2e_names, "%s: unknown end-to-end metric %r" % (name, target))
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(ROOT, "repobench", "metric_map.json")) as f:
        mapping = json.load(f)
    errors = check(bench, mapping)
    for e in errors:
        print("BENCHMARK.json check: " + e)
    print("BENCHMARK.json check: %s" % ("FAIL" if errors else "pass"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
