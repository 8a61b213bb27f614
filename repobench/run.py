#!/usr/bin/env python3
"""Run one workload of the repository's benchmark.

    python3 repobench/run.py --workload analytics|serve_live|dist_bsp \
        --seed N --seconds S --trace 0|1

Builds the driver from the repository's sources (CMake, into the directory
named by CARGO_TARGET_DIR, default .bench_build), runs the workload, and
passes the driver's output through; the last stdout line is the result
object {"correct", "attempted", "failed", "metrics"}. Its metrics are every
end-to-end metric of BENCHMARK.json (--trace 0) or every per-layer metric
(--trace 1). A per-layer metric is measured in the workloads that
repobench/metric_map.json maps it to; in the others it is reported as 0.
Exits non-zero when the build fails, a check fails, the run is invalid, or
the driver's metrics do not match the manifest.

    python3 repobench/run.py --self-test

builds and runs the benchmark's own tests instead.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir, target):
    """Configure and build `target`; build output goes to stderr."""
    for cmd in (
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", "4", "--target", target],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("repobench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, target)


def expected_metrics(workload, trace):
    """The manifest's metrics for this run, in its order, as (name, unit),
    and the names this workload measures itself."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    if not trace:
        e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
        return e2e, {name for name, _ in e2e}
    with open(os.path.join(HERE, "metric_map.json")) as f:
        mapped = json.load(f)["per_layer"]
    measured = {name for name, info in mapped.items()
                if workload in {mv["workload"] for mv in info["moves"]}}
    return [(m["name"], m["unit"]) for m in bench["per_layer"]], measured


def complete(result, expected, measured):
    """Checks the driver's metrics against the manifest and adds the
    per-layer metrics this workload does not measure, as 0."""
    got = result["metrics"]
    missing = sorted(measured - set(got))
    unknown = sorted(set(got) - measured)
    if missing or unknown:
        sys.exit("repobench: metrics do not match the manifest: missing %s, unexpected %s"
                 % (missing, unknown))
    units = dict(expected)
    wrong_unit = sorted(n for n in got if got[n]["unit"] != units[n])
    if wrong_unit:
        sys.exit("repobench: units differ from the manifest: %s" % wrong_unit)
    result["metrics"] = {name: got.get(name, {"value": 0, "unit": unit}) for name, unit in expected}
    return result


def self_test(build_dir):
    exe = build(build_dir, "repobench_tests")
    rc = subprocess.run([exe]).returncode
    rc |= subprocess.run([sys.executable, os.path.join(HERE, "tests", "check_benchmark_json.py")]).returncode
    return rc


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if args.self_test:
        return self_test(build_dir)
    if args.workload is None or args.seed is None:
        ap.error("--workload and --seed are required")

    exe = build(build_dir, "repobench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.abspath(".bench_out")]
    expected, measured = expected_metrics(args.workload, args.trace == "1")
    # Single-threaded kernels by default in every thread the driver starts;
    # the analytics client raises its own thread count (see src/main.cpp).
    env = dict(os.environ, OMP_NUM_THREADS="1")
    run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if not lines:
        sys.exit("repobench: the driver printed nothing (exit code %d)" % run.returncode)
    result = complete(json.loads(lines[-1]), expected, measured)
    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
