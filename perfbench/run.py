#!/usr/bin/env python3
"""Build and run the ROAR cluster benchmark.

Run one workload (the form BENCHMARK.json's command takes):
    python3 perfbench/run.py --workload scan-unique --seed 1 --seconds 25 --trace 0
Run every workload in turn (scan-unique, index-zipf, write-churn):
    python3 perfbench/run.py --workload all --seed 1 --seconds 25
Steadiness mode: run each workload N times with seeds 1..N and print,
for every metric (the JSON's and the printed end-to-end ones), the
median, the quartiles and the spread (q3 - q1) as a share of the median.
It runs the workloads BENCHMARK.json gates unless others are named:
    python3 perfbench/run.py --steady 10 [--workloads scan-unique,write-churn] [--trace 1]

The program is built from source into .bench_build/ at the root of the
checkout, with the Go build cache kept there too. Without the
repository around this directory the build fails and the script exits
non-zero without printing a result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT = 175  # seconds; one run must end within 180
ALL = ["scan-unique", "index-zipf", "write-churn"]


def build():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    os.makedirs(BUILD, exist_ok=True)
    res = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if res.returncode != 0:
        sys.stderr.write("perfbench: build failed:\n" + res.stdout)
        sys.exit(2)


def run_binary(args, capture=False):
    """Runs the benchmark binary from the checkout root; returns (code, stdout)."""
    cmd = [BINARY, "--workdir", BUILD] + args
    try:
        res = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT, text=True,
                             stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out: %s\n" % " ".join(args))
        return 124, ""
    return res.returncode, res.stdout if capture else ""


def gated_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def printed_metrics(lines):
    """Yields (name, value, unit) from a run's printed end-to-end block,
    which also holds the metrics the JSON line leaves out."""
    inside = False
    for line in lines:
        if line.startswith("end-to-end:"):
            inside = True
        elif not line.startswith("  "):
            inside = False
        elif inside:
            parts = line.split()
            if len(parts) == 3:
                yield parts[0], float(parts[1]), parts[2]


def steady(n, names, seconds, trace):
    spec = gated_workloads()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    names = names or [w["name"] for w in spec["workloads"]]
    for name in names:
        values = {}
        for seed in range(1, n + 1):
            args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            code, out = run_binary(args, capture=True)
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                print("%s seed %d: exit %d" % (name, seed, code))
                continue
            result = json.loads(lines[-1])
            print("%s seed %d: correct=%s attempted=%d failed=%d" % (
                name, seed, result["correct"], result["attempted"], result["failed"]), flush=True)
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append((v["value"], v["unit"]))
            for metric, v, unit in printed_metrics(lines):
                if metric not in result["metrics"]:
                    values.setdefault(metric, []).append((v, unit))
        print("\n%s: %d runs" % (name, n))
        print("  %-38s %14s %14s %14s %8s %7s" % ("metric", "median", "q1", "q3", "spread", "bound"))
        for metric in sorted(values):
            vs = [v for v, _ in values[metric]]
            unit = values[metric][0][1]
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(metric)
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else ("within" if spread <= bound else "WIDE")
            print("  %-38s %14.4f %14.4f %14.4f %8.4f %7s %s %s" % (
                metric, med, q1, q3, spread, "" if bound is None else bound, unit, flag))
            print("  %38s %s" % ("", " ".join("%.4g" % v for v in vs)))
        print(flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", default="1")
    ap.add_argument("--seconds", default="25")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--steady", type=int, default=0, help="runs per workload in steadiness mode")
    ap.add_argument("--workloads", default="", help="comma-separated workloads for --steady")
    a = ap.parse_args()
    build()
    if a.steady:
        steady(a.steady, [w for w in a.workloads.split(",") if w], a.seconds, a.trace)
        return 0
    if not a.workload:
        ap.error("--workload or --steady is required")
    names = ALL if a.workload == "all" else [a.workload]
    code = 0
    for name in names:
        rc, _ = run_binary(["--workload", name, "--seed", a.seed, "--seconds", a.seconds, "--trace", a.trace])
        code = code or rc
    return code


if __name__ == "__main__":
    sys.exit(main())
