#!/usr/bin/env python3
"""perfbench entry point: builds the benchmark from source, runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first call configures and builds perfbench/ (which pulls the XPlain
libraries in from the repository root) under .bench_build/perfbench.  The
benchmark's last stdout line is one JSON object: {"correct", "attempted",
"failed", "metrics"}; with --trace 0 the metrics are the end_to_end set of
BENCHMARK.json, with --trace 1 the per_layer set.  --smoke runs a tiny
version of every workload in both modes and checks every metric name, unit
and output check.  See perfbench/README.md.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_build", "perfbench-runs")
WORKLOADS = ["lp_explain", "vbp_explain", "service_mix", "fuzz_probe"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "engine.h")):
        log(f"no XPlain source tree next to {HERE}; nothing to build")
        return False
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"]
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def binary(name):
    return os.path.join(BUILD, name if name == "perfbench" else f"xplain/{name}")


def spec_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def run_one(workload, seed, seconds, trace, smoke, echo=True):
    """Runs the benchmark binary once; returns (exit code, result line or None)."""
    work = os.path.join(RUNS, f"{workload}-{seed}-{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary("perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--xplaind", binary("xplaind"), "--work-dir", work]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, None
    lines = proc.stdout.strip().splitlines() or [""]
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"{workload}: no JSON result (exit {proc.returncode})")
        return proc.returncode or 1, None
    result["raw"] = lines[-1]
    want = spec_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        log(f"{workload}: metrics differ from BENCHMARK.json: missing "
            f"{missing}, extra {extra}, unit mismatch {units}")
        return 1, result
    return proc.returncode, result


def smoke():
    failures = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            t0 = time.monotonic()
            code, result = run_one(workload, 7, 1, trace, smoke=True,
                                   echo=False)
            ok = code == 0 and result is not None and result["correct"] \
                and result["failed"] == 0 and result["attempted"] >= 1
            failures += not ok
            n = len(result["metrics"]) if result else 0
            print(f"smoke {workload:12s} trace={int(trace)} "
                  f"{'ok' if ok else 'FAIL'} ({n} metrics, "
                  f"{time.monotonic() - t0:.1f} s)", flush=True)
    return 0 if failures == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny run of every workload in both modes")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required (or --smoke)")
    if not build():
        log("build failed")
        return 1
    if args.smoke:
        return smoke()
    code, result = run_one(args.workload, args.seed, args.seconds,
                           bool(args.trace), smoke=False)
    if result is None:
        return code or 1
    print(result["raw"], flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
