#!/usr/bin/env python3
"""Self-test of tools/bench_compare.py's gates over the committed baselines.

    python3 tests/bench_compare_selftest.py

Each baseline, carrying its bench's "exact" list, must compare OK against
itself; each seeded mutation must fail or pass exactly as the gate rules say.
"""
import copy
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "bench_compare.py")
BASELINES = os.path.join(ROOT, "bench", "baselines")

spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
bench_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_compare)

# What each bench lists under "exact" (BenchReport::count), and the CI flags
# it is compared with.
EXACT = {
    "fig4_runtime": [],
    "sec2_dp_gap30": [],
    "bench_lb_wcmp": [],
    "bench_service": [
        "cache_hits", "cache_misses", "cache_entries", "service_case_builds",
        "engine_case_builds", "replay_identical", "evict_cache_inserts",
        "evict_cache_evictions", "evict_cache_entries",
        "evict_cache_high_water_ok", "replay_journal_entries",
        "replay_cached_jobs", "replay_restart_identical",
        "replay_restart_lp_solves",
    ],
    "bench_fuzz_discovery": [
        "fuzz_evals", "discovered_specs", "discovered_buckets",
        "discovered_cases", "discovered_failure_specs",
        "discovered_coverage_buckets", "replay_identical_workers",
    ],
}
EXACT_COUNTERS = {"bench_lb_wcmp", "bench_service", "bench_fuzz_discovery"}


def ci_flags(bench):
    return {"max_regression": 1.0,
            "max_counter_regression": 0.0 if bench in EXACT_COUNTERS else 0.25}


def lp_or_timing(key):
    """The naming rule the gate must follow, restated here so a broken rule
    in the tool cannot also change what this test expects."""
    return key.startswith("lp_") or key.endswith("seconds")


def experiments(doc):
    return sorted(k for k, v in doc.items()
                  if isinstance(v, dict) and "jobs" in v)


def mutated(v):
    """A value that differs from v in its first 9 significant digits, and
    only barely: a gate that rounds floats more coarsely misses it."""
    if isinstance(v, bool):
        return not v
    if isinstance(v, int):
        return v + 1
    if isinstance(v, float):
        return v * (1.0 + 1e-6) + 1e-6
    if isinstance(v, str):
        return v + "x"
    return 0  # null


def leaves(obj, path=()):
    """The path of every scalar inside obj."""
    items = (obj.items() if isinstance(obj, dict) else enumerate(obj))
    for k, v in items:
        if isinstance(v, (dict, list)):
            yield from leaves(v, path + (k,))
        else:
            yield path + (k,)


def set_at(doc, path, value):
    for k in path[:-1]:
        doc = doc[k]
    doc[path[-1]] = value


def get_at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


def innermost_key(path):
    return [k for k in path if isinstance(k, str)][-1]


class Checker:
    def __init__(self):
        self.failed = []
        self.checks = 0

    def expect(self, bench, what, fresh, base, want_fail, **flags):
        self.checks += 1
        got = list(bench_compare.failures(fresh, base, **flags))
        if bool(got) != want_fail:
            self.failed.append(
                f"{bench}: {what}: want {'FAIL' if want_fail else 'OK'}, "
                f"got {got or 'OK'}")


def run_cli(fresh, base, flags):
    """Exit code of the command-line tool on two documents."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, doc in (("fresh.json", fresh), ("base.json", base)):
            paths.append(os.path.join(tmp, name))
            with open(paths[-1], "w") as f:
                json.dump(doc, f)
        cmd = [sys.executable, TOOL, "--max-regression",
               str(flags["max_regression"]), "--max-counter-regression",
               str(flags["max_counter_regression"])] + paths
        return subprocess.run(cmd, capture_output=True).returncode


def check_bench(c, bench, base):
    flags = ci_flags(bench)
    fresh = dict(base, exact=EXACT[bench])
    c.expect(bench, "baseline plus its exact list", fresh, base, False,
             **flags)
    c.checks += 1
    if run_cli(fresh, base, flags) != 0:
        c.failed.append(f"{bench}: CLI with CI flags rejects the baseline")

    for key in EXACT[bench]:
        f = copy.deepcopy(fresh)
        f[key] = mutated(f[key])
        c.expect(bench, f"exact key {key} changed", f, base, True, **flags)
        b = copy.deepcopy(base)
        del b[key]
        c.expect(bench, f"exact key {key} dropped from the baseline", fresh,
                 b, True, **flags)
    # The baseline's own exact list is gated too.
    for key in EXACT[bench]:
        f = dict(base)
        f[key] = mutated(f[key])
        c.expect(bench, f"{key} listed only by the baseline", f,
                 dict(base, exact=[key]), True, **flags)

    # Keys that are neither exact, LP counters, wall time nor experiments
    # are reported but not gated.
    for key, v in base.items():
        if (key in EXACT[bench] or key in ("bench", "wall_seconds")
                or key.startswith("lp_") or isinstance(v, (dict, list))):
            continue
        f = dict(fresh)
        f[key] = mutated(v)
        c.expect(bench, f"ungated key {key} changed", f, base, False, **flags)

    for factor, want_fail in ((1.99, False), (2.01, True)):
        f = dict(fresh, wall_seconds=base["wall_seconds"] * factor)
        c.expect(bench, f"wall_seconds x{factor} under --max-regression 1", f,
                 base, want_fail, **flags)

    f = dict(fresh)
    f["lp_iterations"] += 1
    c.expect(bench, "lp_iterations + 1 under --max-counter-regression 0", f,
             base, True, max_regression=1.0, max_counter_regression=0.0)
    f = dict(fresh)
    del f["lp_solves"]
    c.expect(bench, "lp_solves missing from the fresh run", f, base, True,
             **flags)

    for doc in experiments(base):
        f = dict(fresh)
        del f[doc]
        c.expect(bench, f"embedded experiment {doc} dropped", f, base, True,
                 **flags)
        for path in leaves(base[doc]):
            f = copy.deepcopy(fresh)
            set_at(f[doc], path, mutated(get_at(base[doc], path)))
            c.expect(bench, f"{doc} value at {list(path)} changed", f, base,
                     not lp_or_timing(innermost_key(path)), **flags)


def main():
    c = Checker()
    for bench in EXACT:
        with open(os.path.join(BASELINES, f"BENCH_{bench}.json")) as f:
            check_bench(c, bench, json.load(f))
    # One failing run through the command line: the exit code CI sees.
    with open(os.path.join(BASELINES, "BENCH_bench_service.json")) as f:
        base = json.load(f)
    fresh = dict(base, exact=EXACT["bench_service"])
    fresh["lp_iterations"] += 1
    c.checks += 1
    if run_cli(fresh, base, ci_flags("bench_service")) != 1:
        c.failed.append("CLI does not exit 1 on an lp_iterations drift")

    for msg in c.failed:
        print("FAIL:", msg)
    print(f"bench_compare self-test: {c.checks} checks, "
          f"{len(c.failed)} failed")
    return 1 if c.failed else 0


if __name__ == "__main__":
    sys.exit(main())
