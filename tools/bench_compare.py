#!/usr/bin/env python3
"""Diff a fresh BENCH_*.json against a committed baseline.

Usage:
    bench_compare.py FRESH.json BASELINE.json [--max-regression 0.25]
                     [--max-counter-regression 0.25]

Every gate reads the report's own vocabulary (tools/bench_json.h), so this
script names no key a bench reports.  Each gate exits non-zero on failure:

* Exact keys: the union of the fresh report's "exact" list and the
  baseline's (the keys benches attach with BenchReport::count) must be
  present in both reports and equal.  These counts are pure functions of
  the code and the bench's inputs, so they hold on every machine.
* LP counters: the "lp_"-prefixed keys (solver::kLpCounterFields) are
  deterministic for a given code version, so any drift is a real behavior
  change, not noise.  None may exceed its baseline by more than
  --max-counter-regression (default 25%); at 0 the gate is exact both ways,
  because an improvement also means the baseline no longer describes the
  code.  A baseline counter missing from the fresh report fails.
* wall_seconds may not regress by more than --max-regression (default 25%).
  Wall time is machine-dependent — baselines are recorded on a developer
  machine, CI runners differ — so CI passes a looser threshold here and
  relies on the counter gates for precision.
* Embedded experiment documents (a JSON object member with a "jobs" array —
  what xplain::ExperimentResult::to_json emits through BenchReport::raw)
  must equal the baseline's after dropping timing ("seconds"-suffixed) and
  LP counter ("lp_"-prefixed) keys and rounding floats to 9 significant
  digits (absorbing last-ULP libm differences across machines).  A document
  present on only one side fails too — renaming the key must not silently
  disarm the gate.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def is_lp_counter(key):
    return key.startswith("lp_")


def is_timing_or_lp(key):
    """The vocabulary's naming rule for machine- and worker-dependent keys:
    timings end in "seconds", LP counters start with "lp_"."""
    return key.endswith("seconds") or is_lp_counter(key)


def scrub(obj):
    """Normalizes an embedded experiment document for cross-machine
    comparison: drops timings and LP counters (thread-count dependent), and
    rounds floats to 9 significant digits — gaps and trend statistics are
    deterministic for a given build, but libm transcendentals (p-values go
    through lgamma/ibeta) and FP codegen may differ in the last ULPs across
    glibc/compiler versions, which is noise, not behavior."""
    if isinstance(obj, dict):
        return {k: scrub(v) for k, v in obj.items() if not is_timing_or_lp(k)}
    if isinstance(obj, list):
        return [scrub(v) for v in obj]
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    return obj


def experiment_keys(doc):
    return {k for k, v in doc.items() if isinstance(v, dict) and "jobs" in v}


def failures(fresh, base, max_regression=0.25, max_counter_regression=0.25):
    """Yields one message per failed gate (both reports must carry a
    positive wall_seconds)."""
    fresh_docs, base_docs = experiment_keys(fresh), experiment_keys(base)
    for key in sorted(fresh_docs ^ base_docs):
        side = "baseline" if key in base_docs else "fresh run"
        yield (f"embedded experiment {key!r} exists only in the {side} — the "
               f"exact experiment comparison no longer covers it")
    for key in sorted(fresh_docs & base_docs):
        if scrub(fresh[key]) != scrub(base[key]):
            yield (f"embedded experiment {key!r} diverged from the baseline "
                   f"(job structure / gaps / trends; timings and LP counters "
                   f"are excluded from this comparison)")

    exact = dict.fromkeys(fresh.get("exact", []) + base.get("exact", []))
    for key in exact:
        if key not in base or key not in fresh:
            side = "baseline" if key not in base else "fresh run"
            yield f"exact key {key} is missing from the {side}"
        elif fresh[key] != base[key]:
            yield (f"{key} {fresh[key]} != baseline {base[key]} (exact "
                   f"count: any drift is a behavior change)")

    for key in filter(is_lp_counter, base):
        f, b = fresh.get(key), base[key]
        if f is None:
            yield f"LP counter {key} is missing from the fresh run"
        elif max_counter_regression == 0.0:
            if f != b:
                yield (f"{key} {f} != baseline {b} (exact gate: any drift is "
                       f"a behavior change; regenerate the baseline if "
                       f"intentional)")
        elif f > b * (1.0 + max_counter_regression):
            yield (f"{key} {f} is above baseline {b} by more than the "
                   f"allowed +{100.0 * max_counter_regression:.0f}% (this "
                   f"counter is deterministic — a real behavior change)")

    ratio = fresh["wall_seconds"] / base["wall_seconds"]
    if ratio > 1.0 + max_regression:
        yield (f"wall_seconds is {100.0 * (ratio - 1.0):.1f}% slower than "
               f"baseline (allowed +{100.0 * max_regression:.0f}%)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", help="BENCH_*.json from the current run")
    parser.add_argument("baseline", help="committed baseline BENCH_*.json")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed relative wall-time increase (default 0.25 = +25%%)",
    )
    parser.add_argument(
        "--max-counter-regression",
        type=float,
        default=0.25,
        help="allowed relative increase of each lp_ counter (default 0.25)",
    )
    args = parser.parse_args()

    fresh = load(args.fresh)
    base = load(args.baseline)

    if fresh.get("bench") != base.get("bench"):
        print(
            f"bench_compare: bench name mismatch: "
            f"{fresh.get('bench')!r} vs {base.get('bench')!r}",
            file=sys.stderr,
        )
        sys.exit(2)
    fw, bw = fresh.get("wall_seconds"), base.get("wall_seconds")
    if fw is None or bw is None or bw <= 0:
        print("bench_compare: missing/invalid wall_seconds", file=sys.stderr)
        sys.exit(2)

    name = fresh.get("bench", "?")
    print(f"bench_compare: {name}")
    for key in filter(is_lp_counter, fresh):
        f, b = fresh[key], base.get(key)
        drift = f" ({100.0 * (f - b) / b:+.1f}%)" if b else ""
        print(f"  {key:>15}: {f} vs baseline {b}{drift}")
    print(f"  {'wall_seconds':>15}: {fw:.4f} vs baseline {bw:.4f} "
          f"({100.0 * (fw / bw - 1.0):+.1f}%)")

    failed = list(failures(fresh, base, args.max_regression,
                           args.max_counter_regression))
    if failed:
        for msg in failed:
            print(f"bench_compare: FAIL — {name}: {msg}", file=sys.stderr)
        sys.exit(1)
    print("bench_compare: OK")


if __name__ == "__main__":
    main()
