#!/usr/bin/env python3
"""xplaind answers request fields it cannot admit with one error naming the
field, and runs and caches nothing for them: integers no int/uint64 can
hold, options keys the options list does not declare, values of the wrong
JSON kind, options and scenario values outside their admissible ranges, and
submissions past the per-submission job cap.  After a drain, a valid
submission gets exactly one event, an error, and is never "accepted".

    python3 tests/xplaind_integer_fields.py path/to/xplaind
"""
import json
import subprocess
import sys


def must_be_integer(field):
    return field + " must be an integer"


def opts(**groups):
    return {"cases": ["first_fit"], "options": groups}


# (spec, a fragment the error message must contain)
BAD = [
    ({"cases": ["demand_pinning_chain"],
      "scenarios": [{"kind": "line", "size": 1e300}]},
     must_be_integer("scenario.size")),
    ({"cases": ["wcmp"], "scenarios": [{"kind": "fat_tree", "size": 2147483648}]},
     must_be_integer("scenario.size")),
    ({"cases": ["wcmp"], "scenarios": [{"kind": "line", "failed_links": 2.5}]},
     must_be_integer("scenario.failed_links")),
    ({"cases": ["wcmp"], "scenarios": [{"kind": "line", "seed": -1}]},
     must_be_integer("scenario.seed")),
    ({"cases": ["first_fit"], "seed": -1}, must_be_integer("spec.seed")),
    ({"cases": ["first_fit"], "options": {"seed_salt": 1e300}},
     must_be_integer("spec.options.seed_salt")),
    ({"cases": ["first_fit"], "options": {"subspace": {"max_subspaces": 2.5}}},
     must_be_integer("spec.options.subspace.max_subspaces")),
    ({"cases": ["first_fit"],
      "options": {"subspace": {"tree": {"max_depth": 2147483648}}}},
     must_be_integer("spec.options.subspace.tree.max_depth")),
    ({"cases": ["first_fit"],
      "option_variants": [{}, {"explain": {"samples": -1e300}}]},
     must_be_integer("spec.option_variants[1].explain.samples")),
    # 64-bit seeds also travel as decimal strings: digits only, the whole
    # string, in [0, 2^64).
    ({"cases": ["first_fit"], "seed": "-1"}, must_be_integer("spec.seed")),
    ({"cases": ["first_fit"], "seed": " +7"}, must_be_integer("spec.seed")),
    ({"cases": ["wcmp"], "scenarios": [{"kind": "line", "seed": "12x"}]},
     must_be_integer("scenario.seed")),
    ({"cases": ["first_fit"], "options": {"subspace": {"seed": "abc"}}},
     must_be_integer("spec.options.subspace.seed")),
    ({"cases": ["first_fit"],
      "options": {"explain": {"seed": "99999999999999999999999"}}},
     must_be_integer("spec.options.explain.seed")),
    ({"cases": ["first_fit"], "options": {"seed_salt": ""}},
     must_be_integer("spec.options.seed_salt")),
    ({"cases": ["first_fit"],
      "options": {"subspace": {"significance": {"seed": "0x10"}}}},
     must_be_integer("spec.options.subspace.significance.seed")),
    # Options: the list's ranges, its keys, and its value kinds.
    (opts(subspace={"dkw_eps": 0}),
     "spec.options.subspace.dkw_eps must be in [0.01, 1]"),
    (opts(subspace={"dkw_delta": 2}),
     "spec.options.subspace.dkw_delta must be in [1e-06, 1)"),
    (opts(explain={"samples": -7}),
     "spec.options.explain.samples must be in [0, 100000]"),
    (opts(subspace={"tree_samples": 2e9}),
     "spec.options.subspace.tree_samples must be in [0, 100000]"),
    (opts(explain={"workers": 2e9}),
     "spec.options.explain.workers must be in [0, 4096]"),
    (opts(subspace={"dkw_esp": 0.2}),
     "spec.options.subspace.dkw_esp is not an option"),
    (opts(subspace={"dkw_eps": "0.1"}),
     "spec.options.subspace.dkw_eps must be a number"),
    (opts(subspace={"significance": 5}),
     "spec.options.subspace.significance must be an object"),
    ({"cases": ["first_fit"], "reseed_jobs": 1},
     "spec.reseed_jobs must be true or false"),
    # Scenarios: the admission bounds of scenario/spec.h.
    ({"cases": ["wcmp"], "scenarios": [{"kind": "line", "size": 200000}]},
     "scenario.size must be in [2, 4096]"),
    ({"cases": ["wcmp"], "scenarios": [{"kind": "waxman", "size": 1024}]},
     "scenario.size must be in [2, 256]"),
    ({"cases": ["wcmp"], "scenarios": [{"kind": "fat_tree", "size": -2}]},
     "scenario.size must be in [2, 16]"),
    ({"cases": ["wcmp"], "scenarios": [{"kind": "line", "size": 0}]},
     "scenario.size must be in [2, 4096]"),
    ({"cases": ["wcmp"], "scenarios": [{"kind": "line", "size": -5}]},
     "scenario.size must be in [2, 4096]"),
    ({"cases": ["wcmp"], "scenarios": [{"kind": "fat_tree", "size": 3}]},
     "scenario.size must be even for fat_tree"),
    ({"cases": ["wcmp"], "scenarios": [{"kind": "line", "failed_links": -3}]},
     "scenario.failed_links must be >= 0"),
    ({"cases": ["wcmp"], "scenarios": [{"kind": "line", "capacity": -10}]},
     "scenario.capacity must be finite and > 0"),
    ({"cases": ["wcmp"],
      "scenarios": [{"kind": "line", "capacity_degradation": 0}]},
     "scenario.capacity_degradation must be in (0, 1]"),
    ({"cases": ["wcmp"], "scenarios": [{"kind": "waxman", "waxman_beta": 0}]},
     "scenario.waxman_beta must be in (0, 1]"),
    # The per-submission job cap: 33 scenarios x 32 variants = 1056 jobs.
    ({"cases": ["first_fit"],
      "scenarios": [{"kind": "line", "size": 3, "seed": i}
                    for i in range(1, 34)],
      "option_variants": [{"subspace": {"max_subspaces": 0},
                           "explain": {"samples": 0}}] * 32},
     "spec expands to more than 1024 jobs"),
]


# Valid, but submitted after a drain.
LATE_ID = "late"
LATE = {"cases": ["first_fit"],
        "options": {"subspace": {"max_subspaces": 0}, "explain": {"samples": 0}}}


def main():
    lines = [json.dumps({"op": "submit", "id": i, "spec": spec})
             for i, (spec, _) in enumerate(BAD)]
    lines += [json.dumps({"op": "stats"}), json.dumps({"op": "drain"}),
              json.dumps({"op": "submit", "id": LATE_ID, "spec": LATE}),
              json.dumps({"op": "stats"}), json.dumps({"op": "shutdown"})]
    proc = subprocess.run([sys.argv[1]], input="\n".join(lines) + "\n",
                          capture_output=True, text=True, timeout=120)
    events = [json.loads(line) for line in proc.stdout.splitlines()]
    failures = []
    if proc.returncode != 0:
        failures.append(f"xplaind exited {proc.returncode}: {proc.stderr}")
    if len(events) != len(BAD) + 5:
        failures.append(f"want {len(BAD) + 5} responses, got {events}")
    for i, (_, fragment) in enumerate(BAD):
        e = events[i] if i < len(events) else {}
        if (e.get("event") != "error" or e.get("id") != i
                or fragment not in e.get("message", "")):
            failures.append(f"request {i}: want an error with {fragment!r}, "
                            f"got {e}")
    tail = events[len(BAD):] + [{}] * 5
    stats, drained, late, late_stats = tail[:4]
    for key in ("submissions", "jobs_submitted", "cache_entries", "case_builds"):
        if stats.get(key) != "0":
            failures.append(f"stats.{key} = {stats.get(key)}, want 0")
    if drained.get("event") != "drained":
        failures.append(f"want a drained event, got {drained}")
    late_events = [e for e in events if e.get("id") == LATE_ID]
    if late_events != [late] or late.get("event") != "error":
        failures.append(f"submit after drain: want exactly one error event, "
                        f"got {late_events}")
    if late_stats.get("submissions") != "0":
        failures.append(f"after drain, stats.submissions = "
                        f"{late_stats.get('submissions')}, want 0")
    for f in failures:
        print("FAIL:", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
