#!/usr/bin/env python3
"""xplaind answers integer request fields that no int/uint64 can hold with an
error naming the field, and runs and caches nothing for them.

    python3 tests/xplaind_integer_fields.py path/to/xplaind
"""
import json
import subprocess
import sys

# (spec, the field the error must name)
BAD = [
    ({"cases": ["demand_pinning_chain"],
      "scenarios": [{"kind": "line", "size": 1e300}]}, "scenario.size"),
    ({"cases": ["wcmp"], "scenarios": [{"kind": "fat_tree", "size": 2147483648}]},
     "scenario.size"),
    ({"cases": ["wcmp"], "scenarios": [{"kind": "line", "failed_links": 2.5}]},
     "scenario.failed_links"),
    ({"cases": ["wcmp"], "scenarios": [{"kind": "line", "seed": -1}]},
     "scenario.seed"),
    ({"cases": ["first_fit"], "seed": -1}, "spec.seed"),
    ({"cases": ["first_fit"], "options": {"seed_salt": 1e300}},
     "spec.options.seed_salt"),
    ({"cases": ["first_fit"], "options": {"subspace": {"max_subspaces": 2.5}}},
     "spec.options.subspace.max_subspaces"),
    ({"cases": ["first_fit"],
      "options": {"subspace": {"tree": {"max_depth": 2147483648}}}},
     "spec.options.subspace.tree.max_depth"),
    ({"cases": ["first_fit"],
      "option_variants": [{}, {"explain": {"samples": -1e300}}]},
     "spec.option_variants[1].explain.samples"),
    # 64-bit seeds also travel as decimal strings: digits only, the whole
    # string, in [0, 2^64).
    ({"cases": ["first_fit"], "seed": "-1"}, "spec.seed"),
    ({"cases": ["first_fit"], "seed": " +7"}, "spec.seed"),
    ({"cases": ["wcmp"], "scenarios": [{"kind": "line", "seed": "12x"}]},
     "scenario.seed"),
    ({"cases": ["first_fit"], "options": {"subspace": {"seed": "abc"}}},
     "spec.options.subspace.seed"),
    ({"cases": ["first_fit"],
      "options": {"explain": {"seed": "99999999999999999999999"}}},
     "spec.options.explain.seed"),
    ({"cases": ["first_fit"], "options": {"seed_salt": ""}},
     "spec.options.seed_salt"),
    ({"cases": ["first_fit"],
      "options": {"subspace": {"significance": {"seed": "0x10"}}}},
     "spec.options.subspace.significance.seed"),
]


def main():
    lines = [json.dumps({"op": "submit", "id": i, "spec": spec})
             for i, (spec, _) in enumerate(BAD)]
    lines += [json.dumps({"op": "stats"}), json.dumps({"op": "shutdown"})]
    proc = subprocess.run([sys.argv[1]], input="\n".join(lines) + "\n",
                          capture_output=True, text=True, timeout=120)
    events = [json.loads(line) for line in proc.stdout.splitlines()]
    failures = []
    if proc.returncode != 0:
        failures.append(f"xplaind exited {proc.returncode}: {proc.stderr}")
    if len(events) != len(BAD) + 2:
        failures.append(f"want {len(BAD) + 2} responses, got {events}")
    for i, (_, field) in enumerate(BAD):
        e = events[i] if i < len(events) else {}
        if (e.get("event") != "error" or e.get("id") != i
                or field + " must be an integer" not in e.get("message", "")):
            failures.append(f"request {i}: want an error naming {field}, got {e}")
    stats = events[len(BAD)] if len(events) > len(BAD) else {}
    for key in ("submissions", "jobs_submitted", "cache_entries", "case_builds"):
        if stats.get(key) != "0":
            failures.append(f"stats.{key} = {stats.get(key)}, want 0")
    for f in failures:
        print("FAIL:", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
