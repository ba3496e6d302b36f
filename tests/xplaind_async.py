#!/usr/bin/env python3
"""xplaind's main loop only parses and dispatches: a slow submission does not
hold up the requests behind it.  Sent in one write: a slow submit, stats, a
cheap submit, the slow submit again, shutdown.  The stats reply and the
cheap job's event must come before the slow submission's done; done events
leave in submission order; the repeat rides the slow claim and is served
cached; every submission gets one accepted and one done around its job
events; bye is the last line and the daemon exits 0.

    python3 tests/xplaind_async.py path/to/xplaind
"""
import json
import os
import subprocess
import sys

# About 1.9 s in a Release build: long enough for every other request to be
# read, dispatched and answered while it runs.
SLOW = {"cases": ["demand_pinning_chain"],
        "scenarios": [{"kind": "line", "size": 6}],
        "options": {"explain": {"workers": 1},
                    "subspace": {"significance": {"workers": 1}}}}
FAST = {"cases": ["first_fit"],
        "options": {"subspace": {"max_subspaces": 0},
                    "explain": {"samples": 0}}}
SUBMISSIONS = [("slow", SLOW), ("fast", FAST), ("slow2", SLOW)]


def main():
    lines = [json.dumps({"op": "submit", "id": "slow", "spec": SLOW}),
             json.dumps({"op": "stats"}),
             json.dumps({"op": "submit", "id": "fast", "spec": FAST}),
             json.dumps({"op": "submit", "id": "slow2", "spec": SLOW}),
             json.dumps({"op": "shutdown"})]
    # The cheap job must have a worker of its own while the slow one runs.
    env = dict(os.environ)
    if int(env.get("XPLAIN_WORKERS") or 0) < 2:
        env["XPLAIN_WORKERS"] = "2"
    proc = subprocess.run([sys.argv[1]], input="\n".join(lines) + "\n",
                          capture_output=True, text=True, timeout=600,
                          env=env)
    events = [json.loads(line) for line in proc.stdout.splitlines()]
    failures = []
    if proc.returncode != 0:
        failures.append(f"xplaind exited {proc.returncode}: {proc.stderr}")

    def position(kind, sid=None):
        for i, e in enumerate(events):
            if e.get("event") == kind and (sid is None or e.get("id") == sid):
                return i
        failures.append(f"no {kind} event for {sid}")
        return len(events)

    slow_done = position("done", "slow")
    if position("stats") > slow_done:
        failures.append("the stats reply waited for the slow submission")
    if position("job", "fast") > slow_done:
        failures.append("the cheap job waited for the slow submission")
    dones = [e.get("id") for e in events if e.get("event") == "done"]
    if dones != [sid for sid, _ in SUBMISSIONS]:
        failures.append(f"done events out of submission order: {dones}")
    for sid, _ in SUBMISSIONS:
        own = [i for i, e in enumerate(events) if e.get("id") == sid]
        kinds = [events[i].get("event") for i in own]
        if kinds != ["accepted", "job", "done"]:
            failures.append(f"{sid}: want accepted, job, done; got {kinds}")
    repeat = [e for e in events
              if e.get("event") == "job" and e.get("id") == "slow2"]
    if not repeat or repeat[0].get("cached") is not True:
        failures.append(f"the repeat was not served cached: {repeat}")
    if not events or events[-1].get("event") != "bye":
        failures.append(f"want bye as the last line, got {events[-1:]}")
    for f in failures:
        print("FAIL:", f)
    print("order:", " ".join(f"{e.get('event')}:{e.get('id', '')}"
                             for e in events))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
