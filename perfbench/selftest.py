#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark (see README.md).

Run from the repository root:

    python3 perfbench/selftest.py

For every workload, with a fixed request count instead of a time window:
  - two traced runs with the same seed give identical per-layer counts, and
    two untraced runs give identical wire_bytes;
  - the same seed gives the same request order and another seed another;
  - a deliberately wrong expected outcome is counted against ok_ratio, and
    the run reports correct=false and exits non-zero.
Exits 1 on the first failed check.
"""

import json
import subprocess
import sys

sys.dont_write_bytecode = True  # Keep perfbench/ free of __pycache__.
import run  # noqa: E402

# Requests per run: whole rounds of each workload's program set.
REQUESTS = {"cold-start": 256, "warm-serve": 2048, "publish": 256}
# Per-layer metrics that are counts of work or events, so must repeat exactly.
EXACT_UNITS = {"count"}
EXACT_NAMES = {"cache.hit_ratio"}


def bench(binary, workload, seed, trace, *extra):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace),
           "--requests", str(REQUESTS[workload]), "--programs", run.PROGRAMS]
    p = subprocess.run(cmd + list(extra), capture_output=True, text=True,
                       timeout=run.RUN_TIMEOUT_S)
    result = json.loads(p.stdout.strip().splitlines()[-1])
    order = [l.split()[-1] for l in p.stderr.splitlines() if "request-order" in l]
    return p.returncode, result, order[0]


def check(ok, what):
    print(("PASS  " if ok else "FAIL  ") + what)
    if not ok:
        sys.exit(1)


def exact(metrics):
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] in EXACT_UNITS or k in EXACT_NAMES}


def main():
    binary = run.build()
    if binary is None:
        return 1
    for w in REQUESTS:
        rc1, a, order_a = bench(binary, w, 1, 1)
        rc2, b, order_b = bench(binary, w, 1, 1)
        _, _, order_c = bench(binary, w, 2, 1)
        check(rc1 == 0 and rc2 == 0 and a["correct"] and b["correct"],
              "%s: traced runs succeed" % w)
        ca, cb = exact(a["metrics"]), exact(b["metrics"])
        diff = sorted(k for k in ca if ca[k] != cb.get(k))
        check(not diff, "%s: %d per-layer counts repeat exactly%s"
              % (w, len(ca), (" (differ: %s)" % ", ".join(diff)) if diff else ""))
        check(ca["exec.insts"] > 0 or w == "publish",
              "%s: exec.insts counted" % w)
        check(order_a == order_b and order_a != order_c,
              "%s: the seed drives the request order" % w)

        _, d, _ = bench(binary, w, 1, 0)
        _, e, _ = bench(binary, w, 1, 0)
        check(d["metrics"]["wire_bytes"] == e["metrics"]["wire_bytes"]
              and d["metrics"]["ok_ratio"]["value"] == 1.0,
              "%s: wire_bytes repeats exactly, ok_ratio 1.0" % w)

        rc, broken, _ = bench(binary, w, 1, 0, "--break-expectation")
        ok_ratio = broken["metrics"]["ok_ratio"]["value"]
        check(rc != 0 and not broken["correct"] and broken["failed"] > 0
              and ok_ratio < 1.0,
              "%s: a wrong expectation is counted (ok_ratio %.4f, %d failed)"
              % (w, ok_ratio, broken["failed"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
