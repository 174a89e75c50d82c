#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the library).

    python3 perfbench/selftest.py

1. A tiny-length smoke run of every workload, untraced and traced, prints
   every metric named in BENCHMARK.json with its unit, and is correct.
2. In each traced run the Table 2 shares, with energy and `other`, sum to
   100 +- 0.5 % and none is below -0.5 % (no span counted twice).
3. A deliberately wrong expected hash makes the run fail: nonzero exit,
   "correct": false, every attempted cycle failed.
Exits nonzero on the first failed check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SHARES = ("range_limited", "gse.spread", "gse.fft", "gse.interpolate",
          "bonded", "correction", "force_reduce", "integrate", "migrate",
          "energy", "other")


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seconds", "1", "--trace", str(trace)] + list(extra)
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = p.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit("FAIL: %s printed nothing" % " ".join(cmd))
    return p.returncode, json.loads(lines[-1]), p.stdout


def check(cond, what):
    print("%s: %s" % ("ok  " if cond else "FAIL", what), flush=True)
    if not cond:
        raise SystemExit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in (x["name"] for x in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            rc, res, text = run(w, trace)
            check(rc == 0 and res["correct"] and res["failed"] == 0
                  and res["attempted"] >= 1,
                  "%s trace=%d smoke run is correct" % (w, trace))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == {m["name"]: m["unit"] for m in wanted},
                  "%s trace=%d prints all %d metrics with units"
                  % (w, trace, len(wanted)))
            missing = [m["name"] for m in wanted if m["name"] not in text]
            check(not missing, "%s trace=%d summary lists every metric %s"
                  % (w, trace, " ".join(missing)))
            if trace:
                shares = [res["metrics"][s + ".share"]["value"]
                          for s in SHARES]
                check(abs(sum(shares) - 1.0) <= 0.005 and
                      min(shares) >= -0.005,
                      "%s shares incl. other sum to %.4f, min %.4f"
                      % (w, sum(shares), min(shares)))
    rc, res, _ = run("peptide_vm", 0, "--expect-hash", "0x0")
    check(rc != 0 and not res["correct"] and
          res["failed"] == res["attempted"],
          "a wrong expected hash fails the run (exit %d, failed %d of %d)"
          % (rc, res["failed"], res["attempted"]))
    print("all self-tests passed")


if __name__ == "__main__":
    main()
