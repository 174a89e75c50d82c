#!/usr/bin/env python3
"""Regenerates perfbench/data/reference_hashes.json.

    python3 perfbench/make_reference.py [--workloads dhfr_engine ...]
                                        [--seeds 0-10,1234,2024]

For every (workload, seed) it runs the workload's independent reference
(the same engine program at another thread count; AntonEngine for
peptide_vm) over one episode and records the final state hash. run.py
hands the recorded hash to the measuring program, which computes the
reference itself for seeds the table lacks. Rerun this only when a change
is meant to alter the trajectory.
"""
import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's build and paths)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=list(run.WORKLOADS))
    ap.add_argument("--seeds", default="0-10,1234,2024")
    a = ap.parse_args()
    run.build()
    try:
        with open(run.REFERENCE) as f:
            table = json.load(f)
    except OSError:
        table = {}
    for seed in parse_seeds(a.seeds):
        for w in a.workloads:
            out = run.run_binary(["--workload", w, "--seed", str(seed),
                                  "--reference"], run.RUN_TIMEOUT_S)
            ref = json.loads(out.strip().splitlines()[-1])
            table.setdefault(w, {})[str(seed)] = ref["hash"]
            print("%s seed %d: %s" % (w, seed, ref["hash"]), flush=True)
            os.makedirs(os.path.dirname(run.REFERENCE), exist_ok=True)
            with open(run.REFERENCE, "w") as f:
                json.dump(table, f, indent=1, sort_keys=True)
                f.write("\n")


if __name__ == "__main__":
    main()
