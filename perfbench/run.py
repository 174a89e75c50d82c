#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads, every metric.

    python3 perfbench/run.py --workload dhfr_engine --seed 2024 \
        --seconds 10 --trace 0

Builds perfbench/ (the library from src/ plus the measuring program) into
.bench_build/ on first use, runs one workload, checks the run's final
state hash bitwise against an independently produced reference, writes the
full report (host block included) to .bench_build/results/, prints a
readable summary and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. Exits 0 only when the run is correct. See README.md.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT,
                     os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "perfbench")
WORKDIR = os.path.join(BUILD, "tmp")  # per-run scratch (checkpoints, frames)
REFERENCE = os.path.join(HERE, "data", "reference_hashes.json")

WORKLOADS = ("dhfr_engine", "peptide_vm", "bpti_production")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once and builds incrementally; serialised by a lock."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", CMAKE_DIR, "--target", "perfbench",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (full log: %s)" % log_path, 3)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_binary(args, timeout):
    os.makedirs(WORKDIR, exist_ok=True)
    try:
        p = subprocess.run([BINARY] + args + ["--workdir", WORKDIR],
                           capture_output=True, text=True, timeout=timeout,
                           cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("perfbench %s timed out after %d s" % (" ".join(args), timeout), 4)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        fail("perfbench exited with %d" % p.returncode, 4)
    return p.stdout


def recorded_hash(workload, seed):
    """The reference hash recorded for (workload, seed), or None; the
    measuring program computes it itself when the table lacks the seed."""
    try:
        with open(REFERENCE) as f:
            return json.load(f).get(workload, {}).get(str(seed))
    except (OSError, ValueError) as e:
        print("reference table unreadable (%s); recomputing" % e)
        return None


def contract_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: 2024, or 1234 for peptide_vm)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expect-hash", default=None,
                    help="override the reference hash (self-test)")
    a = ap.parse_args()

    build()
    end_to_end, per_layer = contract_metrics()
    seed = a.seed if a.seed is not None else (
        1234 if a.workload == "peptide_vm" else 2024)
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(results, "%s-seed%d-trace%d.json"
                       % (a.workload, seed, a.trace))
    expected = a.expect_hash or recorded_hash(a.workload, seed)
    run_binary(["--workload", a.workload, "--seed", str(seed),
                "--seconds", repr(a.seconds), "--trace", str(a.trace),
                "--out", out, "--git-sha", git_sha()]
               + (["--expect-hash", expected] if expected else []),
               RUN_TIMEOUT_S)
    with open(out) as f:
        rep = json.load(f)
    check = rep["check"]

    metrics = {}
    if a.trace == 0:
        wanted, have = end_to_end, rep["metrics"]
    else:
        wanted, have = per_layer, rep["layers"]
    for m in wanted:
        got = have.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("metric %s (%s) missing from the report"
                 % (m["name"], m["unit"]))
        metrics[m["name"]] = got

    host, sysd = rep["host"], rep["system"]
    print("host: %d cpus, %s, avx2=%s avx512f=%s, %s, %s [%s], git %s" % (
        host["nproc"], host["cpu_model"], host["isa"]["avx2"],
        host["isa"]["avx512f"], host["compiler"], host["build_type"],
        host["cxx_flags"].strip(), host["git_sha"][:12]))
    print("workload %s: %s on %s (%s), %d atoms, %.1f A cutoff, %d^3 mesh, "
          "grid %s, subbox %s, %d threads%s, seed %d" % (
              a.workload, sysd["label"], sysd["runtime"], sysd["transport"],
              sysd["natoms"], sysd["cutoff_A"], sysd["mesh"],
              sysd["node_grid"], sysd["subbox"], sysd["threads"],
              " on one CPU" if sysd["one_cpu"] else "", seed))
    run = rep["run"]
    print("samples: %d timed (+%d traced) in %d episodes, %d steps each; "
          "tail = p%d with %d samples beyond it"
          % (run["samples"], run["traced_samples"], run["episodes"],
             sysd["steps_per_sample"], run["tail_percentile"],
             run["tail_beyond"]))
    for name, v in metrics.items():
        print("  %-40s %16.6g %s" % (name, v["value"], v["unit"]))
    if "physics" in rep:
        ph = rep["physics"]
        print("physics: %d energy samples, drift %.6g kcal/mol/ns, mean T "
              "%.2f K, finite=%s" % (ph["energy_samples"],
                                     ph["energy_drift_kcal_per_mol_ns"],
                                     ph["mean_temperature_K"], ph["finite"]))
    attempted, failed = check["attempted"], check["failed"]
    hashes = set(check["episode_hashes"])
    source = check["expected_from"]
    if a.expect_hash:
        source = "--expect-hash"
    elif expected:
        source = "reference table"
    print("final state hash of %d episodes %s vs reference %s [%s]: %s; "
          "failed_frac %.4f (%d of %d cycles)"
          % (len(check["episode_hashes"]), " ".join(sorted(hashes)),
             check["expected_hash"], source,
             "BITWISE IDENTICAL" if check["correct"] else "MISMATCH",
             failed / max(attempted, 1), failed, attempted))
    if check["error"]:
        print("error: " + check["error"])
    print("report: " + os.path.relpath(out, ROOT))
    print(json.dumps({"correct": check["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if check["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
