#!/usr/bin/env python3
"""Build and run the CamJ benchmark.

    python3 camjbench/run.py --workload grid_sweep|served_jobs \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Configures and builds the library and
the benchmark program into .bench_build/ (Release; the first build takes about a
minute on 4 cores, later ones are no-ops), then runs it with a
scratch directory under .bench_build/ that is removed afterwards.
Build output goes to stderr; the program's report goes to stdout, its
last line being the JSON result.

The traced grid_sweep run also cross-checks its cycle-sim counts
against `camj_sweep run --threads 1 --verbose` on the same document:
the benchmark must measure the production path.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("grid_sweep", "served_jobs")


def build():
    """Configure and build; exits non-zero when either step fails."""
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", "4", "--target", "camjbench",
         "camj_sweep"],
    ]
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            sys.exit(f"camjbench: build step failed ({rc}): {' '.join(cmd)}")


def sweep_cycle_counts(tmp):
    """Cycle-sim counts `camj_sweep run --verbose` prints for the
    canonical grid with one worker."""
    out = subprocess.run(
        [os.path.join(BUILD, "tools", "camj_sweep"), "run",
         os.path.join(ROOT, "examples", "detector_sweep.json"),
         "--threads", "1", "--verbose",
         "--out", os.path.join(tmp, "camj_sweep.jsonl")],
        capture_output=True, text=True, check=True).stdout
    m = re.search(r"\((\d+) ticked, (\d+) fast-forwarded\), (\d+) period "
                  r"jump\(s\), (\d+) fallback", out)
    if m is None:
        sys.exit("camjbench: camj_sweep --verbose printed no cycle-sim line")
    return dict(zip(("cyclesim.ticked", "cyclesim.fast_forwarded",
                     "cyclesim.period_jumps", "cyclesim.fallbacks"),
                    (int(g) for g in m.groups())))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    tmp = os.path.join(BUILD, "tmp", str(os.getpid()))
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        proc = subprocess.run(
            [os.path.join(BUILD, "camjbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--root", ROOT, "--tmp", tmp],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.stdout.write(proc.stdout)
            sys.exit(f"camjbench: benchmark program exited with {proc.returncode}")
        lines = proc.stdout.rstrip("\n").split("\n")
        result = json.loads(lines[-1])
        if args.trace and args.workload == "grid_sweep":
            expected = sweep_cycle_counts(tmp)
            for name, count in expected.items():
                got = result["metrics"][name]["value"]
                print(f"  cross-check {name}: camjbench {got:.0f}, "
                      f"camj_sweep --verbose {count}")
                if got != count:
                    result["correct"] = False
        print("\n".join(lines[:-1]))
        print(json.dumps(result))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
