#!/usr/bin/env python3
"""Check that the benchmark is steady on this machine and commit.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workloads a,b] [--first-seed 1]

Runs every workload (default: those of BENCHMARK.json) --runs times, one
seed after the other, and does that --sets times. For each end-to-end metric
it prints, per set, the median, the quartiles (statistics.quantiles, n=4) and
their distance as a share of the median. It exits 1 when a set's spread of a
metric exceeds the metric's bound, when a later set's median differs from the
first set's, either way, by more than the bound, or when the share of failed
operations differs between sets. Raw results go to
.bench_build/steady-<time>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: run failed with exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    metrics = spec["end_to_end"]
    workloads = args.workloads.split(",")

    results = {}  # (set, workload) -> list of run results
    for s in range(args.sets):
        for w in workloads:
            runs = []
            for seed in range(args.first_seed, args.first_seed + args.runs):
                t0 = time.monotonic()
                r = run_once(w, seed, args.seconds)
                print(f"set {s + 1} {w} seed {seed}: {time.monotonic() - t0:.0f} s, "
                      f"correct={r['correct']} attempted={r['attempted']} failed={r['failed']}",
                      file=sys.stderr, flush=True)
                runs.append(r)
            results[(s, w)] = runs

    work = ROOT / ".bench_build"
    work.mkdir(exist_ok=True)
    out = work / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.write_text(json.dumps({f"set{s + 1}/{w}": rs for (s, w), rs in results.items()}, indent=1))

    ok = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':18s} {'set':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s in range(args.sets):
                xs = [r["metrics"][name]["value"] for r in results[(s, w)]]
                q1, _, q3 = statistics.quantiles(xs, n=4)
                med = statistics.median(xs)
                spread = (q3 - q1) / med
                medians.append(med)
                flag = ""
                if spread > bound:
                    flag, ok = " SPREAD", False
                if s > 0:
                    moved = (med - medians[0]) / medians[0]
                    if abs(moved) > bound:
                        flag, ok = flag + f" MOVED {moved:+.3f}", False
                print(f"  {name:18s} {s + 1:3d} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} {bound:6.2f}{flag}")
        shares = {sum(r["failed"] for r in results[(s, w)]) / sum(r["attempted"] for r in results[(s, w)])
                  for s in range(args.sets)}
        print(f"  failed share per set: {sorted(shares)}")
        if len(shares) > 1:
            ok = False
    print(f"\nraw results: {out}")
    print("steady" if ok else "NOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
