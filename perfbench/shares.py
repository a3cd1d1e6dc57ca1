#!/usr/bin/env python3
"""Split a traced run's tuple time by kind of tuple, per query.

    python3 perfbench/run.py --workload so-rapq --seed 1 --seconds 20 --trace 1
    python3 perfbench/shares.py --workload so-rapq --seed 1

Reads the span file of that traced run (.bench_build/trace/<workload>-seed<n>.tsv)
and prints, per query and for the whole workload, the share of the time spent
in processTuple that went to each kind of tuple:

    insert   in-alphabet insert that ran no expiry pass (RAPQ)
    outside  out-of-alphabet insert that ran no expiry pass (RAPQ)
    slide    insert that crossed a slide boundary; "expiry" is the part of it
             inside the engine's expiry pass
    delete   explicit deletion; "expiry" is again the expiry part of it
    tuple    any tuple (RSPQ); "expiry" is the part in ExpiryRSPQ
"""

import argparse
import collections
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ["rapq.insert", "rapq.outside", "rapq.slide", "rapq.delete", "rspq.tuple"]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    path = ROOT / ".bench_build" / "trace" / f"{args.workload}-seed{args.seed}.tsv"

    names = {}  # span id -> name
    dur = collections.defaultdict(collections.Counter)  # query -> kind -> ns
    aux = collections.defaultdict(collections.Counter)  # query -> kind -> expiry ns
    rounds = 0
    with open(path) as f:
        next(f)
        for line in f:
            sid, parent, name, start, end, extra = line.rstrip("\n").split("\t")
            names[sid] = name
            if name == "round":
                rounds += 1
            elif name in KINDS:
                query = names[parent].split(":", 1)[1]
                for q in (query, "all"):
                    dur[q][name] += int(end) - int(start)
                    aux[q][name] += int(extra)

    print(f"{path.name}: {rounds} traced rounds; shares of processTuple time")
    for q in [q for q in dur if q != "all"] + ["all"]:
        total = sum(dur[q].values())
        parts = []
        for k in KINDS:
            if dur[q][k]:
                part = f"{k.split('.')[1]} {dur[q][k] / total:.0%}"
                if aux[q][k]:
                    part += f" (expiry {aux[q][k] / total:.0%})"
                parts.append(part)
        print(f"  {q:4s} {total / 1e9 / rounds:8.3f} s a round: " + ", ".join(parts))


if __name__ == "__main__":
    main()
