#!/usr/bin/env python3
"""Compare the engines' deterministic counts with the committed fingerprint.

    python3 perfbench/fingerprint.py [--seed 1] [--write]

For the seed, prints per (workload, query) the Δ nodes, trees, emissions and
expiry runs at the end of round 0's stream, and the result-set size after a
final expiry pass. Exits 1 if they differ from perfbench/fingerprint-seed<N>.json;
--write regenerates that file instead. RSPQ conflict counts are shown apart
and never compared: they vary from run to run.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--fingerprint", "--seed", str(args.seed)],
                          cwd=HERE.parent, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"fingerprint run failed with exit {proc.returncode}")
    got = json.loads(proc.stdout)
    path = HERE / f"fingerprint-seed{args.seed}.json"
    if args.write:
        path.write_text(proc.stdout)
        print(f"wrote {path}")
        return
    for row in got["nondeterministic"]:
        print(f"(not compared) {row}")
    want = json.loads(path.read_text())
    key = lambda r: (r["workload"], r["query"])
    want_rows = {key(r): r for r in want["counts"]}
    diffs = 0
    for r in got["counts"]:
        w = want_rows.pop(key(r), None)
        if w != r:
            diffs += 1
            print(f"DIFF {key(r)}: committed {w}, now {r}")
    for k in want_rows:
        diffs += 1
        print(f"DIFF {k}: committed, now missing")
    print(f"{len(got['counts'])} rows, {diffs} differ")
    sys.exit(1 if diffs else 0)


if __name__ == "__main__":
    main()
