#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --fingerprint --seed <n>

Run from the root of a checkout. An untraced run is split over five JVMs
and reports the median of their figures. The first call builds the benchmark together
with the program's sources (sbt, offline, in perfbench/); later calls reuse
the build while the sources are unchanged. Build outputs, traces and Spark's
scratch files go under .bench_build/ in the checkout.
"""

import argparse
import json
import hashlib
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build"
WORKLOADS = ["so-rapq", "yago-delete", "so-rspq"]
RUN_TIMEOUT_S = 170
# Each untraced run is split over this many JVMs, one after the other, and
# reports the median of their figures: a single JVM's speed differs from the
# next one's by more than the rounds within it differ from each other.
FORKS = 5
BUILD_TIMEOUT_S = 840

JAVA_OPTS = [
    "-Xms3g", "-Xmx3g", "-Xss16m", "-XX:-UsePerfData",
    # the module openings Spark's own launcher passes on Java 17
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def die(msg):
    print(f"[perfbench] {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    """Every file the build reads, in a fixed order."""
    files = [HERE / "build.sbt", HERE / "project" / "build.properties"]
    for base in (ROOT / "src" / "main" / "scala", HERE / "src"):
        files += sorted(p for p in base.rglob("*") if p.is_file())
    return files


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    if not home or not (Path(home) / "jars").is_dir():
        die("no Spark distribution found: set SPARK_HOME")
    return home


def build(env):
    """Compile once per source state; returns the path of the java argfile."""
    stamp = hashlib.sha256()
    for f in sources():
        stamp.update(str(f.relative_to(ROOT)).encode())
        stamp.update(f.read_bytes())
    stamp = stamp.hexdigest()
    argfile = WORK / "classpath.args"
    stampfile = WORK / "classpath.stamp"
    if argfile.exists() and stampfile.exists() and stampfile.read_text() == stamp:
        return argfile
    print("[perfbench] building (sbt, offline) ...", file=sys.stderr)
    sbt = shutil.which("sbt")
    if sbt is None:
        die("sbt not found on PATH")
    proc = subprocess.run(
        [sbt, "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
        cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=BUILD_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        sys.stderr.write("\n".join(lines[-40:]) + "\n")
        die(f"build failed (sbt exit {proc.returncode})")
    cp = [l for l in lines if not l.startswith("[") and ".jar" in l]
    if not cp:
        die("build printed no classpath")
    WORK.mkdir(parents=True, exist_ok=True)
    argfile.write_text('-cp "%s"\n' % cp[-1].strip())
    stampfile.write_text(stamp)
    return argfile


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--fingerprint", action="store_true",
                    help="print the deterministic engine counts for the seed instead")
    args = ap.parse_args()
    if not args.fingerprint and (args.workload is None or args.seconds is None):
        ap.error("--workload and --seconds are required")
    if not (ROOT / "src" / "main" / "scala" / "repro").is_dir():
        die(f"the program's sources (src/main/scala/repro) are not in {ROOT}")

    env = dict(os.environ)
    env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true -Dsbt.offline=true -Xmx2g")
    env.setdefault("COURSIER_MODE", "offline")
    env["SPARK_HOME"] = spark_home()
    argfile = build(env)

    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    java = shutil.which("java", path=str(Path(env["JAVA_HOME"]) / "bin")) if env.get("JAVA_HOME") else None
    base = [java or "java", f"@{argfile}", *JAVA_OPTS, f"-Djava.io.tmpdir={tmp}",
            f"-Dlog4j2.configurationFile={HERE / 'log4j2.properties'}",
            "repro.perfbench.Main", "--seed", str(args.seed), "--work-dir", str(WORK)]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.fingerprint:
        sys.stdout.write(run_java(base + ["--fingerprint"], env, deadline))
        return
    forks = FORKS if args.trace == "0" else 1
    outs = []
    for k in range(forks):
        out = run_java(base + ["--workload", args.workload, "--seconds", str(args.seconds / forks),
                               "--trace", args.trace, "--fork", str(k)], env, deadline)
        outs.append(json.loads(out.strip().splitlines()[-1]))
    print(json.dumps(combine(outs)))


def run_java(cmd, env, deadline):
    """Runs one JVM to completion and returns its standard output."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        die(f"benchmark exited with {proc.returncode}")
    return out


def combine(outs):
    """One result from the forks' results: each metric is the median over the
    forks, and the operations of all forks add up."""
    names = list(outs[0]["metrics"])
    return {
        "correct": all(o["correct"] for o in outs),
        "attempted": sum(o["attempted"] for o in outs),
        "failed": sum(o["failed"] for o in outs),
        "metrics": {n: {"value": statistics.median(o["metrics"][n]["value"] for o in outs),
                        "unit": outs[0]["metrics"][n]["unit"]} for n in names},
    }


if __name__ == "__main__":
    main()
