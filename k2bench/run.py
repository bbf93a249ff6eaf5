#!/usr/bin/env python3
"""Build and run the convoy-mining benchmark.

Run from the root of the repository:

    python3 k2bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 k2bench/run.py          # every workload in BENCHMARK.json, traced

The first run compiles k2bench/ with sbt (the repository's main sources plus
the benchmark's own), and so does any run after a source file changed. Each
workload then runs in a JVM of its own. The last line of standard output is
the JSON result of the run; build output goes to standard error.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
TARGET = os.path.join(HERE, "target")
CLASSPATH_FILE = os.path.join(TARGET, "classpath.txt")
STAMP_FILE = os.path.join(TARGET, "build-stamp")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# -XX:-UsePerfData: no hsperfdata file outside the checkout.
JVM_OPTS = ["-Xms2g", "-Xmx2g", "-XX:+AlwaysPreTouch", "-XX:+UseParallelGC", "-XX:-UsePerfData"]

# Everything the compiled benchmark depends on.
SOURCE_ROOTS = [
    os.path.join(ROOT, "src", "main", "scala"),
    os.path.join(HERE, "src"),
    os.path.join(HERE, "build.sbt"),
    os.path.join(HERE, "project", "build.properties"),
]


def fail(msg):
    print(f"k2bench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_hash():
    h = hashlib.sha256()
    for root in SOURCE_ROOTS:
        if os.path.isfile(root):
            files = [root]
        else:
            files = sorted(
                os.path.join(d, f) for d, _, fs in os.walk(root) for f in fs
                if f.endswith((".scala", ".java", ".sbt", ".properties")))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def build():
    """Compile with sbt unless the last build is of the same sources."""
    if not os.path.isfile(os.path.join(ROOT, "src", "main", "scala", "repro", "core", "KHalfHop.scala")):
        fail(f"no repository sources under {ROOT}/src/main/scala; run from a full checkout")
    stamp = source_hash()
    if os.path.isfile(CLASSPATH_FILE) and os.path.isfile(STAMP_FILE):
        with open(STAMP_FILE) as fh:
            if fh.read().strip() == stamp:
                return
    tmp = os.path.join(BUILD_DIR, "tmp", "sbt")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           f"-Djava.io.tmpdir={tmp}", "-J-XX:-UsePerfData", "benchClasspath"]
    try:
        proc = subprocess.run(cmd, cwd=HERE, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0 or not os.path.isfile(CLASSPATH_FILE):
        fail(f"build failed with exit code {proc.returncode}")
    with open(STAMP_FILE, "w") as fh:
        fh.write(stamp)


def run_workload(workload, seed, seconds, trace):
    with open(CLASSPATH_FILE) as fh:
        classpath = fh.read().strip()
    tmp = os.path.join(BUILD_DIR, "tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", *JVM_OPTS,
           f"-Djava.io.tmpdir={tmp}",
           f"-Dk2bench.workdir={os.path.join(BUILD_DIR, 'work')}",
           "-cp", classpath, "k2bench.Main",
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if code != 0:
        fail(f"workload {workload} " + ("timed out" if code is None else f"exited with code {code}"))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="workload name; all workloads in BENCHMARK.json if omitted")
    ap.add_argument("--seed", type=int, default=1, help="data seed (default 1; held-out seed: 1001)")
    ap.add_argument("--seconds", type=int, default=35, help="how long the timed rounds run")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=None,
                    help="1: report the per-layer metrics of a traced pass")
    args = ap.parse_args()

    build()
    if args.workload is not None:
        run_workload(args.workload, args.seed, args.seconds, 0 if args.trace is None else args.trace)
        return
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    for name in names:
        print(f"== {name}", flush=True)
        run_workload(name, args.seed, args.seconds, 1 if args.trace is None else args.trace)


if __name__ == "__main__":
    main()
