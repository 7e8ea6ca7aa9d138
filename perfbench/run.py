#!/usr/bin/env python3
"""Build and run one workload of the ecas benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles libecas from ../src) into
.bench_build/perfbench on first use, runs the benchmark binary, records the
result with its host and build fingerprint under .bench_out/results/, and
prints the binary's result object as the last line of standard output.
Build output goes to standard error. Exits non-zero, without a result
line, when the build or the run fails.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("paper-suite", "hit-stream", "learn-churn", "tenant-mix")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once and builds incrementally, one build at a time."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no ecas source tree at %s/src; run from a full checkout" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            step(["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
        step(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])


def step(cmd):
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build step failed: " + " ".join(cmd))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the code
    measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except OSError:
        return "none"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build()
    binary = os.path.join(BUILD, "ecas-perfbench")
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    try:
        # A run measures for --seconds plus set-up; anything near three
        # minutes is a hang (subprocess kills and reaps the child).
        run = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", args.trace,
             "--out-dir", OUT],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within 170 s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode or not lines:
        fail("benchmark exited with code %d" % run.returncode)
    result = json.loads(lines[-1])
    build_line = next((l for l in lines if l.startswith("build ")), "")
    fingerprint = {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "compiler": build_line.partition("compiler=")[2].partition(";")[0],
        "build_type": build_line.partition("build_type=")[2],
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": int(args.trace),
              "fingerprint": fingerprint, "result": result}
    name = "%s-seed%d-trace%s.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT, "results", name), "w") as f:
        json.dump(record, f, indent=1)
    for line in lines[:-1]:
        print(line)
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print(lines[-1])


if __name__ == "__main__":
    main()
