#!/usr/bin/env python3
"""Smoke test of the ecas benchmark at a tiny size.

Usage (from the root of a checkout):  python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it runs perfbench/run.py for one
second, untraced and traced, and checks that the last line parses, that
the run is correct, and that every end-to-end (untraced) or per-layer
(traced) metric is printed once with its declared unit and a finite
value. It then runs each workload again untraced with a second seed,
which must also come out clean, and checks that the benchmark refuses to
run, without printing a result, where the ecas sources are missing.
Exits non-zero on the first problem.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_result(out, metrics, what):
    if out.returncode:
        sys.exit("%s: exit code %d\n%s" % (what, out.returncode, out.stderr))
    last = out.stdout.strip().splitlines()[-1]
    result = json.loads(last)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("%s: unexpected keys %s" % (what, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0:
        sys.exit("%s: not correct\n%s" % (what, out.stderr))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        sys.exit("%s: attempted must be a whole number >= 1" % what)
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in metrics}
    if sorted(got) != sorted(want):
        sys.exit("%s: metrics differ from BENCHMARK.json: missing %s, extra "
                 "%s" % (what, sorted(set(want) - set(got)),
                         sorted(set(got) - set(want))))
    for name, entry in got.items():
        if entry.get("unit") != want[name]:
            sys.exit("%s: %s has unit %r, want %r"
                     % (what, name, entry.get("unit"), want[name]))
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            sys.exit("%s: %s is not a finite number" % (what, name))
    print("ok  %s (%d metrics)" % (what, len(got)))


def check_refuses_without_sources():
    bare = os.path.join(ROOT, ".bench_out", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run("hit-stream", 1, 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode == 0 or (lines and lines[-1].startswith("{")):
        sys.exit("bare directory: the benchmark must fail without a result")
    print("ok  refuses to run without the ecas sources")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in [w["name"] for w in bench["workloads"]]:
        check_result(run(workload, 1, 0), bench["end_to_end"],
                     workload + " seed 1 untraced")
        check_result(run(workload, 1, 1), bench["per_layer"],
                     workload + " seed 1 traced")
        check_result(run(workload, 2, 0), bench["end_to_end"],
                     workload + " seed 2 untraced")
    check_refuses_without_sources()


if __name__ == "__main__":
    main()
