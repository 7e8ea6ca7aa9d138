#!/usr/bin/env python3
"""Compare two sets of ecas benchmark results.

Usage:  python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records perfbench/run.py writes to
.bench_out/results/ (copy them aside between the two commits). For every
workload and end-to-end metric it prints both medians over the untraced
runs, the change, and whether the change stays within the bound
BENCHMARK.json fixes. Results measured on different hosts or builds (CPU
model, nproc, compiler, build type) are never compared: the script
refuses and exits 2. Exits 1 when any metric regresses past its bound.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HOST_KEYS = ("cpu_model", "nproc", "compiler", "build_type")


def load(directory):
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            record = json.load(f)
        if record.get("trace") == 0:
            records.append(record)
    if not records:
        sys.exit("no untraced results in %s" % directory)
    return records


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    hosts = {tuple(r["fingerprint"][k] for k in HOST_KEYS)
             for r in base + new}
    if len(hosts) != 1:
        print("refusing to compare results from different hosts or builds:",
              file=sys.stderr)
        for host in sorted(hosts, key=str):
            print("  " + json.dumps(dict(zip(HOST_KEYS, host))),
                  file=sys.stderr)
        sys.exit(2)

    regressed = False
    print("%-12s %-24s %14s %14s %8s %6s" %
          ("workload", "metric", "base", "new", "change", "bound"))
    for workload in [w["name"] for w in bench["workloads"]]:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            sides = []
            for records in (base, new):
                values = [r["result"]["metrics"][name]["value"]
                          for r in records if r["workload"] == workload]
                sides.append(statistics.median(values) if values else None)
            if None in sides or sides[0] == 0:
                continue
            change = (sides[1] - sides[0]) / sides[0]
            worse = -change if metric["better"] == "higher" else change
            verdict = "REGRESSED" if worse > metric["bound"] else ""
            regressed |= bool(verdict)
            print("%-12s %-24s %14.6g %14.6g %+7.2f%% %5.0f%% %s" %
                  (workload, name, sides[0], sides[1], 100 * change,
                   100 * metric["bound"], verdict))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
