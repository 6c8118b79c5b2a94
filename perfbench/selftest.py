#!/usr/bin/env python3
"""Self-test of the compile benchmark.

    python3 perfbench/selftest.py

1. Builds and runs `perfbench_selftest` (fate classifier on synthetic
   windows, output digest, span self time).
2. Runs every workload at minimal size (two pairs, one second) in both
   modes and checks that the result line carries exactly the metrics
   BENCHMARK.json lists for that mode, each with its unit, and that the
   run is correct.

Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

import run

WORKLOADS = run.WORKLOADS


def main():
    binary = run.build("perfbench_selftest")
    if subprocess.call([binary]):
        run.fail("perfbench_selftest failed")

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        run.fail("BENCHMARK.json workloads differ from run.py")
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"),
                 "--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--pairs", "2"],
                stdout=subprocess.PIPE, text=True, cwd=run.ROOT)
            lines = out.stdout.strip().split("\n")
            if out.returncode != 0:
                sys.stdout.write(out.stdout)
                run.fail("%s --trace %d exited %d"
                         % (workload, trace, out.returncode))
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                run.fail("%s: unexpected result keys %s"
                         % (workload, sorted(result)))
            if not result["correct"] or result["attempted"] < 1:
                run.fail("%s --trace %d: incorrect run" % (workload, trace))
            for metric in spec[section]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    run.fail("%s --trace %d: metric %s missing or with "
                             "the wrong unit" % (workload, trace,
                                                  metric["name"]))
                if not isinstance(got["value"], (int, float)):
                    run.fail("%s: %s is not a number"
                             % (workload, metric["name"]))
            print("ok   %s --trace %d (%d metrics)"
                  % (workload, trace, len(result["metrics"])))
    print("perfbench self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
