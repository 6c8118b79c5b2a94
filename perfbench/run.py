#!/usr/bin/env python3
"""Run one workload of the Hydride compile benchmark.

    python3 perfbench/run.py --workload cold_synth --seed 1 \
        --seconds 10 --trace 0

Run from the repository root. Builds the benchmark (perfbench/ plus
the library sources in src/) into .bench_build/perfbench, runs the
named workload, and prints one JSON object as the last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics of BENCHMARK.json,
`--trace 1` the per-layer metrics. The run fails (non-zero exit, no
result line) when the build fails, the workload crashes or takes
longer than the time limit. A run whose outputs are wrong prints
`"correct": false` and exits 1. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("cold_synth", "warm_store", "hot_recompile")
# A run (after the build) must end well inside three minutes.
RUN_TIMEOUT_S = 165


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(target="perfbench"):
    """Configure once, then build `target`; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target,
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT):
                with open(log_path) as done:
                    sys.stderr.write(done.read()[-4000:])
                fail("build failed (see %s)" % log_path)
    return os.path.join(BUILD, target)


def clean_env():
    """The benchmark controls tracing itself: drop every HYDRIDE_* knob
    (tracing, metrics, journal, fault injection) from the environment."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("HYDRIDE_")}


def run_binary(binary, argv):
    """Run the workload in its own process group; kill the whole group
    (the workload forks per pass) if it overruns."""
    proc = subprocess.Popen([binary] + argv, stdout=subprocess.PIPE,
                            env=clean_env(), start_new_session=True,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def check_digest(binary, args, digest):
    """Runs of one binary on one draw must produce one digest."""
    with open(binary, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    record_dir = os.path.join(BUILD, "digests", build_id)
    os.makedirs(record_dir, exist_ok=True)
    record = os.path.join(record_dir, "%s-%d-%d" % (
        args.workload, args.seed, args.pairs))
    if os.path.isfile(record):
        with open(record) as f:
            expected = f.read().strip()
        if expected != digest:
            print("perfbench: digest %s differs from an earlier run with "
                  "seed %d (%s)" % (digest, args.seed, expected),
                  file=sys.stderr)
            return False
        return True
    with open(record, "w") as f:
        f.write(digest + "\n")
    return True


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pairs", type=int, default=0,
                        help="truncate the draw (self-test runs)")
    args = parser.parse_args()

    binary = build()
    work_dir = os.path.join(BUILD, "runs", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work-dir", work_dir, "--pairs", str(args.pairs)]
    try:
        code, out = run_binary(binary, argv)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    if code not in (0, 1) or len(lines) < 2 or \
            not lines[-2].startswith("digest "):
        sys.stdout.write(out)
        fail("workload failed (exit %d)" % code)
    result = json.loads(lines[-1])
    digest = lines[-2].split()[1]
    for line in lines[:-2]:
        print(line)

    if not check_digest(binary, args, digest):
        result["correct"] = False
    expected = expected_metrics(args.trace)
    if expected is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != expected:
            fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
                 % (sorted(set(expected) - set(got)),
                    sorted(set(got) - set(expected))))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
