#!/usr/bin/env python3
"""Build lilsm's benchmark from source and run one workload.

    python3 perfbench/run.py --workload read_zipf --seed 1 --seconds 10 --trace 0

Run from the root of a lilsm checkout. The first run configures and builds
perfbench/ (which pulls in the engine from the root) into $CARGO_TARGET_DIR,
default .bench_build; later runs rebuild only what changed.

An untraced run starts the perfbench binary CHILDREN times, one after the other.
Child i gets seed CHILDREN * seed + i, from which it makes its own key set
and op stream, sets up from nothing and measures an equal share of
--seconds. The run reports each metric's median over the children. A seed
decides, among other things, where the few hottest zipfian keys sit in the
tree, and with them a good part of the read cost; a median over several
such draws, each in its own address-space layout, moves far less from seed
to seed than one long child would. A traced run starts child 0 only.

The binaries' readable reports go to stdout, then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Exits 1 if any result was wrong or the run
failed, and 2 if the benchmark cannot be built or run here.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILDREN = 5


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def git_sha():
    """HEAD's commit, read from .git without running git; 'unknown' outside
    a repository (the benchmark also runs from plain source trees)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build(build_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("no lilsm source tree around perfbench/; nothing to build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr so stdout stays the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))


def check_metrics(got, expected, trace):
    """A child's metrics must be exactly BENCHMARK.json's, with its
    units and finite values; end-to-end values must also be non-zero."""
    names = [m["name"] for m in expected]
    if sorted(got) != sorted(names):
        missing = sorted(set(names) - set(got))
        extra = sorted(set(got) - set(names))
        die(f"metric set differs from BENCHMARK.json: missing {missing}, "
            f"extra {extra}", 1)
    for m in expected:
        value, unit = got[m["name"]]["value"], got[m["name"]]["unit"]
        if unit != m["unit"]:
            die(f"{m['name']}: unit {unit}, BENCHMARK.json says {m['unit']}", 1)
        if value is None or not math.isfinite(value):
            die(f"{m['name']}: value {value} is not a finite number", 1)
        if not trace and value == 0:
            die(f"{m['name']}: an end-to-end metric read 0", 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload}")

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    build(build_dir)
    work_dir = os.path.join(build_dir, "run")
    os.makedirs(work_dir, exist_ok=True)

    children = 1 if args.trace else CHILDREN
    # Set-up and the restart cycles take a few seconds on top of a child's
    # share of --seconds; the margin is for a slow or loaded host.
    timeout = 60 + 2 * args.seconds / children
    reports = []
    for i in range(children):
        reports.append(run_child(timeout, [
            os.path.join(build_dir, "perfbench"),
            "--workload", args.workload,
            "--seed", str(CHILDREN * args.seed + i),
            "--seconds", str(args.seconds / children),
            "--trace", str(args.trace),
            "--work-dir", os.path.relpath(work_dir, ROOT),
            "--git-sha", git_sha(),
            "--command", " ".join(["python3", "perfbench/run.py"]
                                  + sys.argv[1:])]))

    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    for r in reports:
        check_metrics(r["metrics"], expected, args.trace)
    metrics = {}
    print(f"# median of {children} run(s)")
    for m in expected:
        values = [r["metrics"][m["name"]]["value"] for r in reports]
        metrics[m["name"]] = {"value": statistics.median(values),
                              "unit": m["unit"]}
        print(f"# {m['name']:<40} {metrics[m['name']]['value']:>14.4f} "
              f"{m['unit']:<14} {' '.join(f'{v:.4g}' for v in values)}")
    failed = sum(r["failed"] for r in reports)
    correct = failed == 0 and all(r["returncode"] == 0 for r in reports)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


def run_child(timeout, cmd):
    """Runs the perfbench binary once; its report line, with its exit code added."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        die(f"a run exceeded {timeout:.0f} s", 1)
    sys.stdout.write(proc.stdout)
    try:
        report = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        die(f"perfbench exited {proc.returncode} without a report", 1)
    if report["error"]:
        die(f"run failed: {report['error']}", 1)
    report["returncode"] = proc.returncode
    return report


if __name__ == "__main__":
    main()
