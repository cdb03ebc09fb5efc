#!/usr/bin/env python3
"""Check that the benchmark is steady enough to gate on.

    python3 perfbench/steadiness.py                    # every workload, seeds 1-10
    python3 perfbench/steadiness.py --workloads scan_e --seeds 5
    python3 perfbench/steadiness.py --held-out --seeds 3

For each workload it runs run.py once per seed, for BENCHMARK.json's
run_seconds, and reports, for every end-to-end metric, the median and the
interquartile spread as a share of the median (statistics.quantiles(values,
n=4)), next to the metric's bound from BENCHMARK.json. A spread above the
bound fails; a spread above a third of it is flagged.

On the kInline workloads (those whose children report exact counts) it
also reruns the first seed and requires every child's exact counts — device
reads and blocks, device bytes written, index memory, tree bytes,
compactions and flushes at a fixed point of the op stream — to repeat bit
for bit.

Exits 1 on any failure. Seeds 1-10 are for tuning; HELD_OUT_SEED onwards
are held out for confirming claims (--held-out).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HELD_OUT_SEED = 1000003


def run(workload, seed, seconds):
    """One untraced run: (result line, the children's exact counts)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    exact = [json.loads(l)["exact"] for l in lines
             if l.startswith('{"workload"')]
    return json.loads(lines[-1]), exact


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--held-out", action="store_true",
                   help=f"start at the held-out seed {HELD_OUT_SEED}")
    args = p.parse_args()
    first = HELD_OUT_SEED if args.held_out else 1
    seconds = spec["run_seconds"]

    failures = []
    for workload in args.workloads.split(","):
        results, exact = [], []
        for seed in range(first, first + args.seeds):
            result, counts = run(workload, seed, seconds)
            if not result["correct"]:
                failures.append(f"{workload} seed {seed}: incorrect results")
            results.append(result)
            exact.append(counts)
        print(f"\n{workload}: {args.seeds} seeds from {first}")
        print(f"  {'metric':<18}{'median':>14}{'spread':>9}{'bound':>7}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            median, s = spread(values) if len(values) > 1 else (values[0], 0)
            flag = ""
            if s > m["bound"]:
                flag = "  FAIL: above bound"
                failures.append(f"{workload} {m['name']} spread {s:.3f}")
            elif s > m["bound"] / 3:
                flag = "  (above bound/3)"
            print(f"  {m['name']:<18}{median:>14.4f}{s:>9.4f}"
                  f"{m['bound']:>7.2f}{flag}")
        if any(exact[0]):
            _, again = run(workload, first, seconds)
            same = again == exact[0]
            print(f"  exact counts repeat for seed {first}: "
                  f"{'yes' if same else 'NO'} {exact[0][0]} ...")
            if not same:
                failures.append(f"{workload}: exact counts differ: "
                                f"{exact[0]} vs {again}")
    if failures:
        print("\nFAILED:\n  " + "\n  ".join(failures))
        sys.exit(1)
    print("\nsteady")


if __name__ == "__main__":
    main()
