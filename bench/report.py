"""Run every workload, untraced then traced, and print one report.

Usage, from the repository root:

    python3 bench/report.py [--seed 1] [--seconds 20] [workload ...]

For each workload it prints the environment line, operations attempted
and failed, every end-to-end metric with its unit, the per-layer metrics
that are not zero, and the tracing overhead: the traced run's throughput
against the untraced run's.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    notes = [line[len("bench: "):] for line in proc.stderr.splitlines() if line.startswith("bench: ")]
    return json.loads(proc.stdout.splitlines()[-1]), notes


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()

    for name in args.workloads:
        plain, notes = run(name, args.seed, args.seconds, 0)
        traced, _ = run(name, args.seed, args.seconds, 1)
        print(f"== {name}  (seed {args.seed}, {args.seconds:g} s)")
        print(f"   {notes[0].split(' ', 3)[-1]}")
        print(f"   attempted {plain['attempted']}, failed {plain['failed']}, correct {plain['correct']}"
              f"; traced: attempted {traced['attempted']}, failed {traced['failed']}")
        for metric, m in plain["metrics"].items():
            print(f"   {metric:<40} {m['value']:>14.6g} {m['unit']}")
        for metric, m in traced["metrics"].items():
            if m["value"]:
                print(f"   {metric:<40} {m['value']:>14.6g} {m['unit']}  (traced)")
        fast = plain["metrics"]["items_per_s"]["value"]
        slow = traced["metrics"]["trace.items_per_s"]["value"]
        print(f"   tracing overhead: {fast:.6g} -> {slow:.6g} items/s, {100.0 * (1.0 - slow / fast):.1f}% slower")
    return 0


if __name__ == "__main__":
    sys.exit(main())
