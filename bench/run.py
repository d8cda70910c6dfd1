"""Run one benchmark workload against the package source in ``src/``.

Usage, from the repository root:

    python3 bench/run.py --workload verify_sweep --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. A readable report goes to standard error. Exits 2 without a
result when the package source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from array import array
from pathlib import Path

from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"
SETUP_REPEATS = 9
MAX_PROBLEMS = 10


def load_package():
    """Import ``frameness`` from this checkout's ``src/`` and nowhere else."""
    init = SRC / "frameness" / "__init__.py"
    if not init.is_file():
        print(f"bench: no package source at {init.parent}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import frameness
    import frameness.cli  # noqa: F401

    if Path(frameness.__file__).resolve() != init.resolve():
        print(f"bench: imported frameness from {frameness.__file__}, not {init}", file=sys.stderr)
        raise SystemExit(2)


def import_package():
    """Import the package's modules afresh; numpy and scipy stay loaded."""
    for name in [n for n in sys.modules if n == "frameness" or n.startswith("frameness.")]:
        del sys.modules[name]
    importlib.import_module("frameness.cli")


def set_up(workload, seed: int, work: Path, host: HostSpeed):
    """Median over repeats of: package import, input generation and writing."""
    runs = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        host.sample()
        start = time.perf_counter()
        import_package()
        inputs = workload.make_inputs(seed, work)
        runs.append((start, time.perf_counter() - start))
    host.sample()
    return statistics.median(dt * host.scale_at(t + dt / 2) for t, dt in runs), inputs


def measure(ops, seconds: float, host: HostSpeed, tracer):
    """Repeat the round of operations until ``seconds`` have passed, in whole rounds.

    Returns counts, each operation's start times and seconds per round position,
    the observations its checks made in the first round (every round makes
    the same calls), and the problems they found.
    """
    stats = {"attempted": 0, "failed": 0, "wrong": 0, "rounds": 0, "items": 0}
    # Compact arrays, so that memory does not grow with the operations a faster program completes.
    timings = [(array("d"), array("d")) for _ in ops]
    observations, problems = [], []
    deadline = time.perf_counter() + seconds
    if tracer is not None:
        tracer.on = True
    while True:
        for i, op in enumerate(ops):
            host.maybe_sample()
            stats["attempted"] += 1
            start = time.perf_counter()
            try:
                raw = op.run()
            except (Exception, SystemExit) as exc:
                stats["failed"] += 1
                problems.append(f"op {i}: raised {exc!r}")
                del problems[MAX_PROBLEMS:]
                continue
            timings[i][0].append(start)
            timings[i][1].append(time.perf_counter() - start)
            stats["items"] += op.items
            try:
                with tracer.paused() if tracer is not None else contextlib.nullcontext():
                    found, obs = op.check(raw)
            except Exception as exc:
                found, obs = [f"check raised {exc!r}"], None
            if found:
                stats["failed"] += 1
                stats["wrong"] += 1
                problems.extend(f"op {i}: {p}" for p in found)
                del problems[MAX_PROBLEMS:]
            elif obs is not None and stats["rounds"] == 0:
                observations.append(obs)
        stats["rounds"] += 1
        if time.perf_counter() >= deadline:
            break
    if tracer is not None:
        tracer.on = False
    host.sample()
    return stats, timings, observations, problems


def scaled(timings, host: HostSpeed | None):
    """Per position, the operation's times, scaled to the reference host speed when given."""
    if host is None:
        return [durs for _, durs in timings]
    return [array("d", (dt * host.scale_at(t) for t, dt in zip(starts, durs))) for starts, durs in timings]


def typical(ops, durations) -> list[tuple[int, float]]:
    """(items, median seconds across rounds) of each operation of the round.

    A median per operation keeps a slow spell during fewer than half the
    rounds from moving the figures."""
    return [(op.items, statistics.median(d)) for op, d in zip(ops, durations) if d]


def items_per_s(ops, durations) -> float:
    timed = typical(ops, durations)
    round_s = sum(t for _, t in timed)
    return sum(n for n, _ in timed) / round_s if round_s > 0 else 0.0


def end_to_end(ops, durations, setup_s: float) -> dict:
    timed = typical(ops, durations)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items_per_s": items_per_s(ops, durations),
        "call_ms_p50": 1e3 * statistics.median(t for _, t in timed) if timed else 0.0,
    }


def per_layer(names, tracer, stats, observations, ops, durations, scale: float, item: str) -> dict:
    """Counts and self times per round; ratios over their own base."""
    calls, self_s, eig = tracer.totals()
    rounds = stats["rounds"]
    out = {}
    for name in names:
        base, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls.get(base, 0) / rounds
        elif field == "self_s":
            out[name] = self_s.get(base, 0.0) * scale / rounds
    roofs = calls.get("convexroof.convex_roof", 0)
    states = stats["items"] if item == "state" else 0
    out["numerics.eig_calls"] = eig / rounds
    out["numerics.eig_calls_per_state"] = eig / states if states else 0.0
    out["convexroof.evals_per_roof"] = calls.get("monotones.evaluator", 0) / roofs if roofs else 0.0

    def mean(key):
        return statistics.fmean(float(o[key]) for o in observations) if observations else 0.0

    out["convexroof.sweeps_per_roof"] = mean("sweeps")
    out["convexroof.converged_ratio"] = mean("converged")
    out["convexroof.roof_value_mean"] = mean("value")
    out["trace.items_per_s"] = items_per_s(ops, durations)
    return out


def environment(cli) -> str:
    import numpy
    import scipy

    resolve = getattr(cli, "_resolve_threads", None)
    threads = resolve(None) if resolve is not None else "n/a"
    return (
        f"nproc={len(os.sched_getaffinity(0))} cpu_count={os.cpu_count()} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"scipy={scipy.__version__} verify_threads={threads}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    os.environ.pop("FRAMENESS_THREADS", None)
    load_package()

    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    host = HostSpeed()

    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        setup_s, inputs = set_up(workload, args.seed, Path(tmp), host)
        ops = workload.ops(inputs)
        workload.warm_up(inputs)
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        stats, timings, observations, problems = measure(ops, args.seconds, host, tracer)

    durations = scaled(timings, host)
    cli = sys.modules["frameness.cli"]
    if args.trace:
        listed = spec["per_layer"]
        names = [m["name"] for m in listed]
        values = per_layer(names, tracer, stats, observations, ops, durations, host.scale(), workload.item)
        path = TRACE_DIR / f"{args.workload}-seed{args.seed}.npz"
        spans = tracer.write(path)
        print(f"bench: {spans} spans written to {path.relative_to(ROOT)}", file=sys.stderr)
    else:
        listed = spec["end_to_end"]
        values = end_to_end(ops, durations, setup_s)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    print(f"bench: {args.workload} seed={args.seed} trace={args.trace} {environment(cli)}", file=sys.stderr)
    print(
        f"bench: attempted={stats['attempted']} failed={stats['failed']} "
        f"rounds={stats['rounds']} {workload.item}s={stats['items']}",
        file=sys.stderr,
    )
    print(
        f"bench: host kernel median {host.median_kernel_ms():.4f} ms; unscaled items_per_s "
        f"{items_per_s(ops, scaled(timings, None)):.6g}",
        file=sys.stderr,
    )
    for name, m in metrics.items():
        print(f"bench:   {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for p in problems:
        print(f"bench: FAILED {p}", file=sys.stderr)
    result = {
        "correct": stats["wrong"] == 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
