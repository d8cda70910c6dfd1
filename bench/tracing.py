"""Timing spans around the package's public functions, installed from outside.

Only the traced run installs them. Each span records name, start, end and
parent on a per-thread stack, because ``verify`` calls into the package
from pool threads. A pool thread's outermost span takes the innermost open
span of the main thread as its parent. A span's self time is its duration
minus the time its children cover: same-thread children nest, so their
durations add up; cross-thread children may overlap, so their intervals are
merged first.

Spans stay in memory, in per-thread arrays, and are written out when the
run ends.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
import time
from array import array
from pathlib import Path

import numpy as np

# (module, function) pairs wrapped as spans, on every module binding.
TRACED = (
    ("cli", "main"),
    ("cli", "run_verification"),
    ("cli", "sample_trial"),
    ("states", "random_standard_state"),
    ("channels", "random_channel"),
    ("channels", "apply_channel_pure"),
    ("channels", "validate_channel"),
    ("monotones", "qubit_concurrence"),
    ("monotones", "optimal_qubit_decomposition"),
    ("numerics", "validate_density"),
    ("numerics", "hermitian_eig"),
    ("numerics", "psd_sqrt"),
    ("numerics", "product_eig_sqrt"),
    ("convexroof", "convex_roof"),
)
# weight_evaluator is rebound so that the callables it returns are spans.
EVALUATOR_SPAN = "monotones.evaluator"
EIG_FUNCTIONS = ("eigh", "eigvalsh", "eigvals", "eig")


class _Thread:
    """Per-thread span stack, counters and span records."""

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.stack: list[list] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.eig_calls = 0
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")


def _covered(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Tracer:
    def __init__(self) -> None:
        self.on = False
        self._local = threading.local()
        self._threads: list[_Thread] = []
        self._main = self._thread()
        self._ids = itertools.count(1)
        self._names: dict[str, int] = {}

    def _thread(self) -> _Thread:
        th = getattr(self._local, "th", None)
        if th is None:
            th = self._local.th = _Thread(threading.get_ident())
            self._threads.append(th)
        return th

    def _name(self, name: str) -> int:
        return self._names.setdefault(name, len(self._names))

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording spans."""
        was, self.on = self.on, False
        try:
            yield
        finally:
            self.on = was

    def span(self, name: str, fn):
        idx = self._name(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            th = self._thread()
            if th.stack:
                parent = th.stack[-1]
            elif th is not self._main and self._main.stack:
                parent = self._main.stack[-1]
            else:
                parent = None
            # frame: id, parent frame, start, same-thread child time, cross-thread child intervals
            frame = [next(self._ids), parent, 0.0, 0.0, [] if th is self._main else None]
            th.stack.append(frame)
            frame[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                th.stack.pop()
                start = frame[2]
                dur = end - start
                covered = frame[3]
                if frame[4]:
                    covered += _covered(frame[4], start, end)
                th.calls[name] = th.calls.get(name, 0) + 1
                th.self_s[name] = th.self_s.get(name, 0.0) + dur - covered
                if parent is not None:
                    if th.stack:
                        parent[3] += dur
                    else:
                        parent[4].append((start, end))
                th.ids.append(frame[0])
                th.parents.append(parent[0] if parent is not None else 0)
                th.names.append(idx)
                th.starts.append(start)
                th.ends.append(end)

        return wrapper

    def _count_eig(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.on:
                th = self._thread()
                if th.stack:
                    th.eig_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Rebind every traced function in every loaded ``frameness`` module."""
        modules = [m for n, m in list(sys.modules.items()) if n == "frameness" or n.startswith("frameness.")]

        def rebind(orig, wrapped) -> None:
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)

        for modname, fname in TRACED:
            orig = getattr(sys.modules.get(f"frameness.{modname}"), fname, None)
            if orig is not None:
                rebind(orig, self.span(f"{modname}.{fname}", orig))
        factory = getattr(sys.modules.get("frameness.monotones"), "weight_evaluator", None)
        if factory is not None:

            @functools.wraps(factory)
            def weight_evaluator(*args, **kwargs):
                return self.span(EVALUATOR_SPAN, factory(*args, **kwargs))

            rebind(factory, weight_evaluator)
        for fname in EIG_FUNCTIONS:
            setattr(np.linalg, fname, self._count_eig(getattr(np.linalg, fname)))

    def totals(self) -> tuple[dict[str, int], dict[str, float], int]:
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        eig = 0
        for th in self._threads:
            for name, n in th.calls.items():
                calls[name] = calls.get(name, 0) + n
            for name, s in th.self_s.items():
                self_s[name] = self_s.get(name, 0.0) + s
            eig += th.eig_calls
        return calls, self_s, eig

    def write(self, path: Path) -> int:
        """Write every recorded span to an ``.npz`` file; returns the span count."""
        names = sorted(self._names, key=self._names.get)
        cols = {key: [] for key in ("id", "parent", "name", "thread", "start", "end")}
        for th in self._threads:
            cols["id"].append(np.frombuffer(th.ids, dtype=np.int64))
            cols["parent"].append(np.frombuffer(th.parents, dtype=np.int64))
            cols["name"].append(np.frombuffer(th.names, dtype=np.uint16))
            cols["thread"].append(np.full(len(th.ids), th.tid, dtype=np.uint64))
            cols["start"].append(np.frombuffer(th.starts, dtype=np.float64))
            cols["end"].append(np.frombuffer(th.ends, dtype=np.float64))
        arrays = {key: np.concatenate(parts) for key, parts in cols.items()}
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(names), **arrays)
        return int(arrays["id"].size)
