"""Scale measured times to a reference host speed.

The machines this benchmark runs on are shared, and their speed drifts:
on a 2-core box the same seeded run measured 1,320 and 2,389 states/s
minutes apart. A fixed calibration kernel, timed every
``SAMPLE_EVERY_S`` between operations, follows that drift. Every
operation's time is multiplied by ``REFERENCE_S`` over the kernel time
measured around it, so a reported time is what the operation would take
on a host where the kernel takes ``REFERENCE_S``. The kernel does not call
the package, so a change to the package cannot move it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REFERENCE_S = 6.0e-3
SAMPLE_EVERY_S = 0.2

_H = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.3], [0.1, 0.3, 0.7]])
_V = np.linspace(0.1, 1.0, 6)


def kernel() -> float:
    """Seconds taken by fixed work in three parts, the mix the package runs:
    small LAPACK calls, small elementwise numpy, and plain interpreter work.
    Their sum follows the workloads' speed more closely than any one part."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(150):
        acc += float(np.linalg.eigvalsh(_H)[0]) + float(np.sort(_H[i % 3]).sum())
        acc += sum(j * 0.5 for j in range(30))
    for _ in range(300):
        w = np.abs(_V * (1 + 1j)) ** 2
        acc += float(w.sum()) + float(w @ _V) + float(np.outer(_V, _V)[1, :].copy()[0])
    table: dict[int, float] = {}
    for i in range(3000):
        table[i % 17] = table.get(i % 17, 0.0) + (i * 0.5) ** 0.5
        row = [i, i + 1, i + 2]
        row.sort(reverse=True)
    return time.perf_counter() - start


class HostSpeed:
    def __init__(self) -> None:
        self.times: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self) -> None:
        self.kernel_s.append(kernel())
        self.times.append(time.perf_counter())

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def scale_at(self, t: float) -> float:
        """REFERENCE_S over the median kernel time of the samples nearest to ``t``."""
        j = bisect.bisect_left(self.times, t)
        near = self.kernel_s[max(j - 2, 0) : j + 2]
        return REFERENCE_S / statistics.median(near)

    def scale(self) -> float:
        """REFERENCE_S over the median kernel time of the whole run."""
        return REFERENCE_S / statistics.median(self.kernel_s)

    def median_kernel_ms(self) -> float:
        return 1e3 * statistics.median(self.kernel_s)
