"""Host speed, read from fixed reference work run between ops.

On a shared host the speed a process gets drifts, by up to a factor of
two over tens of seconds, and every wall time drifts with it. The
reference work below uses no segmentix code, so a change to the program
cannot move its time; only the host can. Timing it right after each op
gives the host's speed at that moment, and dividing an op's wall time by
that speed gives its time at the reference's nominal speed: the figure a
change to the program moves and the host's drift does not. Wall times are
kept and printed beside the adjusted ones.

Interpreter work, whole-array numpy work and starting a process slow
down by different amounts at different times, so each workload names the
reference that does the same kind of work as its ops: ``LOOP`` for small
computations in the benchmark's process, ``ARRAYS`` for scans over large
arrays, and ``PROCESS`` for ops that are a process start and its imports.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

REF_SHARE = 0.2  # reference time spent per op, as a share of the op's wall time
MAX_REPS = 20
WINDOW = 1  # the readings just before and after an op, and the next one, set its speed

_A = np.linspace(0.1, 1.0, 8)
_X = np.linspace(0.0, 1.0, 1500)
_Y = np.linspace(0.5, 2.0, 1500)
# the grid lives in buffers made once: a fresh 18 MB array per reading
# would time the kernel's page faults, which vary between processes
_GRID = np.empty((1500, 1500))
_ROW = np.empty(1500)


def _loop() -> None:
    """Interpreter work and small numpy calls, the mix segmentix's own code runs."""
    s = 0.0
    for i in range(3000):
        s += float(np.log(_A * (i + 1)).sum()) + (i % 7) * 0.5


def _arrays() -> None:
    """Whole-array numpy work on a 1500 x 1500 grid of pairs."""
    np.subtract.outer(_X, _Y, out=_GRID)
    np.square(_GRID, out=_GRID)
    _GRID.max(axis=1, out=_ROW)
    float(_ROW.sum())


def _process() -> None:
    """A fresh interpreter that imports numpy, as every CLI op starts."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)


class Reference:
    """Fixed work and its wall time on the 2-core reference host when that
    host is not slowed."""

    def __init__(self, name: str, work, nominal_s: float):
        self.name = name
        self.work = work
        self.nominal_s = nominal_s
        self.last_s = nominal_s  # the latest reading

    def once(self) -> float:
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0

    def sample(self, n: int) -> float:
        """Median wall time of ``n`` runs."""
        self.last_s = statistics.median(self.once() for _ in range(n))
        return self.last_s

    def after_op(self, op_s: float) -> float:
        """Median wall time of the runs made after an op of ``op_s`` seconds:
        enough to take about ``REF_SHARE`` of its time at the latest reading,
        and at least one. Counting from the latest reading, not the nominal
        time, keeps the share, and so the ops a timed run fits in, the same
        whatever the host's speed."""
        return self.sample(max(1, min(MAX_REPS, round(REF_SHARE * op_s / self.last_s))))

    def adjust(self, times: list[float], refs: list[float]) -> list[float]:
        """Each time divided by the host's slowdown around it: the median
        reference of the ``WINDOW`` ops on either side, against the nominal."""
        out = []
        for i, dt in enumerate(times):
            local = statistics.median(refs[max(0, i - WINDOW) : i + WINDOW + 1])
            out.append(dt * self.nominal_s / local)
        return out


LOOP = Reference("loop", _loop, 0.009)
ARRAYS = Reference("arrays", _arrays, 0.008)
PROCESS = Reference("process", _process, 0.18)
