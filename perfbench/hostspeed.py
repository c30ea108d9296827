"""How fast the host runs right now, from a fixed slice of work.

The benchmark's machine shares its cores with other tenants, and identical
work swings by up to ~40% in CPU time for seconds to minutes as they come
and go; the operating system reports no steal time for it.  A raw time then
says as much about the neighbours as about relarm.  So the benchmark times a
fixed slice of work (:meth:`Slice.time`) between the things it measures, and
scales their mean time by the slices' mean time (:func:`at_reference_speed`).
The result is still seconds: the seconds the work would take on a host that
runs one slice in :data:`REFERENCE_S`.  The slice is benchmark code that no
change to relarm touches, so a slower or faster relarm moves the scaled time
exactly as it moves the raw one.

The slice mixes the kinds of work relarm does, in about equal shares: a
pure-Python loop (the Jacobi sweeps), many numpy calls on short vectors
(the Jacobi rotations), broadcasting on mid-sized arrays (k-means), and CSV
parsing and float formatting (the dataset and io layers).  One slice is too
short to say how fast the host ran during the operation beside it, so only
the means over a whole run are compared.  Means, not medians: the host
flips between a fast and a slow state, and a median of such a mixture jumps
from one state to the other where a mean moves with the share of time spent
in each, for the slices and the operations alike.
"""

from __future__ import annotations

import csv
import statistics
import time

import numpy as np

# Seconds of one slice at the reference speed: about what the slice takes
# on a 2-core Intel Xeon VM at 2.1 GHz in its usual (slower) state, so the
# scaled times read close to the raw ones there.
REFERENCE_S = 0.085


class Slice:
    """The fixed slice of work; its inputs are built once, from a fixed seed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20160821)
        self.points = rng.standard_normal((4000, 4))
        self.centers = rng.standard_normal((7, 4))
        self.rows = rng.standard_normal((2, 120))
        self.lines = [",".join(repr(v) for v in row) for row in rng.standard_normal((1800, 9)).tolist()]
        self.time()  # first call pays for imports and allocator warm-up

    def _python(self) -> float:
        acc = 0.0
        for _ in range(40):
            for p in range(90):
                for q in range(p + 1, 90):
                    acc += (p * 0.5 - q) * 1e-3
        return acc

    def _small_numpy(self) -> None:
        a, b = self.rows
        for _ in range(3500):
            c, s = np.cos(0.1), np.sin(0.1)
            a, b = c * a - s * b, s * a + c * b

    def _broadcast(self) -> None:
        for _ in range(18):
            d = ((self.points[:, None, :] - self.centers[None, :, :]) ** 2).sum(axis=2)
            d.argmin(axis=1)

    def _text(self) -> None:
        total = 0.0
        for row in csv.reader(self.lines):
            total += sum(float(cell) for cell in row)
        ",".join(repr(total + i) for i in range(8000))

    def time(self) -> float:
        """Wall seconds of one slice."""
        t0 = time.perf_counter()
        self._python()
        self._small_numpy()
        self._broadcast()
        self._text()
        return time.perf_counter() - t0


def at_reference_speed(seconds: float, slices: list[float]) -> float:
    """``seconds`` of work timed among ``slices``, scaled to a host that
    runs one slice in REFERENCE_S."""
    return seconds * REFERENCE_S / statistics.fmean(slices)
