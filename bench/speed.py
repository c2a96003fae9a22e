"""A gauge of how fast the machine runs at the moment of each operation.

On a shared host the same code runs up to a third slower or faster from
one few-second stretch to the next, and every program slows alike.  The
gauge times a fixed reference kernel, made of the calls the solver itself
is made of (inverse, product, norm and singular values of small complex
matrices, and a small JSON round trip), between operations.  An operation's
wall time multiplied by ``factor()`` reads as seconds at the reference
speed, at which one kernel pass takes ``REFERENCE_S``.  A change to the
program leaves the kernel alone, so the scaled time still moves with it.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import deque

import numpy as np

# Median time of one kernel pass on an idle 2-core VM (numpy 2.4, OpenBLAS
# pinned to one thread); only the unit of the scaled times depends on it.
REFERENCE_S = 0.0035
# Take a sample before and after an operation once this much wall time has
# passed since the last one; an operation is scaled by the median of the
# last WINDOW samples.
EVERY_S = 0.1
WINDOW = 3
WARMUP = 5


class SpeedGauge:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._mats = [
            rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) for _ in range(8)
        ]
        self._doc = {"rows": rng.standard_normal((12, 12, 2)).tolist()}
        self._eye = np.eye(6)
        self._samples: deque[float] = deque(maxlen=WINDOW)
        self._last = -np.inf
        self.taken: list[float] = []
        for _ in range(WARMUP):
            self._kernel()
        for _ in range(WINDOW):
            self.sample()

    def _kernel(self) -> float:
        acc = 0.0
        for _ in range(10):
            for a in self._mats:
                b = np.linalg.inv(a)
                acc += float(np.linalg.norm(a @ b - self._eye))
                acc += float(np.linalg.svd(a, compute_uv=False)[-1])
        acc += len(json.loads(json.dumps(self._doc))["rows"])
        return acc

    def sample(self) -> None:
        start = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self._samples.append(end - start)
        self.taken.append(end - start)
        self._last = end

    def tick(self) -> None:
        """Sample if the last sample is older than EVERY_S."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def factor(self) -> float:
        """Reference speed over current speed, from the latest samples."""
        return REFERENCE_S / statistics.median(self._samples)
