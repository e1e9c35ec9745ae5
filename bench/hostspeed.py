"""Host speed, read from a fixed reference kernel timed between operations.

On a shared host the same single-threaded code runs up to 1.5x slower for
minutes at a time, whatever the program does. A run therefore times a small
fixed numpy kernel (a row sort, a batched ``eigh`` and a loop of small matrix
products, about 2.5 ms) before every timed operation, and reports each
operation's wall time scaled by ``NOMINAL_S`` over the median kernel time
within ``WINDOW_S`` of it: the time the operation would take on the host when
the kernel takes ``NOMINAL_S``. The kernel shares no code with plmetric, so a
change to the program moves the scaled times as it moves the wall times.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.0025
WINDOW_S = 5.0


class HostSpeed:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._rows = rng.standard_normal((160, 160))
        spd = rng.standard_normal((24, 12, 12))
        self._spd = spd @ spd.transpose(0, 2, 1)
        self._vectors = rng.standard_normal((100, 16))
        self._maps = rng.standard_normal((16, 16, 16))
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        """Time the reference kernel once."""
        start = time.perf_counter()
        np.argsort(self._rows, axis=1, kind="stable")
        np.linalg.eigh(self._spd)
        for m in self._maps:
            np.linalg.norm(self._vectors @ m, axis=1)
        self.samples.append((start, time.perf_counter() - start))

    def scaled(self, spans: list[tuple[float, float, float]]) -> list[float]:
        """Scale each (start, end, seconds) to the nominal host speed."""
        at = np.array([t for t, _ in self.samples])
        took = np.array([d for _, d in self.samples])
        out = []
        for start, end, seconds in spans:
            near = took[(at >= start - WINDOW_S) & (at <= end + WINDOW_S)]
            out.append(seconds * NOMINAL_S / float(np.median(near if near.size else took)))
        return out

    def median_ms(self) -> float:
        return float(np.median([d for _, d in self.samples])) * 1000.0
