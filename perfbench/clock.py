"""Machine-speed reference for the timing metrics.

On a shared machine the CPU speed changes over windows of one to tens of
seconds, as other tenants load the same cores, and every call in a
window slows by about the same factor: the solve time of one fixed input
swings by up to 2x between one-second windows, while its ratio to a
reference kernel run alongside stays within about 3%.

So the plain run executes a fixed reference kernel between operations,
about every PERIOD_S, and reports each operation's time scaled by
NOMINAL_S over the reference's median time around that operation: the
time the call would take on a machine where the reference takes
NOMINAL_S. The kernel is the benchmark's own code, a mix of what the
library's layers do (small SVD, pseudo-inverse and eigen solves,
scattered adds, einsum and a Python loop over small arrays), so no change
to the library can move it. Raw wall-clock figures are printed as well.
"""

from __future__ import annotations

import time

import numpy as np

PERIOD_S = 0.05
# Reference samples within this many seconds of an operation scale it.
WINDOW_S = 0.25
# About the kernel's time on an idle core of a 2-core x86_64 VM.
NOMINAL_S = 0.00125


class ReferenceClock:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(20, 35))
        self._b = rng.normal(size=(20, 20))
        self._v = rng.normal(size=35)
        self._idx = rng.integers(0, 84, size=(35, 10))
        self._times = []
        self._seconds = []
        self._last = -np.inf

    def _kernel(self):
        a, v = self._a, self._v
        np.linalg.svd(a[:, 20:], compute_uv=False)
        np.linalg.pinv(a[:, 20:])
        np.linalg.eig(self._b)
        acc = np.zeros(84)
        for k in range(20):
            np.add.at(acc, self._idx, np.outer(a[k], v[:10]))
        x = 0.0
        for k in range(150):
            row = a[k % 20]
            x += float(np.einsum("i,i->", row, v)) * 0.5
        return x + float(acc[0])

    def reference_seconds(self, repeats=3) -> float:
        """Median kernel time over `repeats` back-to-back runs."""
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        return float(np.median(times))

    def maybe_sample(self):
        """Run the kernel if PERIOD_S has passed since the last sample."""
        if time.perf_counter() - self._last < PERIOD_S:
            return
        t0 = time.perf_counter()
        self._kernel()
        self._last = time.perf_counter()
        self._times.append(0.5 * (t0 + self._last))
        self._seconds.append(self._last - t0)

    def scale(self, starts, seconds) -> np.ndarray:
        """Per-operation factor NOMINAL_S / median reference time over the
        samples within WINDOW_S of the operation (the nearest sample when
        none is that close)."""
        times = np.asarray(self._times)
        ref = np.asarray(self._seconds)
        out = np.empty(len(starts))
        for i, (t0, dt) in enumerate(zip(starts, seconds)):
            lo = np.searchsorted(times, t0 - WINDOW_S)
            hi = np.searchsorted(times, t0 + dt + WINDOW_S)
            if hi > lo:
                out[i] = NOMINAL_S / float(np.median(ref[lo:hi]))
            else:
                near = int(np.argmin(np.abs(times - t0)))
                out[i] = NOMINAL_S / ref[near]
        return out
