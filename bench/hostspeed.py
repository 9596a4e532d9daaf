"""A fixed numpy probe, timed next to each operation, for the host's current speed.

On a shared host the same operation can run 50-90% slower for minutes at a
time while other tenants load the machine's cores and caches.  Drift on that
timescale moves every sample of a run alike, so no statistic over one run
removes it.  The probe does the same work every time, with inputs that
depend on neither the workload seed nor maglab, and it slows with the host.
It runs before each pass and after every operation, and an operation's
latency divided by the mean of the probe times on either side of it is the
operation's cost in probe units, which such drift moves far less.

The probe mixes the three kinds of work the workloads do, roughly in
proportion: elementwise passes over arrays of a few MB (metric validation,
cosine quadrature), dense LAPACK factorization (spectra, weightings) and a
loop of small numpy calls paced by the interpreter (Frank-Wolfe, scale
sweeps of small spaces).
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg


class Probe:
    def __init__(self):
        rng = np.random.default_rng(20100)
        self._dist = rng.random((400, 400))
        self._wave = rng.random(200_000)
        a = rng.random((300, 300))
        self._spd = a @ a.T + 300.0 * np.eye(300)
        self._kernel = np.exp(-rng.random((441, 441)))

    def __call__(self) -> float:
        """Seconds the probe took; about 40 ms on a 2-vCPU x86 VM."""
        start = time.perf_counter()
        d = self._dist
        for k in range(20):
            (d - (d[:, [k]] + d[[k], :])).max()
        np.cos(self._wave).sum()
        for _ in range(3):
            scipy.linalg.cholesky(self._spd)
        z = self._kernel
        mu = np.full(z.shape[0], 1.0 / z.shape[0])
        zmu = z @ mu
        for _ in range(2000):
            s = int(np.argmin(zmu))
            zmu = 0.99 * zmu + 0.01 * z[:, s]
            float(mu @ zmu)
        return time.perf_counter() - start
