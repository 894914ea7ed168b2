"""Machine-speed reference: fixed work timed between ops.

The benchmark runs on shared virtual machines whose speed drifts by itself:
a fixed pure-Python loop timed back to back takes anywhere from 30 to 48 ms
within one minute, CPU time moving with wall time.  Whole runs of the same
code then come out 20-40% apart, more than any regression bound can allow.

So every untraced run also times a small fixed kernel, the reference,
between ops (never inside one), once `INTERVAL_S` seconds have passed since
the last sample.  The reference is a miniature of what dominates the
workload: numpy calls on 24-point arrays and a 64 x 64 complex product and
Hermitian eigensolve for `lattice_small`; a 128 x 128 one for
`lattice_large`; interpreter work (an arithmetic loop, dict stores and a
recursion like the spline recursion) and 60-digit mpmath arithmetic for
`scan_decay`.  Each op's latency is scaled by nominal_s / (mean of the two
samples that bracket the op), which gives the latency the op would have had
on a machine running the reference in exactly nominal_s: a fixed unit, the
same for every commit.  The speed changes within a second, so only the
bracketing samples track it; wider windows gave visibly larger run-to-run
spreads, and so did references that did not match the workload (plain
interpreter work for `scan_decay`, a 128 x 128 eigensolve for
`lattice_small`).  The reference calls no framelab code, so a change to the
program moves the scaled latencies and leaves the reference alone.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import mpmath
import numpy as np

#: a reference sample is taken before an op once this long has passed since the last
INTERVAL_S = 0.03


def _recursion(n, x):
    if n == 0:
        return 1.0 if 0 <= x < 1 else 0.0
    return (x * _recursion(n - 1, x) + (n + 1 - x) * _recursion(n - 1, x - 1)) / n


def _interpreter():
    total = 0.0
    for i in range(1500):
        total += (i * 0.5) ** 2 % 7.0
    table = {}
    for i in range(500):
        table[i] = i
    for i in range(20):
        total += _recursion(6, 0.37 * i % 5)
    return total + len(table)


def _extended_precision():
    x = mpmath.mpf(1) / 3
    with mpmath.workdps(60):
        for i in range(100):
            x = x * x / (1 + x) + mpmath.mpf(i) / 7
    return x


def _interpreter_and_mpmath():
    return _interpreter() + float(_extended_precision())


_rng = np.random.default_rng(20130822)
_DENSE = _rng.standard_normal((128, 128)) + 1j * _rng.standard_normal((128, 128))
_SMALL_DENSE = _DENSE[:64, :64].copy()
_POINTS = np.arange(24.0)


def _dense(matrix=_DENSE):
    return np.linalg.eigvalsh(matrix @ matrix.conj().T)


def _small_arrays_and_dense():
    total = 0.0
    for i in range(40):
        total += float(np.abs(np.exp(2j * np.pi * _POINTS * i / 24) * _POINTS).max())
    return total + float(_dense(_SMALL_DENSE)[-1])


#: workload -> (kernel, nominal time of one kernel call in seconds)
KERNELS = {
    "lattice_small": (_small_arrays_and_dense, 1.0e-3),
    "scan_decay": (_interpreter_and_mpmath, 2.5e-3),
    "lattice_large": (_dense, 3.0e-3),
}


class Reference:
    """Samples of the reference kernel, each stamped with its start time."""

    def __init__(self, workload):
        self.kernel, self.nominal_s = KERNELS[workload]
        self.stamps = []
        self.seconds = []
        self._due = 0.0

    def sample(self):
        start = perf_counter()
        self.kernel()
        self.stamps.append(start)
        self.seconds.append(perf_counter() - start)
        self._due = perf_counter() + INTERVAL_S

    def maybe_sample(self):
        if perf_counter() >= self._due:
            self.sample()

    def scale(self, stamp):
        """nominal_s over the mean of the samples just before and just after `stamp`."""
        i = bisect.bisect(self.stamps, stamp)
        return self.nominal_s / statistics.fmean(self.seconds[max(0, i - 1):i + 1])
