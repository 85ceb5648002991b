"""Host-speed calibration for the benchmark's timings.

On a shared 2-vCPU cloud VM the speed the benchmark gets drifts by up to
a factor of two over tens of seconds, because other tenants share the
host's cores.  A fixed kernel made of the same kinds of work as the
library's hot paths slows down with it: numpy calls on a 15-point array
(a quadrature panel), a Python loop, and double-double steps on
length-1 arrays (the scalar oracle path).  Repeating one op for a minute,
its time per stretch of a few seconds varied by 9-20% (coefficient of
variation); divided by this kernel's time over the same stretch it
varied by 2-5%.  So every reported time is an op's wall time divided by
the kernel time measured around it, times ``NOMINAL_S``: the time on a
host that runs the kernel in ``NOMINAL_S``, about an unloaded core of
that VM.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

NOMINAL_S = 1.0e-3

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitter
_PANEL = np.linspace(0.1, 1.0, 15) + 0.5j
_ONE_A, _ONE_B = np.array([0.7]), np.array([1.3])


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    p = a * b
    ca, cb = _SPLIT * a, _SPLIT * b
    ahi, bhi = ca - (ca - a), cb - (cb - b)
    alo, blo = a - ahi, b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def kernel():
    """Seconds taken by one run of the calibration kernel."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(60):
        acc += float(np.sum(np.exp(1j * i * _PANEL) / np.sqrt(np.abs(_PANEL))).real)
    for i in range(2000):
        acc += i * i
    hi, lo = _ONE_A, np.zeros(1)
    for _ in range(25):
        p, e = _two_prod(hi, _ONE_B)
        hi, lo = _two_sum(p, lo + e)
        lo = lo * 0.5
    return perf_counter() - t0


def kernel_seconds(cover=0.0):
    """Mean kernel time over runs lasting at least ``cover`` seconds in all
    (and at least one run)."""
    total, count = 0.0, 0
    while count == 0 or total < cover:
        total += kernel()
        count += 1
    return total / count


def rescale(seconds, kernel_before, kernel_after):
    """``seconds`` at nominal host speed, given the kernel times around them."""
    return seconds * 2.0 * NOMINAL_S / (kernel_before + kernel_after)
