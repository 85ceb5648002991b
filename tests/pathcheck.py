"""Helpers shared by the test modules: path checks for the contour and
quadrature tests, the key of the bit and digest pins, the seed-7
float64-edge Green's-function configurations, both path integrals as
functions of their tolerance, and small numeric helpers."""

import cmath
from functools import partial
import math

import numpy as np

from airyprod import (ContourKind, GreensParams, ShiftedArgs, build_contour, greens_time_integral,
                      laplace_integral)

OMEGA = cmath.exp(2j * math.pi / 3)


def scaled_diff(a, b):
    """|a - b| relative to max(1, |b|)."""
    return abs(a - b) / max(1.0, abs(b))


def bits(res):
    """float.hex of (Re value, Im value, abs_err_est) of a result."""
    return res.value.real.hex(), res.value.imag.hex(), res.abs_err_est.hex()


def tracked(leg, t):
    """k and the tracked angle of ``leg`` at the points t, both read from
    its map: l = log(k^{-p} dk/dt) at p = 0 less l at p = 1 is log k on
    the leg's branch."""
    with np.errstate(all="ignore"):
        k, ell_0 = leg.map(np.asarray(t, dtype=float), 0.0)
        ell_1 = leg.map(np.asarray(t, dtype=float), 1.0)[1]
    return k, (ell_0 - ell_1).imag


def path_is_connected(legs, rtol=1e-9):
    """Check junction continuity of both position and tracked angle; a
    junction that leaves float64 is not continuous."""
    ends = [tracked(leg, [0.0, 1.0]) for leg in legs]
    for (k_prev, th_prev), (k_next, th_next) in zip(ends[:-1], ends[1:]):
        k_end, k_start = k_prev[1], k_next[0]
        scale = max(abs(k_end), abs(k_start), 1e-30)
        if not abs(k_end - k_start) <= rtol * scale:
            return False
        if not abs(th_prev[1] - th_next[0]) <= 1e-12:
            return False
    return True


def ends_finite(legs):
    """Whether every leg's map is finite at both ends."""
    return all(np.isfinite(tracked(leg, [0.0, 1.0])[0]).all() for leg in legs)


def r_inner(leg):
    """The radius at which a ``DecayLeg`` stops short of k = 0."""
    return leg.r_outer * math.exp(-leg.s_max)


def float_kernels():
    """numpy's minor version and the SIMD targets of its float64 exp and log.

    The targets name the loop set that numpy dispatches to (X86_V4, X86_V3
    or baseline), and the pinned bits follow more of its loops than these
    two: exp and log round differently under X86_V4 and X86_V3, and under
    the baseline loops complex multiply and complex absolute value do too
    (``z * z0``, ``np.abs(z)`` and ``checks.ode_worst`` on
    ``shifted_grid(60, 20240901)``, while ``airy_batch``'s Ai, Ai' and
    ``est_rel_err`` keep their bytes under all three)."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy < 2.0
        return None
    info = opt_func_info(func_name="^(exp|log)$", signature="float64")
    return (np.__version__.rsplit(".", 1)[0], info["exp"]["dd"]["current"],
            info["log"]["dd"]["current"])


def path_integrals():
    """Both path integrals as functions of tol alone: I_L- at z = 1,
    z0 = 0, and the time integral at E = 0.5, F = 0.1 z^, r = x^, r' = 0."""
    path = build_contour(ContourKind.L_MINUS, ShiftedArgs.make(1.0, 0.0))
    p = GreensParams.make(0.5, (0, 0, 0.1), (1, 0, 0), (0, 0, 0))
    return [partial(laplace_integral, path), partial(greens_time_integral, p)]


def float64_edges():
    """400 seeded configurations with E, F_z and x drawn as +-10^U(-320, 308),
    F = F_z z^, r = x x^ and r' = 0."""
    rng = np.random.default_rng(7)
    for _ in range(400):
        e, f, x = (rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-320, 308) for _ in range(3))
        yield GreensParams.make(e, (0, 0, f), (x, 0, 0), (0, 0, 0))
