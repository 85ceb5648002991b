"""The cross-checks of ``airyprod verify`` and of the acceptance suite.

Each check compares two independent routes to one quantity, or tests an
identity the products must satisfy.  A suite is a function of plain
arguments, ``(count, seed, tol)``: the number of cases, the seed of its
grid and the quadrature tolerance, passed unchanged to every quadrature
it runs.  It returns one ``(label, residual, bound)`` per case, and a
case passes when residual <= bound.  The acceptance criteria call the
same checks on their own points, seeds and tolerances, so each is
written once.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .contours import ContourKind, build_contour, laplace_integral
from .greens import (GreensParams, greens_closed, greens_free, greens_time_integral,
                     operator_residual)
from .grids import greens_samples, shifted_grid
from .products import (Rotation, Route, ode_residual_reduced_batch, ode_residual_w_batch,
                       product, u_pm, w_pm)

def _at(z, z0) -> str:
    return f"z={z:.6g} z0={z0:.6g}"


def ode_worst(z, z0):
    """Per point, the worst ODE residual of the nine products, and at
    z0 = 0 of the reduced third-order equation too."""
    worst = ode_residual_w_batch(z, z0)
    zero = z0 == 0.0
    if zero.any():
        worst[zero] = np.maximum(worst[zero], ode_residual_reduced_batch(z[zero]))
    return worst


def five_contour_relation(z, z0, tol: float):
    """Yield per point (|I_O - (I_R- + I_L- - I_L+ - I_R+)|, its bound): ten
    times the sum of the five error estimates, but at least
    1e-13 max(1, |I_O|)."""
    for zz, zz0 in zip(z, z0):
        res = {kind: laplace_integral(build_contour(kind, zz, zz0), tol) for kind in ContourKind}
        lhs = res[ContourKind.O].value
        rhs = (res[ContourKind.R_MINUS].value + res[ContourKind.L_MINUS].value
               - res[ContourKind.L_PLUS].value - res[ContourKind.R_PLUS].value)
        bound = 10.0 * sum(r.abs_err_est for r in res.values())
        yield abs(lhs - rhs), max(bound, 1e-13 * max(1.0, abs(lhs)))


def zero_shift_loop(z, tol: float):
    """I_O at z0 = 0 for each z, as its ``QuadResult``: the closed loop then
    encircles nothing, so its value is 0 up to its error estimate."""
    return [laplace_integral(build_contour(ContourKind.O, zz, 0.0), tol) for zz in z]


def greens_gap(p: GreensParams, tol: float) -> float:
    """|G_closed - G_integral| / |G_closed|: the closed form against the
    time integral at quadrature tolerance ``tol``."""
    gc = greens_closed(p)
    return abs(gc - greens_time_integral(p, tol)) / max(abs(gc), 1e-300)


def free_gap(p: GreensParams) -> float:
    """|G_closed - G_free| / |G_free|, small in the weak-field limit."""
    gf = greens_free(p)
    return abs(greens_closed(p) - gf) / abs(gf)


def ode(count: int, seed: int, tol: float):
    """ODE residuals per point, bound 1e-10; ``tol`` is not read."""
    z, z0 = shifted_grid(count, seed)
    return [(_at(zz, zz0), w, 1e-10) for zz, zz0, w in zip(z, z0, ode_worst(z, z0))]


def routes(count: int, seed: int, tol: float):
    """Contour against direct route for U+- and W+-: per point the worst
    difference scaled by max(1, |direct|), bound 1e-7."""
    z, z0 = shifted_grid(count, seed)
    cases = []
    for zz, zz0 in zip(z, z0):
        worst = 0.0
        for sign in (+1, -1):
            for fn in (u_pm, w_pm):
                d = fn(sign, zz, zz0, Route.DIRECT).value
                c = fn(sign, zz, zz0, Route.CONTOUR, tol).value
                worst = max(worst, abs(c - d) / max(1.0, abs(d)))
        cases.append((_at(zz, zz0), worst, 1e-7))
    return cases


def identities(count: int, seed: int, tol: float):
    """The product identities on the direct route, bound 1e-10; ``tol``
    is not read."""
    z, z0 = shifted_grid(count, seed)
    third = cmath.exp(1j * math.pi / 3.0)
    cases = []
    for zz, zz0 in zip(z, z0):
        U = {s: u_pm(s, zz, zz0).value for s in (+1, -1)}
        W = {s: w_pm(s, zz, zz0).value for s in (+1, -1)}
        Wr = {s: w_pm(s, zz + zz0, -zz0).value for s in (+1, -1)}
        # residuals are scaled by the largest combining term: where the
        # combination cancels below eps * that scale, float64 holds no
        # further information about the identity
        scale = max(1.0, *(abs(v) for v in (*U.values(), *W.values(), *Wr.values())))
        worst = 0.0

        lhs = product(Rotation.NONE, Rotation.NONE, zz, zz0).value
        rhs = W[+1] / third + third * W[-1]
        worst = max(worst, abs(lhs - rhs) / max(scale, abs(lhs)))
        for s in (+1, -1):
            lhs = product(Rotation(s), Rotation.NONE, zz, zz0).value
            rhs = U[-s] + third ** (-s) * (U[s] - W[-s])
            worst = max(worst, abs(lhs - rhs) / max(scale, abs(lhs)))
            lhs = product(Rotation(s), Rotation(-s), zz, zz0).value
            rhs = third ** (-s) * U[-s] + third ** s * W[-s]
            worst = max(worst, abs(lhs - rhs) / max(scale, abs(lhs)))
            # reflection of the shift through the product identity
            lhs = W[s]
            rhs = U[-s] + third ** (-s) * (U[s] - Wr[-s])
            worst = max(worst, abs(lhs - rhs) / max(scale, abs(lhs)))
            # translation symmetry of the rotated-pair basis
            worst = max(worst, abs(u_pm(s, zz + zz0, -zz0).value - U[s])
                        / max(1.0, abs(U[s])))
        cases.append((_at(zz, zz0), worst, 1e-10))
    return cases


def contour_relation(count: int, seed: int, tol: float):
    """The five-contour relation per point, within the bound of
    ``five_contour_relation``, then five zero-shift loops |I_O| at
    |Re z|, |Im z| <= 2 drawn from ``seed + 1``, each bounded by 1e-10 and
    by its own error estimate."""
    z, z0 = shifted_grid(count, seed)
    cases = [(f"{_at(zz, zz0)} relation", resid, bound)
             for zz, zz0, (resid, bound) in zip(z, z0, five_contour_relation(z, z0, tol))]
    rng = np.random.default_rng(seed + 1)
    loops = rng.uniform(-2, 2, 5) + 1j * rng.uniform(-2, 2, 5)
    return cases + [(f"z={zz:.6g} loop-at-zero-shift", abs(r.value), min(1e-10, r.abs_err_est))
                    for zz, r in zip(loops, zero_shift_loop(loops, tol))]


def greens(count: int, seed: int, tol: float):
    """Closed form against time integral at ``tol`` on ``greens_samples``,
    bound 1e-6; then one weak-field case against the free wave, bound
    1e-3, and one operator residual, bound 1e-4."""
    cases = [(f"E={p.energy_E:.4g} F={p.field_F[2]:.4g} eta={eta:.4g}",
              greens_gap(p, tol), 1e-6) for eta, p in greens_samples(count, seed)]
    p = GreensParams.make(0.5, (0.0, 0.0, 1e-4), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    cases.append(("weak-field-vs-free", free_gap(p), 1e-3))
    p = GreensParams.make(0.4, (0.0, 0.0, 0.3), (2.0, 0.5, 0.1), (0.0, 0.0, -0.5))
    return cases + [("operator-residual", operator_residual(p), 1e-4)]


#: name: (suite, default count)
SUITES = {
    "ode": (ode, 60),
    "routes": (routes, 16),
    "identities": (identities, 60),
    "contour-relation": (contour_relation, 16),
    "greens": (greens, 12),
}
