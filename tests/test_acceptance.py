"""Acceptance suite: one test per shipped criterion, at stated tolerances.

Each test prints a single summary line (visible with ``pytest -s`` or in
captured output on failure) and asserts both the numerical criterion and,
where stated, the runtime budget.

"Scaled difference" below always means |a - b| / max(1, |b|); the
reference side b is the direct (evaluator) route.
"""

import math
import time

import numpy as np

from airyprod import (
    GreensParams,
    Route,
    airy,
    airy_batch,
    aiai_real,
    checks,
    difference_identity,
    operator_residual,
    u_pm,
    w_pm,
    w_pm_real,
)
from airyprod.grids import greens_samples, shifted_grid
from pathcheck import OMEGA, connection_residuals, scaled_diff

SEED = 20240901


def _report(n, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n} {label}: {status} ({detail})")
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_1_ode_suite():
    t0 = time.perf_counter()
    z, z0 = shifted_grid(500, SEED)
    assert (z0 == 0.0).any()
    worst = float(np.max(checks.ode_worst(z, z0)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    _report(1, "product-ode residuals", ok,
            f"fourth-order and, at zero shift, reduced max {worst:.3e}, "
            f"500 points x 9 products, t={elapsed:.1f}s")


def test_criterion_2_route_equivalence():
    t0 = time.perf_counter()
    z, z0 = shifted_grid(2000, SEED)
    tol = 1e-7
    # direct references in five vectorized evaluator sweeps
    a_w = airy_batch(z + z0)[0]
    a_p, a_m = airy_batch(OMEGA * z)[0], airy_batch(z / OMEGA)[0]
    a_sp, a_sm = airy_batch(OMEGA * (z + z0))[0], airy_batch((z + z0) / OMEGA)[0]
    direct_u = {+1: a_sp * a_p, -1: a_sm * a_m}
    direct_w = {+1: a_w * a_p, -1: a_w * a_m}

    worst_u = worst_w = 0.0
    for i, (zz, zz0) in enumerate(zip(z, z0)):
        for sign in (+1, -1):
            c = u_pm(sign, zz, zz0, Route.CONTOUR, 1e-8).value
            worst_u = max(worst_u, scaled_diff(c, direct_u[sign][i]))
            c = w_pm(sign, zz, zz0, Route.CONTOUR, 1e-8).value
            worst_w = max(worst_w, scaled_diff(c, direct_w[sign][i]))
    elapsed = time.perf_counter() - t0
    ok = worst_u <= tol and worst_w <= tol and elapsed < 300.0
    _report(2, "contour-vs-direct routes", ok,
            f"2000 points, worst scaled diff U {worst_u:.3e}, W {worst_w:.3e}, "
            f"tol {tol:g}, t={elapsed:.0f}s")


def test_criterion_3_contour_relation():
    rng = np.random.default_rng(SEED + 3)
    per_sector = 50
    z, z0 = shifted_grid(4 * per_sector, SEED + 3, quotas=(0.25, 0.25, 0.25, 0.25))
    worst_ratio = max(resid / bound
                      for resid, bound in checks.five_contour_relation(z, z0, 1e-10))
    worst_loop = max(abs(loop.value) for loop in checks.zero_shift_loop(
        rng.uniform(-3, 3, 20) + 1j * rng.uniform(-3, 3, 20), 1e-11))
    ok = worst_ratio <= 1.0 and worst_loop <= 1e-10
    _report(3, "five-contour linear relation", ok,
            f"{4 * per_sector} args, worst residual/budget {worst_ratio:.3f}, "
            f"zero-shift loop max {worst_loop:.3e}")


def test_criterion_4_real_axis():
    tol = 1e-8
    worst_half = 0.0
    for x in np.linspace(-5.0, 5.0, 11):
        for x0 in np.linspace(0.0, 4.0, 5):
            for sign in (+1, -1):
                got = w_pm_real(sign, x, x0).value
                ref = w_pm(sign, x, x0).value
                worst_half = max(worst_half, scaled_diff(got, ref))
    worst_cos = 0.0
    for x in np.linspace(-5.0, 5.0, 11):
        for x0 in np.linspace(-4.0, 4.0, 9):  # includes the x0 < 0 regime
            got = aiai_real(x, x0).value
            ref = airy(x + x0).ai * airy(x).ai
            worst_cos = max(worst_cos, scaled_diff(got, ref))
    ok = worst_half <= tol and worst_cos <= tol
    _report(4, "real-axis half-line forms", ok,
            f"worst scaled diff half-line {worst_half:.3e}, "
            f"cosine form {worst_cos:.3e}, tol {tol:g}")


def test_criterion_5_difference_identities():
    tol = 1e-8
    z, z0 = shifted_grid(200, SEED + 5, quotas=(0.25, 0.25, 0.25, 0.25))
    worst = 0.0
    for zz, zz0 in zip(z, z0):
        for sign in (+1, -1):
            d = difference_identity(sign, zz, zz0, Route.DIRECT).value
            c = difference_identity(sign, zz, zz0, Route.CONTOUR).value
            worst = max(worst, scaled_diff(c, d))
    ok = worst <= tol
    _report(5, "loop-integral difference identities", ok,
            f"50 samples per sector, worst scaled diff {worst:.3e}, tol {tol:g}")


def test_criterion_6_greens_function():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 6)
    worst_pair = max(checks.greens_gap(p, 1e-8) for _, p in greens_samples(100, rng))
    worst_free = max(checks.free_gap(GreensParams.make(0.5, (0, 0, 1e-4), r, r_prime))
                     for r, r_prime in [((1, 0, 0), (0, 0, 0)),
                                        ((0.4, 0.7, 0.2), (-0.3, 0.1, 0.0)),
                                        ((0, 0, 1.2), (0, 0, 0.1))])

    worst_op = 0.0
    for _ in range(20):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        d = rng.uniform(1.2, 3.0)
        p = GreensParams.make(rng.uniform(-0.5, 0.5),
                              (0.0, 0.0, rng.uniform(0.05, 0.5)),
                              direction * d, (0.0, 0.0, 0.0))
        worst_op = max(worst_op, operator_residual(p))
    elapsed = time.perf_counter() - t0
    ok = (worst_pair <= 1e-6 and worst_free <= 1e-3 and worst_op <= 1e-4
          and elapsed < 120.0)
    _report(6, "field Green's function", ok,
            f"closed-vs-integral worst {worst_pair:.3e} (100 samples), "
            f"weak-field-vs-free {worst_free:.3e}, operator residual {worst_op:.3e}, "
            f"t={elapsed:.0f}s")


def test_criterion_7_oracle_self_tests():
    rng = np.random.default_rng(SEED + 7)
    z = (rng.uniform(-1, 1, 300) + 1j * rng.uniform(-1, 1, 300)) * 10
    z = z[np.abs(z) <= 10][:200]
    worst_conn = float(np.max(connection_residuals(z)))

    ai0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    aip0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
    v = airy(0)
    err0 = max(abs(v.ai - ai0), abs(v.ai_prime - aip0))
    ok = worst_conn <= 1e-11 and err0 <= 1e-14
    _report(7, "oracle self-tests", ok,
            f"connection residual {worst_conn:.3e} on 200 points, "
            f"origin values within {err0:.1e}")
