"""Basis products: route equivalence, linear closures, product-ODE residuals."""

import cmath
from functools import partial
import inspect
import math
from unittest import mock

import airyprod
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airyprod import (
    ContourKind,
    EnvelopeExceeded,
    NonFiniteInput,
    Rotation,
    Route,
    ToleranceNotMet,
    airy,
    aiai_real,
    difference_identity,
    grids,
    ode_residual_reduced_batch,
    ode_residual_w_batch,
    product,
    products,
    u_pm,
    w_pm,
    w_pm_real,
)
from airyprod.contours import _ENDS
from pathcheck import scaled_diff

THIRD = cmath.exp(1j * math.pi / 3)


def test_zero_point_values():
    ref = airy(0).ai ** 2
    assert u_pm(+1, 0, 0).value == pytest.approx(ref, abs=1e-16)
    assert u_pm(-1, 0, 0).value == pytest.approx(ref, abs=1e-16)
    assert w_pm(+1, 0, 0).value == pytest.approx(ref, abs=1e-16)
    for r1 in Rotation:
        for r2 in Rotation:
            got = product(r1, r2, 0, 0).value
            expect = r1.factor ** 0 * ref  # all nine collapse to Ai(0)^2
            assert abs(got - expect) <= 1e-15


@pytest.mark.parametrize("z,z0", [(0.7, 1.3), (1 + 2j, -0.5 + 0.25j), (-2.0, 1j),
                                  (2.5, -1.5), (0.0, 3j)])
@pytest.mark.parametrize("sign", [+1, -1])
def test_translation_symmetry(z, z0, sign):
    a = u_pm(sign, z, z0).value
    b = u_pm(sign, z + z0, -z0).value
    assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


@pytest.mark.parametrize("z,z0", [(1.0, 1.0), (2j, 1.0), (0.5, -0.8),
                                  (0.3, 1.7j), (-1.2, 2.5j), (1.5 - 1j, -0.6 - 0.9j)])
def test_route_equivalence_sample_points(z, z0):
    for fn in (u_pm, w_pm):
        for sign in (+1, -1):
            d = fn(sign, z, z0).value
            c = fn(sign, z, z0, Route.CONTOUR).value
            assert scaled_diff(c, d) <= 1e-8, (fn.__name__, sign)


def test_outer_sector_w_route():
    d = w_pm(+1, 0.5, -1.0).value
    c = w_pm(+1, 0.5, -1.0, Route.CONTOUR).value
    assert scaled_diff(c, d) <= 1e-8


def test_mixed_product_contour_route():
    d = product(Rotation.PLUS, Rotation.MINUS, 2j, 1.0).value
    c = product(Rotation.PLUS, Rotation.MINUS, 2j, 1.0, Route.CONTOUR).value
    assert scaled_diff(c, d) <= 1e-8


def test_all_nine_products_contour_route():
    # every sector of the narrow domain, each product against the direct route
    z, z0 = grids.shifted_grid(20, 29)
    for zz, zz0 in zip(z, z0):
        for r1 in Rotation:
            for r2 in Rotation:
                d = product(r1, r2, zz, zz0)
                c = product(r1, r2, zz, zz0, Route.CONTOUR, 1e-10)
                gap = abs(c.value - d.value)
                assert gap <= c.abs_err_est + d.abs_err_est, (zz, zz0, r1, r2)
                assert gap <= 1e-8 * max(1.0, abs(d.value)), (zz, zz0, r1, r2)


@pytest.mark.parametrize("z0", [0.7, -0.8 + 0.3j, 0.0])
def test_contour_route_evaluates_each_integral_once(monkeypatch, z0):
    spy = mock.Mock(wraps=products._contour_value)
    monkeypatch.setattr(products, "_contour_value", spy)
    route = Route.CONTOUR
    evaluations = [lambda: aiai_real(0.4, z0.real)]
    for s in (+1, -1):
        evaluations += [lambda s=s: u_pm(s, 0.4, z0, route),
                        lambda s=s: w_pm(s, 0.4, z0, route),
                        lambda s=s: difference_identity(s, 0.4, z0, route)]
    evaluations += [lambda r1=r1, r2=r2: product(r1, r2, 0.4, z0, route)
                    for r1 in Rotation for r2 in Rotation if (r1, r2) != (Rotation.NONE,) * 2]
    for evaluate in evaluations:
        spy.reset_mock()
        evaluate()
        assert spy.call_count == 1, spy.call_args_list
    # the origin loops of the two W terms cancel in Ai(z+z0) Ai(z), which
    # is the one row of two paths
    spy.reset_mock()
    product(Rotation.NONE, Rotation.NONE, 0.4, z0, route)
    assert (sorted(c.args[0] for c in spy.call_args_list)
            == sorted(_ENDS[k] for k in (ContourKind.R_PLUS, ContourKind.R_MINUS)))


@pytest.mark.parametrize("z,z0", [(0.7, 1.3), (0.2 - 0.8j, -1.1 + 0.4j),
                                  (1.5, 2.0), (-0.4 + 1j, 0.9j)])
def test_linear_closures_direct(z, z0):
    U = {s: u_pm(s, z, z0).value for s in (+1, -1)}
    W = {s: w_pm(s, z, z0).value for s in (+1, -1)}

    lhs = product(Rotation.NONE, Rotation.NONE, z, z0).value
    rhs = W[+1] / THIRD + THIRD * W[-1]
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    for s in (+1, -1):
        lhs = product(Rotation(s), Rotation.NONE, z, z0).value
        rhs = U[-s] + THIRD ** (-s) * (U[s] - W[-s])
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

        lhs = product(Rotation(s), Rotation(-s), z, z0).value
        rhs = THIRD ** (-s) * U[-s] + THIRD ** s * W[-s]
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


@pytest.mark.parametrize("z,z0", [(0.7, 1.3), (0.2 - 0.8j, -1.1 + 0.4j)])
@pytest.mark.parametrize("sign", [+1, -1])
def test_shift_reflection_identity(z, z0, sign):
    # W+- through the translated-basis combination
    lhs = w_pm(sign, z, z0).value
    rhs = (u_pm(-sign, z, z0).value
           + THIRD ** (-sign) * (u_pm(sign, z, z0).value
                                 - w_pm(-sign, z + z0, -z0).value))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_difference_identity_vanishes_at_zero_shift():
    for z in (1.0, -2.0, 1 + 1j):
        for sign in (+1, -1):
            val = difference_identity(sign, z, 0.0).value
            assert abs(val) <= 1e-10


@pytest.mark.parametrize("z,z0", [
    (0.3, 1.0),            # inner
    (0.3, -1.0),           # outer: representation flips sign
    (0.5 + 0.2j, -0.4 + 1.2j),
    (1.1, 0.7j),
])
@pytest.mark.parametrize("sign", [+1, -1])
def test_difference_identity_matches_direct(z, z0, sign):
    d = difference_identity(sign, z, z0, Route.DIRECT).value
    c = difference_identity(sign, z, z0).value
    assert abs(c - d) <= 1e-8 * max(1.0, abs(d))


def test_wide_domain_contour_route_does_not_cancel():
    # every contour row is one integral over one path, so no signed sum
    # of integrals can cancel the digits away on the wide domain
    z, z0 = grids.shifted_grid(60, 42, z_radius=12.0, z0_radius=6.0)
    cases = []
    for zz, zz0 in zip(z[::3].tolist(), z0[::3].tolist()):
        for s in (+1, -1):
            cases += [(lambda r, s=s, zz=zz, zz0=zz0: w_pm(s, zz, zz0, r)),
                      (lambda r, s=s, zz=zz, zz0=zz0: product(Rotation(s), Rotation.NONE, zz, zz0, r)),
                      (lambda r, s=s, zz=zz, zz0=zz0: product(Rotation(s), Rotation(-s), zz, zz0, r))]
    assert len(cases) == 120
    for evaluate in cases:
        d, c = evaluate(Route.DIRECT), evaluate(Route.CONTOUR)
        gap = abs(c.value - d.value)
        assert gap <= 1e-6 * max(1.0, abs(d.value))
        assert gap <= c.abs_err_est + d.abs_err_est
    # an outer-sector W- whose integrals over R- and the origin loop are
    # each about 2.9e14, with the product 3.1e-16
    z, z0 = -14.0 + 8.7j, -4.2 - 9.0j
    d, c = w_pm(-1, z, z0), w_pm(-1, z, z0, Route.CONTOUR, 1e-8)
    gap = abs(c.value - d.value)
    assert gap <= c.abs_err_est
    assert gap <= 1e-8 * max(1.0, abs(d.value))


def test_u_and_w_are_product_rows():
    # U+- is the product (s, s) and W+- the product (0, s): the same row
    # of the same table, so the same bits on both routes, signed zeros of
    # the unrotated argument included
    z, z0 = grids.shifted_grid(10, 31)  # the last two points have z0 = 0
    points = [*zip(z.tolist(), z0.tolist()), (0.8, 0.0), (-1.5, 0.7), (-2.0, -0.4),
              (complex(1.0, -0.0), 0.0), (complex(0.6, -0.0), complex(-0.3, -0.0))]
    for z, z0 in points:
        for route in (Route.DIRECT, Route.CONTOUR):
            for s in (+1, -1):
                rot = Rotation(s)
                # repr: every bit, signed zeros included
                assert repr(u_pm(s, z, z0, route)) == repr(product(rot, rot, z, z0, route))
                assert repr(w_pm(s, z, z0, route)) == repr(
                    product(Rotation.NONE, rot, z, z0, route))


def test_public_surface():
    assert airyprod.__all__ == [
        "AiryValue", "airy", "airy_batch",
        "Sector", "ContourKind", "ShiftedArgs", "ContourPath",
        "classify_sector", "build_contour", "laplace_integral", "saddles",
        "QuadResult",
        "Route", "Rotation", "ProductValue",
        "u_pm", "w_pm", "product", "difference_identity",
        "w_pm_real", "aiai_real", "ode_residual_w_batch", "ode_residual_reduced_batch",
        "GreensParams", "ScaledVars", "scaled_vars",
        "greens_closed", "greens_time_integral", "greens_free", "operator_residual",
        "AiryprodError", "NonFiniteInput", "EnvelopeExceeded",
        "DegenerateGeometry", "ToleranceNotMet", "NegativeShift",
        "ZeroField", "CoincidentPoints",
    ]
    tail = ["route", "tol"]
    params = {
        u_pm: ["sign", "z", "z0", *tail],
        w_pm: ["sign", "z", "z0", *tail],
        product: ["rot1", "rot2", "z", "z0", *tail],
        difference_identity: ["sign", "z", "z0", *tail],
        airyprod.w_pm_real: ["sign", "x", "x0", "tol"],
        aiai_real: ["x", "x0", "tol"],
        airyprod.operator_residual: ["p"],
    }
    for fn, names in params.items():
        assert list(inspect.signature(fn).parameters) == names, fn.__name__


def test_route_argument_validation():
    # a route is a Route member, not its value
    with pytest.raises(ValueError):
        u_pm(+1, 0, 0, "contour")
    with pytest.raises(ValueError):
        u_pm(0, 0, 0)
    with pytest.raises(ValueError):
        w_pm(2, 0, 0)


@pytest.mark.parametrize("fn", [u_pm, w_pm, partial(product, Rotation.PLUS), difference_identity],
                         ids=["u_pm", "w_pm", "product", "difference_identity"])
@pytest.mark.parametrize("z, z0, error", [
    # finite inputs whose sum or rotated argument leaves float64, then
    # non-finite ones
    (1, 1.5e308 + 1.5e308j, EnvelopeExceeded), (1.5e308 + 1.5e308j, 1, EnvelopeExceeded),
    (1e308, 1e308, EnvelopeExceeded), (math.nan, 1, NonFiniteInput), (1, math.inf, NonFiniteInput)])
def test_direct_argument_overflow_typed(fn, z, z0, error):
    for sign in (+1, -1):
        with pytest.raises(error):
            fn(sign, z, z0, Route.DIRECT)


def test_error_estimates_cover_route_gap():
    for z, z0 in [(1.0, 1.0), (0.5, -0.8)]:
        for sign in (+1, -1):
            d = w_pm(sign, z, z0)
            c = w_pm(sign, z, z0, Route.CONTOUR)
            assert abs(c.value - d.value) <= 50.0 * (c.abs_err_est + d.abs_err_est) + 1e-13


# U+ at index 92 of shifted_grid(100, 4242, 12, 6): its L+ integral has a
# float64 floor near 1e-11, far above the target 1e-14 * |value| ~ 2e-14
PLATEAU_Z = 3.454227064669872 + 6.2517801904203925j


def test_contour_miss_raises():
    # 1e-14 lies below the rounding floor of this integral: the quadrature
    # stops on a plateau, and the value comes only with the exception
    with pytest.raises(ToleranceNotMet) as exc:
        u_pm(+1, PLATEAU_Z, 0, Route.CONTOUR, 1e-14)
    assert exc.value.result.stop == "plateau"
    assert math.isfinite(abs(exc.value.result.value))


def test_contour_tightest_tol_within_estimate():
    # U+ at z = -10 + 0.5i, z0 = 0 converges at 1e-14 on the largest turn
    # radius whose crest lies within two e-folds of the lowest (on the
    # largest within one it stops on a plateau), and its estimate bounds
    # the error against mpmath
    mp = pytest.importorskip("mpmath")
    pv = u_pm(+1, -10 + 0.5j, 0, Route.CONTOUR, 1e-14)
    with mp.workdps(30):
        ref = complex(mp.airyai(mp.exp(2j * mp.pi / 3) * mp.mpc(-10, 0.5)) ** 2)
    assert abs(pv.value - ref) <= pv.abs_err_est


@pytest.mark.parametrize("z,z0,bound", [
    (0.7, 1.3, 1e-12),
    (-3.0, 2j, 1e-10),
    (1 + 1j, -0.5, 1e-12),
])
def test_product_ode_residual(z, z0, bound):
    # a scalar is a one-point array; the residual is the nine-product maximum
    assert ode_residual_w_batch(z, z0)[0] < bound


def test_product_ode_residual_all_nine():
    assert ode_residual_w_batch(0.9 - 0.4j, 1.2 + 0.3j)[0] < 1e-12


def test_reduced_ode_at_zero_shift():
    assert max(ode_residual_reduced_batch([0.7, -1.5, 2j, 1 - 1j])) < 1e-12


def test_aiai_matches_complex_route_on_reals():
    for x, x0 in [(0.5, 1.0), (-1.0, 2.0), (2.0, -1.5), (0.0, 0.0)]:
        a = aiai_real(x, x0).value
        b = product(Rotation.NONE, Rotation.NONE, x, x0, Route.CONTOUR).value
        assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


@settings(max_examples=25, deadline=None)
@given(
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
)
def test_closure_property(z, z0):
    lhs = product(Rotation.NONE, Rotation.NONE, z, z0).value
    rhs = w_pm(+1, z, z0).value / THIRD + THIRD * w_pm(-1, z, z0).value
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_contour_error_estimate_bounds_mpmath():
    # at tol 1e-8 on |z| <= 10, |z0| <= 5 the contour integrals cancel, and
    # the GK15 estimate alone misses their rounding; the reported estimate
    # carries the rounding floor 50 eps times the integral of |f dk|
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    z, z0 = grids.shifted_grid(16, 45, z_radius=10.0, z0_radius=5.0)
    for zz, zz0 in zip(z.tolist(), z0.tolist()):
        mz = mp.mpc(zz)
        ms = mz + mp.mpc(zz0)
        for sign in (+1, -1):
            w = mp.exp(sign * 2j * mp.pi / 3)
            for pv, exact in ((u_pm(sign, zz, zz0, Route.CONTOUR, 1e-8), (w * ms, w * mz)),
                              (w_pm(sign, zz, zz0, Route.CONTOUR, 1e-8), (ms, w * mz))):
                ref = complex(mp.airyai(exact[0]) * mp.airyai(exact[1]))
                assert abs(pv.value - ref) <= pv.abs_err_est, (zz, zz0, sign)


@pytest.mark.parametrize("tol", [1e-10, 1e-12, 1e-14])
def test_zero_shift_contour_error_estimate_bounds_mpmath(tol):
    # every contour row with an end at k = 0, at z0 = 0, where those ends
    # reach k = 0 exactly: the seven products other than U+-, both terms
    # of Ai(z) Ai(z) among them, on the 60 zero-shift points of
    # shifted_grid(200, 41) and (200, 42), index 194 of the first among
    # them; and aiai_real and w_pm_real at x = Re z.  No value may lie
    # off mpmath (30 digits) by more than its abs_err_est
    mp = pytest.importorskip("mpmath")
    rows = [(r1, r2) for r1 in Rotation for r2 in Rotation
            if Rotation.NONE in (r1, r2) or r1 is not r2]
    z = [complex(zz) for seed in (41, 42) for zz, zz0 in zip(*grids.shifted_grid(200, seed))
         if zz0 == 0]
    assert len(z) == 60 and complex(grids.shifted_grid(200, 41)[0][194]) in z
    with mp.workdps(30):
        for zz in z:
            rot = {r: mp.exp(2j * mp.pi * r.value / 3) for r in Rotation}
            ai = {r: mp.airyai(rot[r] * mp.mpc(zz)) for r in Rotation}
            ai_x = {r: mp.airyai(rot[r] * zz.real) for r in Rotation}
            cases = [(product(r1, r2, zz, 0, Route.CONTOUR, tol), ai[r1] * ai[r2])
                     for r1, r2 in rows]
            cases.append((aiai_real(zz.real, 0, tol), ai_x[Rotation.NONE] ** 2))
            cases += [(w_pm_real(s, zz.real, 0, tol), ai_x[Rotation.NONE] * ai_x[Rotation(s)])
                      for s in (+1, -1)]
            for pv, ref in cases:
                assert abs(pv.value - complex(ref)) <= pv.abs_err_est, (zz, pv)


def test_direct_error_estimate_bounds_mpmath():
    # abs_err_est itself, with no safety factor, bounds the distance to
    # the exact product at the exact arguments e^{+-2i pi/3}(z+z0) and
    # e^{+-2i pi/3} z, so it must cover the rounding of those arguments
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    z, z0 = grids.shifted_grid(40, 13)
    zw, z0w = grids.shifted_grid(20, 14, z_radius=10.0, z0_radius=5.0)
    for zz, zz0 in zip([*z, *zw], [*z0, *z0w]):
        mz = mp.mpc(complex(zz))
        ms = mz + mp.mpc(complex(zz0))
        for sign in (+1, -1):
            w = mp.exp(sign * 2j * mp.pi / 3)
            for pv, exact in ((u_pm(sign, zz, zz0), (w * ms, w * mz)),
                              (w_pm(sign, zz, zz0), (ms, w * mz))):
                ref = complex(mp.airyai(exact[0]) * mp.airyai(exact[1]))
                assert abs(pv.value - ref) <= pv.abs_err_est, (zz, zz0, sign)
