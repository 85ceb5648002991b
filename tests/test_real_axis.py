"""Real-axis half-line forms, including the negative-shift regime."""

import numpy as np
import pytest

from airyprod import NegativeShift, Route, airy, aiai_real, w_pm, w_pm_real
from pathcheck import scaled_diff


def test_zero_shift_reduces_to_unshifted_representation():
    # at x0 = 0 the formula is the known representation of Ai(x)Ai(w x)
    for x in (-2.0, 0.0, 1.5, 3.0):
        for sign in (+1, -1):
            got = w_pm_real(sign, x, 0.0)
            ref = w_pm(sign, x, 0.0).value
            assert scaled_diff(got.value, ref) <= 1e-10


def test_reference_point_matches_direct():
    got = w_pm_real(+1, 0.0, 1.0).value
    ref = w_pm(+1, 0.0, 1.0).value
    assert scaled_diff(got, ref) <= 1e-8


@pytest.mark.parametrize("x", [-4.0, -1.0, 0.0, 2.0, 4.5])
@pytest.mark.parametrize("x0", [0.0, 0.5, 2.0, 4.0])
def test_half_line_grid(x, x0):
    for sign in (+1, -1):
        got = w_pm_real(sign, x, x0)
        ref = w_pm(sign, x, x0).value
        assert scaled_diff(got.value, ref) <= 1e-8
        # x0 >= 0 is the inner or zero sector: the same single R+- integral
        assert got == w_pm(sign, x, x0, Route.CONTOUR)


def test_negative_shift_rejected():
    with pytest.raises(NegativeShift):
        w_pm_real(+1, 0.0, -0.5)
    with pytest.raises(NegativeShift):
        w_pm_real(-1, 1.0, -1e-12)


def test_conjugate_pair_on_reals():
    got_p = w_pm_real(+1, 1.2, 0.7).value
    got_m = w_pm_real(-1, 1.2, 0.7).value
    assert abs(got_p - got_m.conjugate()) <= 1e-12 * max(1.0, abs(got_p))


def test_aiai_zero_point():
    got = aiai_real(0.0, 0.0)
    assert abs(got.value - airy(0).ai ** 2) <= 1e-10
    assert got.value.imag == 0.0


def test_aiai_negative_shift_regime():
    # x0 < 0 exercises the cancellation of the loop contributions
    got = aiai_real(1.0, -2.0).value
    ref = airy(-1.0).ai * airy(1.0).ai
    assert scaled_diff(got, ref) <= 1e-8


@pytest.mark.parametrize("u,v", [(0.3, 1.1), (-2.0, 0.5), (1.7, -0.4), (-1.1, -2.3)])
def test_reproduces_two_argument_product(u, v):
    # x = v, x0 = u - v gives the symmetric product Ai(u) Ai(v)
    got = aiai_real(v, u - v).value
    ref = airy(u).ai * airy(v).ai
    assert scaled_diff(got, ref) <= 1e-8
    # and the swapped assignment agrees (symmetry of the formula)
    got_swapped = aiai_real(u, v - u).value
    assert abs(got - got_swapped) <= 1e-9 * max(1.0, abs(got))


def test_aiai_wide_real_grid():
    xs = np.linspace(-5, 5, 9)
    x0s = np.linspace(-4, 4, 7)
    for x in xs:
        for x0 in x0s:
            got = aiai_real(x, x0).value
            ref = airy(x + x0).ai * airy(x).ai
            assert scaled_diff(got, ref) <= 1e-8
            assert got.imag == 0.0
