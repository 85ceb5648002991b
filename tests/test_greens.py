"""Static-field Green's function: closed form vs time integral vs free limit."""

import cmath
import math

import numpy as np
import pytest

from airyprod import (
    CoincidentPoints,
    GreensParams,
    NonFiniteInput,
    ToleranceNotMet,
    ZeroField,
    airy,
    greens_closed,
    greens_free,
    greens_time_integral,
    operator_residual,
    scaled_vars,
)

OMEGA = cmath.exp(2j * math.pi / 3)


def test_scaled_vars_symmetric_points():
    p = GreensParams.make(0.0, (0, 0, 1), (0, 0, 1), (0, 0, -1))
    sv = scaled_vars(p)
    assert sv.xi == pytest.approx(0.0, abs=1e-15)
    assert sv.eta == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-14)


def test_scaled_vars_xi_vanishes_when_energy_balances():
    f = (0.1, 0.2, 0.3)
    r, rp = (1.0, -0.5, 0.4), (0.2, 0.1, -0.3)
    e = 0.5 * float(np.dot(f, np.add(r, rp)))
    sv = scaled_vars(GreensParams.make(e, f, r, rp))
    assert abs(sv.xi) <= 1e-14


def test_eta_field_homogeneity():
    base = GreensParams.make(0.3, (0, 0, 0.2), (1, 1, 0), (0, 0, 0))
    doubled = GreensParams.make(0.3, (0, 0, 0.4), (1, 1, 0), (0, 0, 0))
    r = scaled_vars(doubled).eta / scaled_vars(base).eta
    assert abs(r - 2.0 ** (1.0 / 3.0)) <= 1e-14


def test_closed_vs_time_integral_reference_point():
    p = GreensParams.make(0.5, (0, 0, 0.1), (1, 0, 0), (0, 0, 0))
    gc = greens_closed(p)
    gi = greens_time_integral(p, 1e-9)
    assert abs(gc - gi) <= 1e-6 * abs(gc)


def test_weak_field_approaches_free():
    p = GreensParams.make(0.5, (0, 0, 1e-4), (1, 0, 0), (0, 0, 0))
    gc = greens_closed(p)
    gf = greens_free(p)
    assert abs(gc - gf) <= 1e-3 * abs(gf)


def test_eta_derivative_consistency():
    # analytic product-rule derivative vs centered difference in eta
    p = GreensParams.make(0.3, (0, 0, 0.5), (1.2, 0, 0.4), (0, 0, 0))
    sv = scaled_vars(p)
    h = 1e-5

    def pair(eta):
        return airy(sv.xi + eta).ai * airy(OMEGA * (sv.xi - eta)).ai

    fd = (pair(sv.eta + h) - pair(sv.eta - h)) / (2 * h)
    a1, a2 = airy(sv.xi + sv.eta), airy(OMEGA * (sv.xi - sv.eta))
    analytic = a1.ai_prime * a2.ai - OMEGA * a1.ai * a2.ai_prime
    assert abs(fd - analytic) <= 1e-8 * max(1.0, abs(analytic))


@pytest.mark.parametrize("e", [0.5, -0.5, 0.0])
def test_zero_field_integral_matches_free(e):
    p = GreensParams.make(e, (0, 0, 0), (1, 0, 0), (0, 0, 0))
    gi = greens_time_integral(p, 1e-10)
    gf = greens_free(p)
    assert abs(gi - gf) <= 1e-8 * abs(gf)


def test_free_form_reference_values():
    p = GreensParams.make(0.5, (0, 0, 0), (1, 0, 0), (0, 0, 0))
    assert greens_free(p) == pytest.approx(cmath.exp(1j) / (2 * math.pi), rel=1e-15)
    p = GreensParams.make(0.0, (0, 0, 0), (0, 2, 0), (0, 0, 0))
    assert greens_free(p) == pytest.approx(1.0 / (4 * math.pi), rel=1e-15)
    p = GreensParams.make(-0.5, (0, 0, 0), (1, 0, 0), (0, 0, 0))
    assert greens_free(p) == pytest.approx(math.exp(-1.0) / (2 * math.pi), rel=1e-15)


def test_transverse_translation_invariance():
    f = (0.0, 0.0, 0.3)
    p1 = GreensParams.make(0.4, f, (1.0, 0.5, 0.2), (0.0, -0.2, -0.5))
    shift = (0.7, -1.1, 0.0)  # perpendicular to F
    p2 = GreensParams.make(0.4, f, np.add(p1.r, shift), np.add(p1.r_prime, shift))
    g1, g2 = greens_closed(p1), greens_closed(p2)
    assert abs(g1 - g2) <= 1e-10 * abs(g1)
    i1 = greens_time_integral(p1, 1e-9)
    i2 = greens_time_integral(p2, 1e-9)
    assert abs(i1 - i2) <= 1e-10 * abs(i1)


def test_axial_rotation_invariance():
    angle = 0.83
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    f = (0.0, 0.0, 0.4)
    r, rp = np.array([1.1, -0.3, 0.6]), np.array([-0.2, 0.5, -0.1])
    g1 = greens_closed(GreensParams.make(0.25, f, r, rp))
    g2 = greens_closed(GreensParams.make(0.25, f, rot @ r, rot @ rp))
    assert abs(g1 - g2) <= 1e-12 * abs(g1)


def test_operator_residual_off_singularity():
    p = GreensParams.make(0.4, (0, 0, 0.3), (2.0, 0.5, 0.1), (0, 0, -0.5))
    assert operator_residual(p) < 1e-4


def test_domain_errors():
    with pytest.raises(CoincidentPoints):
        greens_free(GreensParams.make(0.5, (0, 0, 0), (1, 0, 0), (1, 0, 0)))
    with pytest.raises(CoincidentPoints):
        greens_time_integral(GreensParams.make(0.5, (0, 0, 1), (1, 0, 0), (1, 0, 0)))
    with pytest.raises(ZeroField):
        greens_closed(GreensParams.make(0.5, (0, 0, 0), (1, 0, 0), (0, 0, 0)))
    with pytest.raises(ZeroField):
        scaled_vars(GreensParams.make(0.5, (0, 0, 0), (1, 0, 0), (0, 0, 0)))
    with pytest.raises(ValueError):
        greens_time_integral(
            GreensParams.make(0.5, (0, 0, 1), (1, 0, 0), (0, 0, 0)), tol=1e-12)


def test_deep_tunneling_regime():
    # strongly classically forbidden configuration: the value is
    # ~e^{-sqrt(2|E'|) d} ~ 1e-20 and requires the saddle-adapted path
    p = GreensParams.make(-0.81, (0, 0, 0.012), (15.9, 0, 0), (-15.9, 0, 0))
    gc = greens_closed(p)
    gi = greens_time_integral(p, 1e-8)
    assert abs(gc) < 1e-15  # sanity: genuinely suppressed
    assert abs(gc - gi) <= 1e-6 * abs(gc)
    # zero-field counterpart against the analytic decaying wave
    p0 = GreensParams.make(-1.0, (0, 0, 0), (30, 0, 0), (0, 0, 0))
    gi0 = greens_time_integral(p0, 1e-9)
    gf0 = greens_free(p0)
    assert abs(gf0) < 1e-20
    assert abs(gi0 - gf0) <= 1e-8 * abs(gf0)


def test_mutual_consistency_parameter_sweep():
    rng = np.random.default_rng(17)
    for _ in range(15):
        e = rng.uniform(-1.0, 1.0)
        f0 = 10.0 ** rng.uniform(-2.0, 0.0)
        eta = rng.uniform(0.1, 5.0)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        d = 2.0 ** (2.0 / 3.0) * eta / f0 ** (1.0 / 3.0)
        shift = rng.normal(size=3) * 0.5
        p = GreensParams.make(e, (0, 0, f0), direction * d / 2 + shift,
                              -direction * d / 2 + shift)
        gc = greens_closed(p)
        gi = greens_time_integral(p, 1e-8)
        assert abs(gc - gi) <= 1e-6 * max(abs(gc), 1e-300)


@pytest.mark.parametrize("e, f, d", [(-0.02, 1e-8, 1.0), (-0.3, 1e-6, 5.0),
                                     (-0.1, 1e-5, 3.0), (-0.05, 1e-7, 2.0),
                                     (-0.5, 1e-6, 2.0)])
def test_weak_field_time_integral_matches_free(e, f, d):
    # r is perpendicular to F, so E' = E: below it the term iE't decays
    # along the rotated tail and must shorten it, not lengthen it
    p = GreensParams.make(e, (0, 0, f), (d, 0, 0), (0, 0, 0))
    gi = greens_time_integral(p, 1e-8)
    gf = greens_free(p)
    assert abs(gi - gf) <= 1e-6 * abs(gf)


@pytest.mark.parametrize("e, f, r", [(0.02, 1e-9, (1, 0, 0)), (-0.5, 1e-9, (6, 0, 0)),
                                     (0.02, 1e-12, (1, 0, 0))])
def test_time_integral_tail_guard(e, f, r):
    # the tail radius would exceed 1e8: a typed failure, never a value
    with pytest.raises(ToleranceNotMet):
        greens_time_integral(GreensParams.make(e, (0, 0, f), r, (0, 0, 0)), 1e-8)


_NON_FINITE = {
    "nan-energy": (math.nan, (0, 0, 0.1), (1, 0, 0)),
    "inf-field": (0.5, (0, math.inf, 0.1), (1, 0, 0)),
    "nan-r": (0.5, (0, 0, 0.1), (1, math.nan, 0)),
}


@pytest.mark.parametrize("fn", [greens_closed, greens_free, greens_time_integral])
@pytest.mark.parametrize("case", sorted(_NON_FINITE))
def test_non_finite_inputs_typed(fn, case):
    e, f, r = _NON_FINITE[case]
    with pytest.raises(NonFiniteInput):
        fn(GreensParams.make(e, f, r, (0, 0, 0)))


@pytest.mark.parametrize("h", [0.0, -1e-3, math.nan, "separation"])
def test_operator_residual_rejects_bad_step(h):
    p = GreensParams.make(0.4, (0, 0, 0.3), (2.0, 0.5, 0.1), (0, 0, -0.5))
    with pytest.raises(ValueError):
        operator_residual(p, p.separation if h == "separation" else h)
