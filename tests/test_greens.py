"""Static-field Green's function: closed form vs time integral vs free limit."""

import cmath
import collections
import itertools
import math

import numpy as np
import pytest

from airyprod import (
    AiryprodError,
    checks,
    greens,
    CoincidentPoints,
    DegenerateGeometry,
    EnvelopeExceeded,
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
from airyprod.grids import greens_samples
from airyprod.quadrature import integrate_legs
from pathcheck import OMEGA, assert_pinned, float64_edges


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
    assert checks.greens_gap(p, 1e-9) <= 1e-6


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
            GreensParams.make(0.5, (0, 0, 1), (1, 0, 0), (0, 0, 0)), tol=1e-15)


@pytest.mark.parametrize("field, r, r_prime, name", [
    pytest.param((0, 0.1), (1, 0), (0, 0), "field_F", id="two-component"),
    pytest.param((0, 0, 0.1, 0), (1, 0, 0, 0), (0, 0, 0, 0), "field_F", id="four-component"),
    pytest.param(0.1, (1, 0, 0), (0, 0, 0), "field_F", id="scalar-field"),
    pytest.param((0, 0, 0.1), (1, 0, 0), (0, 0), "r_prime", id="mismatched"),
])
def test_params_take_three_vectors(field, r, r_prime, name):
    # before the check, four components gave greens_closed = 0.0918+0.150i,
    # two gave values from both routes, and the rest numpy or Python errors
    with pytest.raises(ValueError, match=f"^{name} must have exactly three components"):
        GreensParams.make(0.5, field, r, r_prime)


def test_weak_field_closed_form_leaves_float64():
    # xi = 175: the growing Airy factor alone overflows float64, although
    # G ~ 0.0733 is finite; exponent-scaled Airy factors would return it
    p = GreensParams.make(-0.3, (0, 0, 1e-4), (1, 0, 0), (0, 0, 0))
    with pytest.raises(EnvelopeExceeded):
        greens_closed(p)


def test_node_ceiling_is_checked_between_rounds():
    # the ceiling of 400 000 nodes stops the next round, not the running
    # one: this weak-field integral reaches it in its last round, which
    # splits panels into up to 8 children and may pass it up to 9-fold
    p = GreensParams.make(1.0, (0, 0, 1e-5), (0.5, 0.5, 0), (0, 0, 0))
    with pytest.raises(ToleranceNotMet) as info:
        greens_time_integral(p, 1e-8)
    assert info.value.result.stop == "node_ceiling"
    assert info.value.result.nodes == 692_670


def test_deep_tunneling_regime():
    # strongly classically forbidden configuration: the value is
    # ~e^{-sqrt(2|E'|) d} ~ 1e-20 and requires the saddle-adapted path
    p = GreensParams.make(-0.81, (0, 0, 0.012), (15.9, 0, 0), (-15.9, 0, 0))
    assert abs(greens_closed(p)) < 1e-15  # sanity: genuinely suppressed
    assert checks.greens_gap(p, 1e-8) <= 1e-6
    # zero-field counterpart against the analytic decaying wave
    p0 = GreensParams.make(-1.0, (0, 0, 0), (30, 0, 0), (0, 0, 0))
    gi0 = greens_time_integral(p0, 1e-9)
    gf0 = greens_free(p0)
    assert abs(gf0) < 1e-20
    assert abs(gi0 - gf0) <= 1e-8 * abs(gf0)


def test_mutual_consistency_parameter_sweep():
    for _, p in greens_samples(15, 17):
        assert checks.greens_gap(p, 1e-8) <= 1e-6, p


def test_time_integral_at_small_separations():
    # five seeded configurations, each at seven separations from 1 down to
    # 1e-3 along a fixed direction: the time integral converges at tol
    # 1e-10 on every one, with the effective energy of either sign
    rng = np.random.default_rng(61)
    signs = set()
    for _ in range(5):
        e = rng.uniform(-1.0, 1.0)
        f = 10.0 ** rng.uniform(-1.0, 0.0) * rng.normal(size=3)
        f *= 10.0 ** rng.uniform(-1.0, 0.0) / np.linalg.norm(f)
        r_prime = rng.uniform(-1.0, 1.0, 3)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        signs.add(e > float(np.dot(f, r_prime)))
        for d in (1.0, 0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3):
            p = GreensParams.make(e, f, r_prime + d * u, r_prime)
            gi = greens_time_integral(p, 1e-10)
            gc = greens_closed(p)
            assert abs(gi - gc) <= 1e-13 * max(1.0, abs(gc)), (e, d)
    assert signs == {True, False}


def _closed_reference(mp, p):
    """G by the closed form in mpmath, with xi and eta formed from p's floats."""
    f, r, rp = ([mp.mpf(v) for v in vec] for vec in (p.field_F, p.r, p.r_prime))
    d = mp.sqrt(sum((a - b) ** 2 for a, b in zip(r, rp)))
    field = mp.sqrt(sum(v * v for v in f))
    xi = ((sum(fv * (a + b) for fv, a, b in zip(f, r, rp)) - 2 * mp.mpf(p.energy_E))
          / mp.cbrt(2 * field) ** 2)
    eta = mp.cbrt(field / 4) * d
    w = mp.exp(2j * mp.pi / 3)
    a, b = xi + eta, w * (xi - eta)
    deriv = mp.airyai(a, 1) * mp.airyai(b) - w * mp.airyai(a) * mp.airyai(b, 1)
    return complex(-mp.exp(1j * mp.pi / 6) / d * deriv)


def _free_reference(mp, p):
    """The free wave e^{ik|r - r'|}/(2 pi |r - r'|), k = sqrt(2E), in mpmath."""
    d = mp.sqrt(sum((mp.mpf(a) - mp.mpf(b)) ** 2 for a, b in zip(p.r, p.r_prime)))
    return complex(mp.exp(1j * mp.sqrt(2 * mp.mpf(p.energy_E)) * d) / (2 * mp.pi * d))


@pytest.mark.parametrize("tol", [1e-12, 1e-14])
def test_time_integral_error_estimate_at_tight_tol(tol):
    # at tolerances tighter than the default the error estimate still
    # bounds the error: every 5th of criterion 6's samples against the
    # closed form and five zero-field configurations against the free
    # wave, at 30 digits
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    cases = [(p, _closed_reference(mp, p))
             for _, p in itertools.islice(greens_samples(100, 20240907), 0, None, 5)]
    rng = np.random.default_rng(29)
    for _ in range(5):
        u = rng.normal(size=3)
        p = GreensParams.make(rng.uniform(-1.0, 1.0), (0, 0, 0),
                              u / np.linalg.norm(u) * rng.uniform(0.1, 5.0), (0, 0, 0))
        cases.append((p, _free_reference(mp, p)))
    pref = (2.0 * math.pi) ** -1.5
    for p, ref in cases:
        est = integrate_legs(*greens._time_path(p), tol).abs_err_est
        assert abs(greens_time_integral(p, tol) - ref) <= pref * est, p


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
    # the tail radius would exceed 1e8: no usable path, and nothing is integrated
    with pytest.raises(DegenerateGeometry, match=r"path tail would reach past radius 1e\+08"):
        greens_time_integral(GreensParams.make(e, (0, 0, f), r, (0, 0, 0)), 1e-8)


def test_time_integral_stationary_point_past_cap():
    # t_s = sqrt(8E')/F = 2e9 lies past the cap t = 1e8: no usable path,
    # found while the path is built, before the quadrature is entered
    p = GreensParams.make(0.5, (0, 0, 1e-9), (1, 0, 0), (0, 0, 0))
    with pytest.raises(DegenerateGeometry, match=r"radius 2e\+09, past its cap 1e\+08"):
        greens._time_path(p)


@pytest.mark.parametrize("r", [(1e-170, 0, 0), (3e-200, -4e-200, 1e-210), (1e-320, 0, 0)])
def test_separation_below_squared_underflow(r):
    # |r - r'|^2 underflows float64 where |r - r'| does not
    p = GreensParams.make(0.5, (0, 0, 0.1), r, (0, 0, 0))
    assert p.separation == pytest.approx(math.hypot(*r), rel=1e-15)


def test_time_integral_overflow_evaluates_no_panel():
    # E = 1e100 puts Re E near 1.9e99 on the first round's nodes of the
    # first decay leg and the arc: e^{E} leaves float64 there, so the
    # quadrature stops before it forms any exponential
    p = GreensParams.make(1e100, (0, 0, 0.1), (1, 0, 0), (0, 0, 0))
    with pytest.raises(ToleranceNotMet, match=r"after 0 nodes \(stop: non_finite\)") as info:
        greens_time_integral(p, 1e-8)
    assert info.value.result.stop == "non_finite"
    assert info.value.result.nodes == 0


_NON_FINITE = {
    "nan-energy": (math.nan, (0, 0, 0.1), (1, 0, 0)),
    "inf-field": (0.5, (0, math.inf, 0.1), (1, 0, 0)),
    "nan-r": (0.5, (0, 0, 0.1), (1, math.nan, 0)),
    # finite inputs whose |F|, 2E or |r - r'| overflows float64
    "overflow-field": (0.5, (0, 0, 1e200), (1, 0, 0)),
    "overflow-energy": (1e308, (0, 0, 0.1), (1, 0, 0)),
    "overflow-r": (0.5, (0, 0, 0.1), (1e200, 0, 0)),
}


@pytest.mark.parametrize("fn", [greens_closed, greens_free, greens_time_integral])
@pytest.mark.parametrize("case", sorted(_NON_FINITE))
def test_non_finite_inputs_typed(fn, case):
    e, f, r = _NON_FINITE[case]
    with pytest.raises(NonFiniteInput):
        fn(GreensParams.make(e, f, r, (0, 0, 0)))


def float64_edge_outcomes():
    """How the time integral ends at each float64-edge configuration: in a
    value, in the stop of a ``ToleranceNotMet`` or in another error, by
    count.  Every entry point returns a finite value or raises an
    AiryprodError."""
    ends = collections.Counter()
    for p in float64_edges():
        for fn in (greens_closed, greens_free, greens_time_integral, scaled_vars):
            try:
                value = fn(p)
            except AiryprodError as exc:
                if fn is greens_time_integral:
                    # an overflow at the inner end of a decay leg is a
                    # non-finite value on the path like any other
                    assert "does not decay" not in str(exc), p
                    if isinstance(exc, ToleranceNotMet):
                        assert exc.result is not None, p
                        ends[exc.result.stop] += 1
                    else:
                        ends[type(exc).__name__] += 1
                continue
            parts = (value.xi, value.eta) if fn is scaled_vars else (value,)
            assert all(map(cmath.isfinite, parts)), (fn.__name__, p)
            if fn is greens_time_integral:
                ends["value"] += 1
    return dict(ends)


def test_float64_edges_typed():
    # E, F_z and x drawn as +-10^U(-320, 308), and none ends in a numpy
    # RuntimeWarning (an error in this suite).  A path integral fails in
    # two ways: no usable path (DegenerateGeometry: a tail or stationary
    # point past t = 1e8), or a quadrature that stopped (ToleranceNotMet,
    # counted by its stop); the rest are rejected inputs, among them every
    # separation whose 1/|r - r'|^2 overflows
    assert_pinned("float64_edge_outcomes", float64_edge_outcomes())


@pytest.mark.parametrize("d", [1e-3, 5e-4])
def test_operator_residual_rejects_separation_within_step(d):
    # the stencil step is 1e-3, so the points must lie farther apart
    p = GreensParams.make(0.4, (0, 0, 0.3), (d, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError):
        operator_residual(p)
