"""Reference-evaluator tests: frozen values, identities, error contracts."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airyprod import (
    EnvelopeExceeded,
    NonFiniteInput,
    airy,
    airy_batch,
    airy_ode_residual,
)
from airyprod.oracle import CROSSOVER_RADIUS, _asym_batch, _series_batch

OMEGA = cmath.exp(2j * math.pi / 3)

# independent closed forms for the origin values
AI0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
AIP0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)


def test_origin_values_match_gamma_form():
    v = airy(0)
    assert abs(v.ai - AI0) <= 1e-14
    assert abs(v.ai_prime - AIP0) <= 1e-14
    # frozen decimals
    assert v.ai.real == pytest.approx(0.35502805388781724, abs=1e-16)
    assert v.ai_prime.real == pytest.approx(-0.25881940379280680, abs=1e-16)


def _connection_residuals(z):
    a0 = airy_batch(z)[0]
    ap = airy_batch(OMEGA * z)[0]
    am = airy_batch(z / OMEGA)[0]
    res = np.abs(a0 + OMEGA * ap + np.conj(OMEGA) * am)
    scale = np.maximum.reduce([np.abs(a0), np.abs(ap), np.abs(am)])
    return res / scale


def test_connection_identity_disk():
    rng = np.random.default_rng(11)
    z = (rng.uniform(-1, 1, 260) + 1j * rng.uniform(-1, 1, 260)) * 10
    z = z[np.abs(z) <= 10][:200]
    assert len(z) == 200
    assert np.max(_connection_residuals(z)) <= 1e-11


def test_wronskian_constant_over_z():
    rng = np.random.default_rng(3)
    z = (rng.uniform(-1, 1, 80) + 1j * rng.uniform(-1, 1, 80)) * 8
    a, ap = airy_batch(z)[:2]
    b, bp = airy_batch(OMEGA * z)[:2]
    t1 = a * OMEGA * bp
    t2 = ap * b
    wr = t1 - t2
    # constancy at 1e-10 is representable in float64 only where the two
    # terms do not cancel catastrophically; restrict to that subset
    ok = np.maximum(np.abs(t1), np.abs(t2)) <= 1e4 * np.abs(wr)
    assert np.count_nonzero(ok) >= 40
    mean = np.mean(wr[ok])
    assert np.max(np.abs(wr[ok] - mean)) <= 1e-10 * abs(mean)


@pytest.mark.parametrize("z", [0.3 + 0.7j, -2.5 + 1j, 5 - 3j, 12 + 4j, -15 - 2j])
def test_schwarz_reflection_exact(z):
    v = airy(z)
    vc = airy(z.conjugate())
    assert vc.ai == v.ai.conjugate()
    assert vc.ai_prime == v.ai_prime.conjugate()


@pytest.mark.parametrize("x", [0.0, 1.0, -4.5, 8.0, -9.5, 20.0, -35.0])
def test_real_axis_imag_exactly_zero(x):
    v = airy(x)
    assert v.ai.imag == 0.0
    assert v.ai_prime.imag == 0.0


def test_envelope_and_finite_gates():
    with pytest.raises(EnvelopeExceeded):
        airy(51.0)
    with pytest.raises(NonFiniteInput):
        airy(complex("nan"))
    with pytest.raises(NonFiniteInput):
        airy(complex("inf"))
    airy(50.0)  # boundary admitted


def test_error_estimate_envelope():
    rng = np.random.default_rng(7)
    z = (rng.uniform(-1, 1, 300) + 1j * rng.uniform(-1, 1, 300)) * 20
    z = z[np.abs(z) <= 20]
    est = airy_batch(z)[2]
    assert np.max(est) <= 1e-12


def test_against_mpmath_sample():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    rng = np.random.default_rng(19)
    z = (rng.uniform(-1, 1, 60) + 1j * rng.uniform(-1, 1, 60)) * 24
    z = np.concatenate([z[np.abs(z) <= 24][:40], [6.0, 9.0, -9.0, 20.0, 8.9 + 0.1j]])
    ai, aip, est = airy_batch(z)
    for zz, a, ap, e in zip(z, ai, aip, est):
        ra = complex(mp.airyai(complex(zz)))
        rp = complex(mp.airyai(complex(zz), derivative=1))
        scale = max(abs(ra), abs(rp) / (1.0 + abs(zz) ** 0.5), 1e-300)
        assert abs(a - ra) <= 60.0 * max(e, 1e-16) * scale + 1e-250
        scale_p = max(abs(rp), abs(ra) * (1.0 + abs(zz) ** 0.5), 1e-300)
        assert abs(ap - rp) <= 60.0 * max(e, 1e-16) * scale_p + 1e-250


@pytest.mark.parametrize("radius", [9.5, 20.0, 35.0, 49.0])
def test_asymptotic_error_estimate_bounds_mpmath(radius):
    # est_rel_err itself, with no safety factor, bounds the error of both
    # Ai and Ai' beyond the crossover, in every direction of the plane
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    rng = np.random.default_rng(int(radius * 10))
    z = radius * np.exp(1j * rng.uniform(-np.pi, np.pi, 60))
    ai, aip, est = airy_batch(z)
    for zz, a, ap, e in zip(z, ai, aip, est):
        ra = complex(mp.airyai(complex(zz)))
        rp = complex(mp.airyai(complex(zz), derivative=1))
        scale = max(abs(ra), abs(rp) / (1.0 + abs(zz) ** 0.5))
        assert abs(a - ra) <= e * scale, zz
        scale_p = max(abs(rp), abs(ra) * (1.0 + abs(zz) ** 0.5))
        assert abs(ap - rp) <= e * scale_p, zz


def test_branch_overlap_annulus():
    # both internal branches stay accurate on a 0.5-wide annulus around
    # the crossover, bounding the advertised est_rel_err there
    rng = np.random.default_rng(23)
    r = rng.uniform(CROSSOVER_RADIUS - 0.25, CROSSOVER_RADIUS + 0.25, 80)
    th = rng.uniform(0, np.pi, 80)  # upper half; lower is conjugate-exact
    z = r * np.exp(1j * th)
    a_s, ap_s, _ = _series_batch(z)
    a_a, ap_a, _ = _asym_batch(z)
    scale = np.abs(a_s) + np.abs(a_a)
    assert np.max(np.abs(a_s - a_a) / scale) <= 1e-11
    scale_p = np.abs(ap_s) + np.abs(ap_a)
    assert np.max(np.abs(ap_s - ap_a) / scale_p) <= 1e-11


@pytest.mark.parametrize("z,h,bound", [
    (0.0, 1e-3, 1e-6),
    (2 + 1j, 1e-3, 1e-6),
    (-5.0, 1e-2, 1e-4),
])
def test_ode_residual_examples(z, h, bound):
    assert airy_ode_residual(z, h) < bound


def test_ode_residual_step_validation():
    with pytest.raises(ValueError):
        airy_ode_residual(0.0, 1e-5)
    with pytest.raises(ValueError):
        airy_ode_residual(0.0, 0.5)


@settings(max_examples=30, deadline=None)
@given(st.complex_numbers(max_magnitude=9.5, allow_nan=False, allow_infinity=False))
def test_connection_identity_property(z):
    res = _connection_residuals(np.array([z]))
    assert res[0] <= 1e-11


def _branch_points():
    # seeded points on every branch of the evaluator, both half planes
    rng = np.random.default_rng(29)
    th = rng.uniform(-np.pi, np.pi, 60)
    series = CROSSOVER_RADIUS * np.sqrt(rng.uniform(0, 1, 60)) * np.exp(1j * th)
    rim = CROSSOVER_RADIUS * np.exp(1j * np.linspace(-np.pi, np.pi, 13))
    pos_axis = np.linspace(0.0, 8.99, 12)
    far = rng.uniform(CROSSOVER_RADIUS, 40.0, 40) * np.exp(1j * rng.uniform(-np.pi, np.pi, 40))
    neg_axis = -rng.uniform(CROSSOVER_RADIUS, 40.0, 6)
    pts = np.concatenate([series, rim, [9.0, -9.0, 9j, -9j], pos_axis, -pos_axis,
                          far, neg_axis])
    arg = np.abs(np.angle(pts))
    big = np.abs(pts) > CROSSOVER_RADIUS
    # asym, conn and the negative real axis are all present
    assert np.any(big & (arg <= 2 * np.pi / 3))
    assert np.any(big & (arg > 2 * np.pi / 3) & (pts.imag != 0.0))
    assert np.any(big & (pts.imag == 0.0) & (pts.real < 0.0))
    return pts


def test_scalar_matches_batch_bitwise():
    for z in _branch_points():
        v = airy(complex(z))
        ai, aip, _ = airy_batch(np.array([z]))
        assert v.ai == ai[0] and v.ai_prime == aip[0], z


def test_scalar_series_reflection_and_real_axis():
    rng = np.random.default_rng(31)
    z = CROSSOVER_RADIUS * np.sqrt(rng.uniform(0, 1, 40)) * np.exp(
        1j * rng.uniform(0, np.pi, 40))
    for zz in z:
        v, vc = airy(complex(zz)), airy(complex(zz).conjugate())
        assert vc.ai == v.ai.conjugate()
        assert vc.ai_prime == v.ai_prime.conjugate()
    for x in rng.uniform(-CROSSOVER_RADIUS, CROSSOVER_RADIUS, 20):
        v = airy(float(x))
        assert v.ai.imag == 0.0 and v.ai_prime.imag == 0.0


def test_series_dense_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    rng = np.random.default_rng(37)
    disk = CROSSOVER_RADIUS * np.sqrt(rng.uniform(0, 1, 200)) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, 200))
    # the recessive sector |arg z| < pi/3, where the series cancels most
    recessive = rng.uniform(4.0, CROSSOVER_RADIUS, 100) * np.exp(
        1j * rng.uniform(-np.pi / 3, np.pi / 3, 100))
    z = np.concatenate([disk, recessive, [CROSSOVER_RADIUS, 8.99]])
    ai, aip, est = airy_batch(z)
    for zz, a, ap, e in zip(z, ai, aip, est):
        ra = complex(mp.airyai(complex(zz)))
        rp = complex(mp.airyai(complex(zz), derivative=1))
        scale = max(abs(ra), abs(rp) / (1.0 + abs(zz) ** 0.5), 1e-300)
        assert abs(a - ra) <= 60.0 * max(e, 1e-16) * scale + 1e-250, zz
        scale_p = max(abs(rp), abs(ra) * (1.0 + abs(zz) ** 0.5), 1e-300)
        assert abs(ap - rp) <= 60.0 * max(e, 1e-16) * scale_p + 1e-250, zz
