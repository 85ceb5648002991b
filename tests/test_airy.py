"""Reference-evaluator tests: frozen values, identities, error contracts."""

import hashlib
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
)
from airyprod import oracle
from airyprod.oracle import CROSSOVER_RADIUS, _asym_batch, _series_batch
from pathcheck import OMEGA, assert_pinned, connection_residuals

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


def test_connection_identity_disk():
    rng = np.random.default_rng(11)
    z = (rng.uniform(-1, 1, 260) + 1j * rng.uniform(-1, 1, 260)) * 10
    z = z[np.abs(z) <= 10][:200]
    assert len(z) == 200
    assert np.max(connection_residuals(z)) <= 1e-11


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


@pytest.mark.parametrize("z", [1e160, 1e206, -1e120, -1e20, complex("nan")])
def test_raw_batch_gate_is_warning_free(z):
    # past the envelope the unenveloped evaluator's gate itself must not
    # overflow: |z|^2 overflows at 1e160, zeta at 1e206, and on the
    # negative axis Re zeta = 0 while the rounding of zeta does not fit
    # e^{-zeta} (RuntimeWarnings are errors in this suite)
    with pytest.raises(EnvelopeExceeded):
        oracle._airy_raw_batch(np.array([0.5, z]))


@pytest.mark.parametrize("radius", [20.0, 50.0])
def test_error_estimate_envelope(radius):
    # over the whole envelope |z| <= 50 the largest est_rel_err, 4.19e-13,
    # lies on the negative real axis, at x = -49.95
    rng = np.random.default_rng(7)
    z = (rng.uniform(-1, 1, 300) + 1j * rng.uniform(-1, 1, 300)) * radius
    z = np.concatenate([z, np.linspace(-50.0, -20.0, 601)])
    est = airy_batch(z[np.abs(z) <= radius])[2]
    assert np.max(est) <= 1e-12


def _assert_near_mpmath(z):
    """Ai and Ai' of ``airy_batch`` at each z within 60 times its
    est_rel_err (at least 1e-16) of mpmath at 30 digits, each relative to
    the larger of the pair's scales."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    ai, aip, est = airy_batch(z)
    for zz, a, ap, e in zip(z, ai, aip, est):
        ra = complex(mp.airyai(complex(zz)))
        rp = complex(mp.airyai(complex(zz), derivative=1))
        scale = max(abs(ra), abs(rp) / (1.0 + abs(zz) ** 0.5), 1e-300)
        assert abs(a - ra) <= 60.0 * max(e, 1e-16) * scale + 1e-250, zz
        scale_p = max(abs(rp), abs(ra) * (1.0 + abs(zz) ** 0.5), 1e-300)
        assert abs(ap - rp) <= 60.0 * max(e, 1e-16) * scale_p + 1e-250, zz


def test_against_mpmath_sample():
    rng = np.random.default_rng(19)
    z = (rng.uniform(-1, 1, 60) + 1j * rng.uniform(-1, 1, 60)) * 24
    _assert_near_mpmath(np.concatenate([z[np.abs(z) <= 24][:40],
                                        [6.0, 9.0, -9.0, 20.0, 8.9 + 0.1j]]))


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


def airy_ode_residual(z, h):
    """|FD2[Ai](z) - z Ai(z)| / max(1, |Ai(z)|): a centered second
    difference of step h checks that the evaluator solves v'' = z v."""
    a0, ap_, am = airy_batch(np.array([z, z + h, z - h]))[0]
    fd2 = (ap_ - 2.0 * a0 + am) / (h * h)
    return abs(fd2 - z * a0) / max(1.0, abs(a0))


@pytest.mark.parametrize("z,h,bound", [
    (0.0, 1e-3, 1e-6),
    (2 + 1j, 1e-3, 1e-6),
    (-5.0, 1e-2, 1e-4),
])
def test_ode_residual_examples(z, h, bound):
    assert airy_ode_residual(z, h) < bound


@settings(max_examples=30, deadline=None)
@given(st.complex_numbers(max_magnitude=9.5, allow_nan=False, allow_infinity=False))
def test_connection_identity_property(z):
    res = connection_residuals(np.array([z]))
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
        ai, aip, err = airy_batch(np.array([z]))
        assert v.ai == ai[0] and v.ai_prime == aip[0], z
        assert v.est_rel_err == err[0], z


def test_crossover_circle_scalar_matches_batch():
    # on |z| = 9 numpy's complex abs and Python's abs differ by an ulp at
    # some points; the branch rule x*x + y*y <= 81 is the same on both
    # entry points, so each point gets the same branch.  Every series
    # point here takes the full term count, so one array stands for 2000
    # one-point calls
    rng = np.random.default_rng(59)
    z = CROSSOVER_RADIUS * np.exp(1j * rng.uniform(-np.pi, np.pi, 2000))
    assert oracle._series_terms(8.99) == oracle._series_terms(CROSSOVER_RADIUS)
    ai, aip, _ = airy_batch(z)
    for zz, a, ap in zip(z, ai, aip):
        v = airy(complex(zz))
        assert repr((v.ai, v.ai_prime)) == repr((complex(a), complex(ap))), zz


def test_mixed_radius_batch_matches_scalar():
    # one array across the whole asymptotic range, whose points stop
    # summing at different terms: each must equal its own scalar call
    rng = np.random.default_rng(47)
    r = rng.uniform(9.01, 49.9, 120)
    z = r * np.exp(1j * rng.uniform(-np.pi, np.pi, 120))
    edges = [-9.01, -49.9, -25.0, -30.0 + 1e-3j, 20.0 * OMEGA, 12.0 * OMEGA.conjugate()]
    z = np.concatenate([z, edges])
    ai, aip, err = airy_batch(z)
    for zz, a, ap, e in zip(z, ai, aip, err):
        v = airy(complex(zz))
        got = (complex(v.ai), complex(v.ai_prime), float(v.est_rel_err))
        assert repr(got) == repr((complex(a), complex(ap), float(e))), zz


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
    rng = np.random.default_rng(37)
    disk = CROSSOVER_RADIUS * np.sqrt(rng.uniform(0, 1, 200)) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, 200))
    # the recessive sector |arg z| < pi/3, where the series cancels most
    recessive = rng.uniform(4.0, CROSSOVER_RADIUS, 100) * np.exp(
        1j * rng.uniform(-np.pi / 3, np.pi / 3, 100))
    _assert_near_mpmath(np.concatenate([disk, recessive, [CROSSOVER_RADIUS, 8.99]]))


# seeded points of the disk |z| <= 9, both half planes, both axes and the
# crossover circle, at which the series kernel's bits are pinned
_SERIES_POINTS = (7.106444-4.510353j, -3.272336+4.534998j, 1.655265-0.136313j, -4.16417+6.490054j,
                  -0.080706-8.341136j, -7.820696-1.096803j, 1.980296+7.074596j,
                  -1.158473-0.401262j, 0.433103-0.028106j, 8.413692+2.777867j, 6.323352+5.510284j,
                  4.21992+6.402356j, 2.813417+2.167629j, -2.930498+3.367984j, 3.082707+0.202275j,
                  -0.598638+7.927657j, -6.08847-4.974366j, -3.492135-1.380935j,
                  -1.302518+0.706564j, 4.931076-6.477665j, 2.145443+2.52711j, -2.273414-0.64989j,
                  1.567602-2.680867j, 0.967837+3.261534j, 0.75+0j, 3.5+0j, 6.25+0j, -2.5+0j,
                  -5.75+0j, -8.5+0j, 1.25j, 4.5j, -3j, -7.75j, 9.0, -9.0, 9j, -9j, 4.5+7.794228j,
                  -6.36396-6.36396j)


def _hex_parts(a, ap):
    return [float(x).hex() for x in (a.real, a.imag, ap.real, ap.imag)]


def series_values():
    """float.hex of (Re Ai, Im Ai, Re Ai', Im Ai') at each _SERIES_POINTS,
    from one call per point."""
    return {str(z): _hex_parts(v.ai, v.ai_prime) for z, v in zip(_SERIES_POINTS,
                                                                  map(airy, _SERIES_POINTS))}


def test_series_values_pinned():
    # the series uses real +, -, * only, so these bits hold on any host,
    # for scalar calls and arrays alike (est_rel_err uses exp and is not
    # pinned)
    rows = series_values()
    assert_pinned("series_values", rows)
    ai, aip, _ = airy_batch(np.array(_SERIES_POINTS))
    assert [_hex_parts(a, ap) for a, ap in zip(ai, aip)] == list(rows.values())


def _digest_points():
    # 4000 seeded points built with +, -, *, / and sqrt only, so they are
    # the same bits on every host: the disk in both half planes, both
    # axes, the six rays where z^3 is imaginary and the crossover circle
    # (drawn just inside it, so no host's |z| takes a point across)
    rng = np.random.default_rng(59)
    x, y = rng.uniform(-CROSSOVER_RADIUS, CROSSOVER_RADIUS, (2, 2600))
    disk = (x + 1j * y)[x * x + y * y < CROSSOVER_RADIUS ** 2 * (1.0 - 1e-12)][:2000]
    real = rng.uniform(-CROSSOVER_RADIUS, CROSSOVER_RADIUS, 200) + 0j
    imag = 1j * rng.uniform(-CROSSOVER_RADIUS, CROSSOVER_RADIUS, 200)
    c, s = math.sqrt(3.0) / 2.0, 0.5
    rays = [r * dx + 1j * (r * dy) for r, (dx, dy) in zip(
        rng.uniform(0.0, CROSSOVER_RADIUS, (6, 200)),
        [(c, s), (0.0, 1.0), (-c, s), (-c, -s), (0.0, -1.0), (c, -s)])]
    t = rng.uniform(-1.0, 1.0, 400)
    r = CROSSOVER_RADIUS * (1.0 - 1e-13)
    circle = r * (1 - t * t) / (1 + t * t) + 1j * (r * 2 * t / (1 + t * t))
    circle[200:] = -circle[200:]
    return np.concatenate([disk, real, imag, *rays, circle])


def _hex_digest(pairs):
    h = hashlib.sha256()
    for a, ap in pairs:
        h.update(" ".join(_hex_parts(a, ap)).encode())
    return h.hexdigest()


def series_digest():
    """SHA-256 of the float.hex of Ai and Ai' at _digest_points(), from
    one array call."""
    ai, aip, _ = airy_batch(_digest_points())
    return _hex_digest(zip(ai, aip))


def test_series_digest_pinned():
    # real +, -, * only, so the same bits on any host, one call per point
    # and one 4000-point array alike
    z = _digest_points()
    assert len(z) == 4000 and np.all(np.abs(z) < CROSSOVER_RADIUS)
    assert_pinned("series_digest", series_digest())
    assert_pinned("series_digest", _hex_digest((v.ai, v.ai_prime) for v in map(airy, z)))


_WALK_TABLE = oracle._series_tables(64)


def _walk_terms(r):
    """The series term count for each radius in the array r, by the rule
    itself: walk a longer coefficient table and stop at the first power
    k >= 1 whose four terms all fall below 1e-22 over the larger of 1 and
    the largest term so far, tested by multiplication as term * peak."""
    r3, power, peak = r * r * r, np.ones_like(r), np.ones_like(r)
    count = np.full(r.shape, len(_WALK_TABLE) - 1)
    running = np.ones(r.shape, dtype=bool)
    for k, (a, b, c, d) in enumerate(_WALK_TABLE):
        term = power * np.maximum.reduce([np.full_like(r, a[0]), b[0] * r,
                                          c[0] * r * r, np.full_like(r, d[0])])
        peak = np.maximum(peak, term)
        if k:
            stop = running & (term * peak < 1e-22)
            count[stop] = k
            running &= ~stop
        power = power * r3
    return count


def test_term_radii_are_the_walks_thresholds():
    # radius k - 2 is the smallest float r with count >= k, by bisection
    # over the bit patterns of the floats in [0, 9], every k at once
    top = int(_walk_terms(np.array([CROSSOVER_RADIUS]))[0])
    ks = np.arange(2, top + 1)
    lo = np.zeros(len(ks), dtype=np.int64)
    hi = np.full(len(ks), np.float64(CROSSOVER_RADIUS).view(np.int64))
    while np.any(lo < hi):
        mid = lo + (hi - lo) // 2
        up = _walk_terms(mid.view(np.float64)) >= ks
        hi, lo = np.where(up, mid, hi), np.where(up, lo, mid + 1)
    assert tuple(lo.view(np.float64).tolist()) == oracle._TERM_RADII
    # the kept coefficient rows are the walk's first rows, bit for bit
    assert oracle._SERIES == _WALK_TABLE[:top + 1]


def test_series_terms_matches_walk():
    # +-1000 ulps around every threshold and 100 000 seeded radii
    bits = np.array(oracle._TERM_RADII).view(np.int64)
    near = (bits[:, None] + np.arange(-1000, 1001)).ravel().view(np.float64)
    rng = np.random.default_rng(61)
    r = np.concatenate([near, rng.uniform(0.0, CROSSOVER_RADIUS, 100_000),
                        [0.0, CROSSOVER_RADIUS]])
    got = np.array([oracle._series_terms(x) for x in r.tolist()])
    assert np.array_equal(got, _walk_terms(r))


def test_last_kept_term_under_envelope():
    # Ai is at least about e^{-zeta} / (2 sqrt(pi) r^(1/4)) in modulus on
    # |z| = r, zeta = (2/3) r^(3/2), and the last term the series keeps
    # (every later one is smaller still) lies below 2e-20 e^{-zeta} at
    # every threshold and one ulp either side, far under half an ulp
    bits = np.array(oracle._TERM_RADII).view(np.int64)
    for r in (bits[:, None] + np.arange(-1, 2)).ravel().view(np.float64).tolist():
        k = oracle._series_terms(r)
        a, b, c, d = (row[0] for row in _WALK_TABLE[k])
        last = r ** (3 * k) * max(a, b * r, c * r * r, d)
        assert last < 2e-20 * math.exp(-(2.0 / 3.0) * r ** 1.5), r


def test_trimmed_series_keeps_every_bit():
    # for each count k of the table, seeded points whose radius gets
    # count k: summing through (z^3)^k gives the same Ai and Ai' bits as
    # summing through the last row, on Python floats and on one array
    # per k
    rng = np.random.default_rng(67)
    edges = [0.0, *oracle._TERM_RADII, CROSSOVER_RADIUS]
    top = len(oracle._SERIES) - 1
    for k, (lo, hi) in enumerate(zip(edges, edges[1:]), 1):
        r = lo + (hi - lo) * rng.uniform(0.05, 0.95, 6)
        th = rng.uniform(-np.pi, np.pi, 6)
        x, y = r * np.cos(th), r * np.sin(th)
        trimmed, full = oracle._series_core(x, y, k), oracle._series_core(x, y, top)
        assert _hex_digest(zip(*trimmed)) == _hex_digest(zip(*full)), k
        for xx, yy in zip(x.tolist(), y.tolist()):
            assert oracle._series_terms(math.sqrt(xx * xx + yy * yy)) == k
            assert (_hex_parts(*oracle._series_core(xx, yy, k))
                    == _hex_parts(*oracle._series_core(xx, yy, top))), (k, xx, yy)


@pytest.mark.parametrize("z", [12 + 4j, -15 - 2j, -20.0, 30.0, 9.5j, -9.2 + 0.1j])
def test_scalar_asymptotics_on_python_floats(monkeypatch, z):
    # beyond the crossover a scalar call runs the asymptotic kernel on
    # python floats, not through a length-1 array
    def no_arrays(z):
        raise AssertionError("scalar airy called _airy_raw_batch")

    want = airy_batch(np.array([z]))
    monkeypatch.setattr(oracle, "_airy_raw_batch", no_arrays)
    v = airy(z)
    assert (v.ai, v.ai_prime, v.est_rel_err) == (want[0][0], want[1][0], want[2][0])
