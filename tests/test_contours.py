"""Contour geometry, branch lifts, and the Laplace-integral engine."""

import cmath
from dataclasses import replace
import math

import numpy as np
import pytest

from airyprod import (
    ContourKind,
    DegenerateGeometry,
    EnvelopeExceeded,
    NonFiniteInput,
    Route,
    Sector,
    ShiftedArgs,
    ToleranceNotMet,
    airy,
    airy_batch,
    build_contour,
    checks,
    classify_sector,
    laplace_integral,
    saddles,
    u_pm,
    w_pm,
    w_pm_real,
)
from airyprod.contours import (
    _ENDS,
    VALLEY_SECTORS,
    ContourPath,
    _effective_shift_angle,
)
from airyprod.grids import shifted_grid
from airyprod.quadrature import (TAIL_LAMBDA, ArcLeg, DecayLeg, OriginLeg, RayLeg, _cubic_roots,
                                 exponent, tail_radius)
from pathcheck import path_is_connected, r_inner, tracked

PI = math.pi


def _integral(kind, z, z0, tol=1e-11):
    args = ShiftedArgs.make(z, z0)
    return laplace_integral(build_contour(kind, args), tol)


# ----------------------------------------------------------------------
# sector classification
# ----------------------------------------------------------------------

@pytest.mark.parametrize("z0,expected", [
    (1.0, Sector.INNER),
    (-1.0, Sector.OUTER),
    (0.0, Sector.ZERO),
    (2j, Sector.BOUNDARY),
    (-3j, Sector.BOUNDARY),
    (1e-8 + 1j, Sector.INNER),
    (-1e-8 + 1j, Sector.OUTER),
    (cmath.rect(2.0, PI / 2 + 5e-13), Sector.BOUNDARY),
])
def test_classify_sector(z0, expected):
    assert classify_sector(z0) is expected


def test_classify_rejects_nonfinite():
    with pytest.raises(NonFiniteInput):
        classify_sector(complex("nan"))
    # a non-finite z with a finite z0 reaches ShiftedArgs.make
    with pytest.raises(NonFiniteInput):
        u_pm(+1, math.nan, 0.3, Route.CONTOUR)
    with pytest.raises(NonFiniteInput):
        w_pm_real(+1, math.nan, 1.0)


def test_overflowing_shift_is_non_finite():
    # z0 = 1e155 squares past float64 while z + z0/2 = 0 keeps every tail
    # inside its cap: each kind raises NonFiniteInput, not an untyped error
    z0 = 1e155 + 0j
    args = ShiftedArgs.make(-z0 / 2.0, z0)
    for kind in ContourKind:
        with pytest.raises(NonFiniteInput, match="overflows float64"):
            build_contour(kind, args)


# finite parts whose modulus leaves float64, so abs() of it overflows
_HUGE = 1.5e308 + 1.5e308j


@pytest.mark.parametrize("call, outcome", [
    (lambda: airy(_HUGE), EnvelopeExceeded),
    (lambda: airy_batch([_HUGE]), EnvelopeExceeded),
    # classified as its neighbour 1e308+1e308j is, so the contour route
    # fails as that neighbour does
    (lambda: ShiftedArgs.make(1, _HUGE).z0_sector, Sector.INNER),
    (lambda: build_contour(ContourKind.L_PLUS, ShiftedArgs.make(_HUGE, 0)), DegenerateGeometry),
    (lambda: u_pm(+1, 1, _HUGE, Route.CONTOUR), DegenerateGeometry),
], ids=["airy", "airy_batch", "ShiftedArgs.make", "build_contour", "u_pm"])
def test_modulus_overflow_typed(call, outcome):
    if isinstance(outcome, Sector):
        assert call() is outcome is ShiftedArgs.make(1, 1e308 + 1e308j).z0_sector
    else:
        with pytest.raises(outcome):
            call()


def test_zero_sector_threshold():
    assert classify_sector(1e-305) is Sector.ZERO
    assert classify_sector(1e-295) is Sector.INNER


# ----------------------------------------------------------------------
# path structure invariants
# ----------------------------------------------------------------------

def _in_valley(theta, valley):
    lo, hi = valley
    return lo < theta < hi


def _tail_excess(path, z0):
    """Re E at the far end R of each valley ray of ``path``, less the bound
    -lambda + |z0|^2/(4R) of the tail rule, in units of the size of the
    terms of E there.  ``_tails`` solves R^3 sin(3 theta)/12 - |beta| R =
    lambda, so the beta and cubic terms add to at most -lambda, and the
    z0 term adds at most |z0|^2/(4R)."""
    beta = path.coeffs[0]
    out = []
    for leg in path.segments:
        if isinstance(leg, RayLeg):
            r = max(leg.r_start, leg.r_end)
            essential = abs(z0) ** 2 / (4.0 * r)
            excess = exponent(path.coeffs, cmath.rect(r, leg.theta)).real + TAIL_LAMBDA - essential
            out.append(excess / (abs(beta) * r + r ** 3 / 12.0 + essential))
    return out


def _assert_origin_end(leg, t, arc, z0):
    """``leg`` ends at k = 0 at its parameter t.  At z0 = 0, where the
    exponent has no b/k term, it is an ``OriginLeg`` that reaches k = 0
    exactly, on its own lifted angle; otherwise a ``DecayLeg`` that stops
    short of k = 0, below 1e-2 of the turn radius."""
    if z0 == 0.0:
        assert isinstance(leg, OriginLeg)
        k, angle = tracked(leg, [t])
        assert k[0] == 0.0 and angle[0] == pytest.approx(leg.theta, abs=1e-12)
    else:
        assert isinstance(leg, DecayLeg)
        assert r_inner(leg) < 1e-2 * arc.radius


@pytest.mark.parametrize("z0", [0.9, 0.4 + 0.6j, -1.2, 2j, 0.0, -0.3 + 1.1j])
def test_path_invariants_all_kinds(z0):
    args = ShiftedArgs.make(0.8 - 0.3j, z0)
    a_eff = _effective_shift_angle(args)
    for kind in ContourKind:
        path = build_contour(kind, args)
        assert isinstance(path, ContourPath)
        legs = path.segments
        assert path_is_connected(legs)
        assert isinstance(legs[1], ArcLeg) and legs[1].radius > 0
        # each valley ray reaches the tail cut, up to rounding
        assert all(e <= 1e-13 for e in _tail_excess(path, z0))

        if kind in (ContourKind.L_PLUS, ContourKind.L_MINUS):
            start_valley = VALLEY_SECTORS[2] if kind is ContourKind.L_PLUS else VALLEY_SECTORS[0]
            assert _in_valley(legs[0].theta, start_valley)
            assert _in_valley(legs[-1].theta, VALLEY_SECTORS[1])
        elif kind in (ContourKind.R_MINUS, ContourKind.R_PLUS):
            inner = legs[0]
            _assert_origin_end(inner, 0.0, legs[1], z0)
            # start direction is the essential factor's steepest descent,
            # lifted to the side of the cut this contour starts on
            lift = 0.0 if kind is ContourKind.R_MINUS else -2.0 * PI
            assert inner.theta == pytest.approx(2 * a_eff + PI / 2 + lift)
            mod = inner.theta % (2.0 * PI)
            lo = (2.0 * a_eff) % (2.0 * PI)
            assert (mod - lo) % (2.0 * PI) < PI  # inside internal valley
            tail = VALLEY_SECTORS[0] if kind is ContourKind.R_MINUS else VALLEY_SECTORS[2]
            assert _in_valley(legs[-1].theta, tail)
        else:
            first, last = legs[0], legs[-1]
            # both ends at k = 0, lifts a full turn apart (opposite cut
            # sides), both inside the internal valley mod 2 pi
            _assert_origin_end(first, 0.0, legs[1], z0)
            _assert_origin_end(last, 1.0, legs[1], z0)
            assert first.theta - last.theta == pytest.approx(2.0 * PI)
            for th in (first.theta, last.theta):
                frac = (th - 2.0 * a_eff) % (2.0 * PI)
                assert 0.0 < frac < PI or frac == pytest.approx(PI / 2)


@pytest.mark.parametrize("z_radius,z0_radius", [(4.0, 3.0), (12.0, 6.0), (30.0, 15.0)])
def test_valley_rays_reach_the_tail_cut(z_radius, z0_radius):
    # 1800 rays per grid, no quadrature: every valley ray ends where the
    # tail rule cuts the integrand, wherever the wide domain puts it
    excess = [e for z, z0 in zip(*shifted_grid(300, 5, z_radius=z_radius, z0_radius=z0_radius))
              for kind in ContourKind
              for e in _tail_excess(build_contour(kind, ShiftedArgs.make(z, z0)), z0)]
    assert len(excess) == 1800 and max(excess) <= 1e-13


def test_lift_offsets_between_r_contours():
    args = ShiftedArgs.make(1.0, 0.5 + 0.2j)
    up = build_contour(ContourKind.R_MINUS, args).segments[0].theta
    low = build_contour(ContourKind.R_PLUS, args).segments[0].theta
    assert up - low == pytest.approx(2.0 * PI)


def test_invalid_kind_rejected():
    args = ShiftedArgs.make(1.0, 1.0)
    with pytest.raises(ValueError, match="unknown contour kind"):
        build_contour("loop", args)


@pytest.mark.parametrize("bad", [("up", "up"), ("V1", "V4"), ("V1",), ["up", "V1"], "O"])
def test_invalid_end_pair_rejected(bad):
    with pytest.raises(ValueError, match="unknown contour kind"):
        build_contour(bad, ShiftedArgs.make(1.0, 1.0))


@pytest.mark.parametrize("z0", [0.9, -1.1 + 0.4j, 1.3j, 0.0])
def test_kind_and_its_end_pair_build_one_path(z0):
    args = ShiftedArgs.make(0.8 - 0.3j, z0)
    for kind, ends in _ENDS.items():
        assert build_contour(kind, args).segments == build_contour(ends, args).segments


@pytest.mark.parametrize("z,z0", [(0.6, 1.1), (1.2 - 0.8j, -0.9), (0.4 + 0.2j, 1.7j),
                                  (-1.5, 0.0)], ids=["inner", "outer", "boundary", "zero"])
def test_chained_paths_equal_signed_sums(z, z0):
    # a path between two ends is the sum of named paths that chain from
    # the one end to the other, e.g. up -> V3 = O then R+
    lp, lm, rp, rm, o = (_integral(k, z, z0) for k in ContourKind)  # L+ L- R+ R- O
    chains = {
        ("up", "V3"): ((1, o), (1, rp)),
        ("low", "V1"): ((-1, o), (1, rm)),
        ("low", "up"): ((-1, o),),
        ("up", "V2"): ((1, rm), (1, lm)),
        ("low", "V2"): ((-1, o), (1, rm), (1, lm)),
        ("V1", "V3"): ((1, lm), (-1, lp)),
    }
    for ends, terms in chains.items():
        got = _integral(ends, z, z0)
        want = sum(c * r.value for c, r in terms)
        budget = got.abs_err_est + sum(r.abs_err_est for _, r in terms)
        assert abs(got.value - want) <= max(budget, 1e-12), ends


def test_degenerate_geometry_ceiling():
    args = ShiftedArgs.make(300.0, 0.0)
    with pytest.raises(DegenerateGeometry):
        build_contour(ContourKind.L_PLUS, args)


@pytest.mark.parametrize("z0", [0.0, 100j, -100.0])
def test_geometry_domain_edge(z0):
    # the truncation radius of the edge-most tail angle, d = sin(pi/7),
    # reaches the ceiling 80 at |z + z0/2| = 231.03
    for beta, builds in ((231.0, True), (231.1, False)):
        args = ShiftedArgs.make(beta - 0.5 * z0, z0)
        assert abs(args.z + 0.5 * args.z0) == pytest.approx(beta, abs=1e-12)
        for kind in ContourKind:
            if builds:
                build_contour(kind, args)
            else:
                with pytest.raises(DegenerateGeometry):
                    build_contour(kind, args)


# ----------------------------------------------------------------------
# integral values
# ----------------------------------------------------------------------

def test_frozen_zero_arg_value():
    # independent closed form: both tails of the valley-to-valley path
    # reduce to Gamma integrals, giving e^{i pi/12} 12^(1/6) Gamma(1/6)/3
    expect = cmath.exp(1j * PI / 12) * 12.0 ** (1.0 / 6.0) * math.gamma(1.0 / 6.0) / 3.0
    res = _integral(ContourKind.L_PLUS, 0.0, 0.0)
    assert abs(res.value - expect) <= 1e-13 * abs(expect)
    assert res.abs_err_est <= 1e-10
    assert res.nodes > 0


def test_linear_relation_reference_point():
    [(resid, bound)] = checks.five_contour_relation([1 + 0.3j], [0.7], 1e-11)
    assert resid <= bound


@pytest.mark.parametrize("z,z0", [
    (0.6, 1.1),             # inner
    (1.2 - 0.8j, -0.9),     # outer
    (0.4 + 0.2j, 1.7j),     # boundary
    (-1.5, 0.0),            # zero
])
def test_linear_relation_by_sector(z, z0):
    [(resid, bound)] = checks.five_contour_relation([z], [z0], 1e-11)
    assert resid <= bound


@pytest.mark.parametrize("z", [0.0, 2.0, -3.0, 1 + 1j, -2j])
def test_loop_vanishes_at_zero_shift(z):
    # the loop is 0: below 1e-10 and below its own estimate
    [loop] = checks.zero_shift_loop([z], 1e-12)
    assert abs(loop.value) <= min(1e-10, loop.abs_err_est)


def test_zero_shift_suite_at_tightest_tol():
    # at z0 = 0 the origin loop vanishes, and its turn radius is the one of
    # lowest crest: on the largest radius within two e-folds of it, as on
    # paths with a valley ray, the loops of these seeds stop on a plateau
    # at 1e-14 (count 2 draws two zero-shift points per seed)
    for seed in (5, 6, 7, 14, 18):
        for label, resid, bound in checks.contour_relation(2, seed, 1e-14):
            assert resid <= bound, (seed, label)


def _perturbed(path, args, factor, shift):
    """``path`` with its turn radius scaled by ``factor`` and, when its last
    leg is a ray, that ray turned by ``shift`` radians and cut at its own
    truncation radius."""
    first, arc, last = path.segments
    r = factor * arc.radius
    if isinstance(first, DecayLeg):
        first = replace(first, r_outer=r)
    else:
        first = replace(first, r_end=r)
    arc = replace(arc, radius=r, theta_end=arc.theta_end + shift)
    if isinstance(last, DecayLeg):
        last = replace(last, r_outer=r)
    else:
        theta = last.theta + shift
        r_end = tail_radius(math.sin(3.0 * theta), 0.0, -12.0 * abs(args.z + 0.5 * args.z0),
                            12.0 * TAIL_LAMBDA, 80.0)
        last = replace(last, theta=theta, r_start=r, r_end=r_end)
    return replace(path, segments=(first, arc, last))


def test_path_independence_under_perturbation():
    # every leg layout: ray-arc-ray (L+), decay-arc-ray (R-), decay-arc-decay (O)
    tol = 1e-10
    perturbations = {
        ContourKind.R_MINUS: [(1.1, 0.0), (0.9, 0.0), (1.0, 0.05), (1.0, -0.05), (1.05, 0.03)],
        ContourKind.L_PLUS: [(1.1, 0.0), (0.9, 0.0)],
        ContourKind.O: [(1.1, 0.0), (0.9, 0.0)],
    }
    for z, z0 in [(0.9, 0.8 + 0.4j), (1.2 - 0.8j, -0.9), (-2 + 1j, 0.5j)]:  # inner, outer, boundary
        args = ShiftedArgs.make(z, z0)
        for kind, cases in perturbations.items():
            path = build_contour(kind, args)
            base = laplace_integral(path, tol).value
            for factor, shift in cases:
                pert = _perturbed(path, args, factor, shift)
                assert path_is_connected(pert.segments)
                value = laplace_integral(pert, tol).value
                assert abs(value - base) <= 10.0 * tol * max(1.0, abs(base))


def test_boundary_continuity():
    # inner-limit construction just below |arg z0| = pi/2 matches the
    # outer construction just above, once the loop correction is added
    z = 0.7 + 0.2j
    for sign, kind in [(+1, ContourKind.R_PLUS), (-1, ContourKind.R_MINUS)]:
        z0a = cmath.rect(1.3, PI / 2 - 1e-6)
        z0b = cmath.rect(1.3, PI / 2 + 1e-6)
        ia = _integral(kind, z, z0a).value
        ib = _integral(kind, z, z0b).value + sign * _integral(ContourKind.O, z, z0b).value
        assert abs(ia - ib) <= 1e-5 * abs(ia)


def test_tolerance_not_met_carries_result():
    # an unreachable target must flag, not loop: at 1e-14 the error
    # estimate of this oscillatory integral (index 92 of
    # shifted_grid(100, 4242, 12, 6)) stops falling near 1e-11
    args = ShiftedArgs.make(3.454227064669872 + 6.2517801904203925j, 0.0)
    path = build_contour(ContourKind.L_PLUS, args)
    with pytest.raises(ToleranceNotMet) as exc:
        laplace_integral(path, 1e-14)
    assert exc.value.result is not None
    assert not exc.value.result.converged
    assert exc.value.result.stop == "plateau"
    assert "(stop: plateau)" in str(exc.value)


def test_contour_integrals_share_the_node_ceiling():
    # near the geometry edge this integral cancels: its estimate stays two
    # orders above its value, ~1e157, until the node ceiling of 400 000,
    # the time integral's too, stops it; the last round gives each panel
    # up to 8 children and may pass the ceiling
    path = build_contour(ContourKind.L_MINUS, ShiftedArgs.make(-230, 5))
    with pytest.raises(ToleranceNotMet) as exc:
        laplace_integral(path, 1e-8)
    assert exc.value.result.stop == "node_ceiling"
    assert 400_000 <= exc.value.result.nodes < 9 * 400_000


def test_endpoint_singularity_detected():
    # hand-built path whose inner ray points into the growth region of
    # the essential factor (anti-steepest direction)
    args = ShiftedArgs.make(0.5, 2.0)
    bad_theta = 2.0 * _effective_shift_angle(args) - PI / 2.0

    def bad(s_max):
        return ContourPath(
            segments=(DecayLeg(bad_theta, 0.5, s_max, outward=True),
                      RayLeg(bad_theta, 0.5, 6.0)),
            coeffs=(1.5, -1.0, 1.0),  # (z + z0/2, -z0^2/4, 1)
        )

    # at k = 0.5 e^{-5} the essential factor e^{|z0^2/(4k)|} is about
    # e^297, finite: no usable path (read on the first round's node next
    # to the inner end)
    with pytest.raises(DegenerateGeometry, match="does not decay"):
        laplace_integral(bad(5.0), 1e-8)
    # at k = 0.5 e^{-30} it overflows, which stops the quadrature like
    # any non-finite value on the path
    with pytest.raises(ToleranceNotMet, match=r"\(stop: non_finite\)"):
        laplace_integral(bad(30.0), 1e-8)


def test_path_carries_its_exponent():
    # a path integrates the exponent it was built for, so no caller can
    # pair it with another (z, z0)
    args = ShiftedArgs.make(1 + 0.5j, 0.3 - 0.2j)
    for kind in ContourKind:
        coeffs = build_contour(kind, args).coeffs
        assert coeffs == (args.z + 0.5 * args.z0, -args.z0 * args.z0 / 4.0, 1.0)


# ----------------------------------------------------------------------
# closed-form geometry
# ----------------------------------------------------------------------

def _exponent_slope(k, z, z0):
    beta = z + 0.5 * z0
    return 1j * (beta + z0 * z0 / (4.0 * k * k) + k * k / 4.0)


@pytest.mark.parametrize("z,z0", [
    (1.3 - 0.4j, 0.0),
    (2.0 + 1.0j, 0.9 - 0.3j),
    (-0.7 + 0.2j, 1.6j),
    (0.5 - 2.5j, -1.1 + 0.4j),
], ids=["zero", "inner", "boundary", "outer"])
def test_saddles_are_stationary_points(z, z0):
    ks = saddles(ShiftedArgs.make(z, z0))
    assert len(ks) == 4
    beta = z + 0.5 * z0
    scale = abs(z) + abs(z0) + 1.0
    for k in ks:
        assert abs(k ** 4 + 4.0 * beta * k * k + z0 * z0) <= 1e-13 * scale ** 2
        if k != 0.0:
            assert abs(_exponent_slope(k, z, z0)) <= 1e-13 * scale
    if z0 == 0.0:
        assert sorted(abs(k) for k in ks)[:2] == [0.0, 0.0]


def test_saddles_large_argument_zero_shift():
    ks = saddles(ShiftedArgs.make(100.0, 0.0))
    nonzero = sorted((k for k in ks if k != 0.0), key=lambda k: k.imag)
    assert nonzero == [-20j, 20j]


def test_cubic_roots():
    rng = np.random.default_rng(23)
    counts = {1: 0, 3: 0}
    for _ in range(4000):
        p = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 6.0))
        q = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 6.0))
        roots = _cubic_roots(p, q)
        counts[len(roots)] += 1
        assert len(roots) == (3 if 0.25 * q * q + p * p * p / 27.0 < 0.0 else 1)
        assert list(roots) == sorted(roots)
        for r in roots:
            scale = abs(r) ** 3 + abs(p * r) + abs(q)
            assert abs(r ** 3 + p * r + q) <= 1e-12 * scale, (p, q, r)
    assert min(counts.values()) > 500  # both signs of the discriminant


def test_wide_domain_contours_converge_and_match_oracle():
    z, z0 = shifted_grid(200, 12, z_radius=12.0, z0_radius=6.0)
    zs, z0s = z.tolist(), z0.tolist()
    for zz, zz0 in zip(zs, z0s):
        args = ShiftedArgs.make(zz, zz0)
        for kind in ContourKind:
            laplace_integral(build_contour(kind, args), 1e-8)

    ai_z = {s: airy_batch(cmath.exp(s * 2j * PI / 3) * z)[0] for s in (+1, -1)}
    ai_shift = airy_batch(z + z0)[0]
    ai_shift_rot = {s: airy_batch(cmath.exp(s * 2j * PI / 3) * (z + z0))[0] for s in (+1, -1)}
    for i, (zz, zz0) in enumerate(zip(zs, z0s)):
        for s in (+1, -1):
            for got, ref in ((u_pm(s, zz, zz0, Route.CONTOUR, 1e-8).value,
                              ai_shift_rot[s][i] * ai_z[s][i]),
                             (w_pm(s, zz, zz0, Route.CONTOUR, 1e-8).value,
                              ai_shift[i] * ai_z[s][i])):
                assert abs(got - ref) <= 1e-7 * max(1.0, abs(ref)), (zz, zz0, s)
