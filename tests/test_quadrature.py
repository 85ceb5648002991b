"""Panel integrator tests: integrals with elementary closed forms, the
reason the adaptive loop stops, and the pinned panel schedule."""

import cmath
import collections
import hashlib
import itertools
import math
import re

import numpy as np
import pytest

from airyprod import (ContourKind, Sector, ShiftedArgs, build_contour, greens,
                      laplace_integral, quadrature)
from airyprod.errors import AiryprodError, DegenerateGeometry, ToleranceNotMet
from airyprod.greens import GreensParams
from airyprod.grids import greens_samples, shifted_grid
from airyprod.quadrature import (
    TAIL_LAMBDA,
    ArcLeg,
    DecayLeg,
    RayLeg,
    SegmentLeg,
    integrate_legs,
    tail_radius,
)
from pathcheck import bits, ends_finite, float64_edges, float_kernels, path_is_connected


# (a, b, c) of the exponent E(k) = i(a k + b/k + c k^3/12)
_ZERO = (0.0, 0.0, 0.0)


def _miss(*args):
    """The unconverged result that ``integrate_legs`` raises with."""
    with pytest.raises(ToleranceNotMet) as info:
        integrate_legs(*args)
    res = info.value.result
    assert not res.converged
    assert str(info.value) == (f"error {res.abs_err_est:.3g} above target after "
                               f"{res.nodes} nodes (stop: {res.stop})")
    return res


def test_polynomial_on_ray():
    # k^3 = e^0 k^{-p} with p = -3
    leg = RayLeg(0.0, 0.0, 1.0)
    res = integrate_legs([leg], _ZERO, -3.0, 1e-12, 50_000)
    assert res.converged and res.stop == "converged"
    assert abs(res.value - 0.25) <= 1e-12


def test_oscillatory_ray():
    leg = RayLeg(0.0, 0.0, 1.0)
    omega = 80.0
    res = integrate_legs([leg], (omega, 0.0, 0.0), 0.0, 1e-12, 200_000)
    exact = (cmath.exp(1j * omega) - 1.0) / (1j * omega)
    assert res.converged
    assert abs(res.value - exact) <= 1e-12


def test_closed_circle_residue():
    leg = ArcLeg(1.0, 0.0, 2.0 * math.pi)
    res = integrate_legs([leg], _ZERO, 1.0, 1e-12, 50_000)
    assert abs(res.value - 2j * math.pi) <= 1e-11


def test_sqrt_singularity_via_decay_leg():
    # int_0^1 k^(-1/2) dk = 2; the angle-tracked root keeps the branch
    leg = DecayLeg(0.0, 1.0, 70.0, outward=True)
    res = integrate_legs([leg], _ZERO, 0.5, 1e-12, 50_000)
    assert abs(res.value - 2.0) <= 1e-11


def test_non_decaying_decay_leg_raises():
    # e^{1/k} (b = -i) grows without bound toward k = 0 on the positive
    # ray, so the clustered substitution cannot regularize the endpoint; an
    # inward leg is checked at its far end
    for outward in (True, False):
        # e^{1/k} at k = e^{-6} is about 1e175: finite, so no usable path
        leg = DecayLeg(0.0, 1.0, 6.0, outward=outward)
        with pytest.raises(DegenerateGeometry, match="does not decay"):
            integrate_legs([leg], (0.0, -1j, 0.0), 0.5, 1e-8, 50_000)
        # at k = e^{-7} it overflows, which stops the loop like any
        # non-finite value on the path
        leg = DecayLeg(0.0, 1.0, 7.0, outward=outward)
        assert _miss([leg], (0.0, -1j, 0.0), 0.5, 1e-8, 50_000).stop == "non_finite"
    # the same leg turned to the negative ray, where e^{1/k} decays
    leg = DecayLeg(math.pi, 1.0, 6.0, outward=True)
    assert integrate_legs([leg], (0.0, -1j, 0.0), 0.5, 1e-8, 50_000).converged


def test_segment_leg_antiderivative():
    # k = |k| e^{i theta} = e^0 k^{-p} with p = -1
    leg = SegmentLeg(1.0 + 0.0j, 1.0 + 2.0j)
    res = integrate_legs([leg], _ZERO, -1.0, 1e-13, 50_000)
    exact = ((1 + 2j) ** 2 - 1.0) / 2.0
    assert abs(res.value - exact) <= 1e-12


def test_node_ceiling_flags_not_converged():
    # integrable endpoint singularity on a plain linear panelization:
    # bisection gains a fixed small factor per level (2^-0.1 on the end
    # panel), so the stall detector fires below the 400-node ceiling
    leg = RayLeg(0.0, 0.0, 1.0)
    res = _miss([leg], _ZERO, 0.9, 1e-13, 400)
    assert res.stop == "plateau"
    assert res.nodes < 400
    assert res.abs_err_est > 0.0


def test_stop_reason_non_finite():
    # e^{1000 k} (a = -1000i) overflows float64 at every node of k in [1, 2],
    # so the seed pass stops the loop before any panel is evaluated
    leg = RayLeg(0.0, 1.0, 2.0)
    res = _miss([leg], (-1000j, 0.0, 0.0), 0.0, 1e-8, 50_000)
    assert res.stop == "non_finite"
    assert res.abs_err_est == math.inf
    assert res.nodes == 0


def test_stop_reason_node_ceiling():
    # the seed pass alone (2 panels, 30 nodes) already exceeds the ceiling
    # and leaves the endpoint singularity unresolved
    leg = RayLeg(0.0, 0.0, 1.0)
    res = _miss([leg], _ZERO, 0.9, 1e-12, 20)
    assert res.stop == "node_ceiling"
    assert res.nodes == 30


def test_stop_reason_plateau():
    # 1e-17 lies below the 4e-16 relative panel floor of a smooth integrand,
    # here e^k (a = -i), so bisection cannot reduce the estimate
    leg = RayLeg(0.0, 0.0, 1.0)
    res = _miss([leg], (-1j, 0.0, 0.0), 0.0, 1e-17, 10 ** 6)
    assert res.stop == "plateau"
    assert abs(res.value - (math.e - 1.0)) <= 1e-15


def _tail_forms():
    """(a, b, c, lam, cap) of the tail cubics of both integrals."""
    # a contour tail: (d/12) R^3 = lambda + |beta| R, times 12
    for beta_abs in (0.0, 1e-6, 0.3, 1.0, 4.0, 12.5, 60.0, 400.0):
        for d in (0.05, 0.2, 0.43, 0.78, 1.0):
            yield d, 0.0, -12.0 * beta_abs, 12.0 * TAIL_LAMBDA, 80.0
    # the time integral's tails at field f and effective energy e: the
    # tunnelling ray, the chord down from the stationary point t_s and the
    # rotated ray, whose linear term has the sign of -e
    rot = math.pi / 8.0
    for f in (1e-9, 1e-6, 1e-3, 0.1, 1.0, 20.0):
        c3 = f * f / 24.0
        for e in (-2.0, -0.3, 0.06, 0.5, 3.0):
            for lam in (TAIL_LAMBDA + 25.0, TAIL_LAMBDA + 175.0):
                yield c3, 0.0, -abs(e), lam, 1e8
                yield c3 * math.sin(3.0 * rot), 0.0, -e * math.sin(rot), lam, 1e8
                if e > 0.0:
                    t_s = math.sqrt(8.0 * e) / f
                    yield (c3 * math.sin(3.0 * rot), 3.0 * c3 * t_s * math.sin(2.0 * rot),
                           0.0, lam, 1e8)
    # quadratic terms whose shift b/(3a) dwarfs the root, up to one whose
    # cube leaves float64
    for b in (3e5, 3e6, 1e110):
        yield 1.0, b, 0.0, 100.0, 1e300


def test_tail_radius_solves_its_cubic():
    raised = solved = 0
    for a, b, c, lam, cap in _tail_forms():
        # a x^3 + b x^2 + c x - lam is negative below its one positive root
        # (with c <= 0), so the root lies beyond the cap exactly when the
        # cubic is still below lam there; a linear term c > 0 does not
        # count toward reaching lam
        if a * cap * cap * cap + b * cap * cap + min(c, 0.0) * cap < lam:
            with pytest.raises(DegenerateGeometry, match=re.escape(f"past radius {cap:g}")):
                tail_radius(a, b, c, lam, cap)
            raised += 1
            continue
        x = tail_radius(a, b, c, lam, cap)
        assert 0.0 < x <= cap, (a, b, c, lam, cap)
        terms = a * x ** 3 + b * x ** 2 + abs(c) * x + lam
        resid = a * x ** 3 + b * x ** 2 + c * x - lam
        assert abs(resid) <= 1e-12 * terms, (a, b, c, lam, cap)
        solved += 1
    assert raised > 10 and solved > 100


def test_seed_reads_the_weight_of_a_ray():
    # with E = 0 the integrand of a ray from r = 1e-6 to 1 is its weight
    # r^{-p}, which varies by p ln(1e6) e-folds, so the seed gives the
    # ray more panels the larger p is
    leg = RayLeg(0.0, 1e-6, 1.0)
    counts = [int(quadrature._seed_counts([leg], _ZERO, p)[0]) for p in (0.0, 0.5, 2.0)]
    assert counts == [2, 3, 8]


def test_legs_share_one_integrand_call_per_round(monkeypatch):
    # three k^(-1/2) endpoint legs on the rays at 0, pi/2 and pi: the seed
    # probes, the seed panels and each bisection round make one exponent
    # call, covering every leg with points to evaluate.  The weight's ramp
    # of 60 e-folds is clipped to 45 in the seed counts, so bisection
    # follows the seed.
    angles = (0.0, 0.5 * math.pi, math.pi)
    legs = [DecayLeg(th, 1.0, 120.0, outward=True) for th in angles]
    calls = []
    real = quadrature.exponent

    def exponent(coeffs, k):
        calls.append(k)
        return real(coeffs, k)

    monkeypatch.setattr(quadrature, "exponent", exponent)
    res = integrate_legs(legs, _ZERO, 0.5, 1e-13, 50_000)
    assert res.converged
    assert len(calls[0]) == 3 * 33
    assert len(calls[1]) == 3 * 13 * 15
    assert len(calls) > 2 and sum(len(k) for k in calls[1:]) == res.nodes
    assert len(np.unique(np.round(np.angle(calls[2]), 6))) == 3
    exact = sum(2.0 * cmath.exp(0.5j * th) for th in angles)
    assert abs(res.value - exact) <= 1e-12


def test_path_connectivity_helper():
    good = [RayLeg(0.5, 2.0, 1.0), ArcLeg(1.0, 0.5, -0.5), RayLeg(-0.5, 1.0, 2.0)]
    assert path_is_connected(good)
    bad = [RayLeg(0.5, 2.0, 1.0), ArcLeg(1.0, 0.4, -0.5)]
    assert not path_is_connected(bad)


# Per-integral node counts of the panel schedule (seeds, split rule, stop
# rules, GK15 error formula), recorded once; a rewrite of the integrator
# that keeps the schedule reproduces them exactly.  Rows are grid points,
# columns the five contour kinds in ContourKind order, all at tol 1e-8.
_NARROW_NODES = [
    (1080, 1365, 480, 855, 585), (570, 735, 540, 810, 555),
    (510, 600, 420, 555, 510), (765, 600, 705, 465, 525),
    (615, 750, 480, 645, 480), (525, 525, 570, 525, 555),
    (480, 585, 465, 495, 555), (720, 570, 585, 435, 555),
    (660, 555, 645, 495, 495), (765, 825, 480, 540, 525),
    (885, 855, 480, 480, 480), (765, 780, 555, 540, 570),
    (1395, 930, 1050, 495, 495), (660, 1035, 600, 990, 495),
    (675, 1185, 450, 1005, 510), (780, 720, 720, 600, 495),
    (780, 810, 645, 720, 495), (600, 480, 585, 465, 510),
    (645, 810, 465, 705, 525), (465, 450, 465, 420, 555),
    (720, 600, 690, 510, 570), (645, 795, 510, 555, 540),
    (930, 1020, 840, 945, 480), (735, 600, 705, 495, 570),
    (975, 945, 825, 900, 555), (1350, 960, 930, 450, 555),
    (705, 630, 615, 510, 480), (645, 780, 585, 705, 525),
    (705, 600, 660, 585, 510), (495, 480, 480, 450, 510),
    (1155, 735, 990, 675, 480), (450, 435, 450, 420, 540),
    (1200, 1035, 645, 480, 570), (735, 660, 585, 600, 525),
    (630, 645, 495, 495, 480), (855, 750, 555, 495, 345),
    (585, 690, 510, 675, 345), (720, 660, 585, 555, 345),
    (1380, 1065, 840, 450, 345), (735, 690, 480, 450, 345),
]
_WIDE_NODES = [
    (1125, 1320, 645, 930, 705), (975, 1230, 675, 645, 645),
    (1500, 990, 1125, 555, 915), (960, 1560, 510, 1020, 540),
    (585, 750, 435, 510, 480), (1170, 1710, 780, 705, 510),
    (1560, 1905, 705, 855, 945), (870, 1635, 675, 1260, 750),
    (1305, 990, 900, 450, 555), (1095, 765, 660, 615, 705),
    (1185, 975, 660, 660, 525), (1230, 915, 1215, 1065, 780),
    (1350, 1215, 930, 585, 720), (1605, 1170, 900, 450, 645),
    (1470, 960, 1065, 525, 660), (765, 750, 645, 585, 675),
    (870, 1020, 600, 750, 585), (825, 780, 540, 510, 510),
    (1635, 1005, 825, 795, 525), (1710, 1215, 930, 1065, 945),
    (1425, 990, 1080, 675, 885), (750, 765, 735, 630, 780),
    (1485, 1170, 900, 615, 570), (1425, 1440, 1065, 720, 915),
    (1620, 1050, 1095, 450, 810), (660, 660, 615, 705, 735),
    (975, 810, 720, 720, 690), (540, 705, 465, 615, 510),
    (795, 1065, 660, 1020, 495), (1065, 1455, 900, 945, 975),
    (1335, 1095, 720, 810, 705), (1095, 1410, 615, 930, 570),
    (810, 1170, 615, 795, 630), (1335, 1350, 825, 1005, 795),
    (930, 1275, 720, 1170, 345), (825, 1290, 495, 1065, 345),
    (975, 1350, 480, 960, 345), (1470, 1035, 915, 510, 345),
    (885, 750, 675, 570, 345), (1155, 1455, 735, 690, 345),
]
_GREENS_NODES = [1335, 705, 1080, 1545, 1575, 390]
# calls of quadrature._eval_panels over the integrals above: one for the
# seed panels of each, one per bisection round
_EVAL_CALLS = 493
_GREENS_CONFIGS = (
    (0.5, (0, 0, 0.1), (1, 0, 0), (0, 0, 0)),    # through the stationary point
    (-0.5, (0, 0, 0.05), (6, 0, 0), (0, 0, 0)),  # tunnelling: steepest ray
    (-0.2, (0, 0, 0.5), (0.5, 0, 1), (0, 0, 0)),  # fixed rotation
    (0.3, (0, 0, 0), (2, 0, 0), (0, 0, 0)),      # zero field, E > 0
    (-0.3, (0, 0, 0), (1, 1, 0), (0, 0, 0)),     # zero field, E < 0
    (-1.0, (0, 0, 0), (8, 0, 0), (0, 0, 0)),     # zero field, tunnelling
)


def test_panel_schedule_pinned(monkeypatch):
    calls = 0
    real = quadrature._eval_panels

    def eval_panels(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(quadrature, "_eval_panels", eval_panels)
    for (z, z0), pinned in ((shifted_grid(40, 41), _NARROW_NODES),
                            (shifted_grid(40, 42, z_radius=12.0, z0_radius=6.0),
                             _WIDE_NODES)):
        for a, b, want in zip(z, z0, pinned):
            args = ShiftedArgs.make(a, b)
            got = tuple(laplace_integral(build_contour(kind, args), 1e-8).nodes
                        for kind in ContourKind)
            assert got == want, (a, b)
    assert [greens._time_integral(GreensParams.make(*config), 1e-8).nodes
            for config in _GREENS_CONFIGS] == _GREENS_NODES
    # the seed and bisection rounds of all 406 integrals: each round costs
    # a fixed overhead whatever it evaluates
    assert calls == _EVAL_CALLS


# float.hex of (Re value, Im value, abs_err_est) at tol 1e-8, recorded once,
# so that no change moves a contour-route bit, and with it a CLI byte,
# unnoticed.  Rows: the five kinds in ContourKind order at an inner-sector
# and at an outer-sector point, then the _GREENS_CONFIGS time integrals.
# The last bits of exp and log differ between numpy's SIMD targets, so
# one row set is recorded per set of numpy's float64 exp and log loops
# (``_BITS``, keyed by ``float_kernels()``), and the pins hold where
# numpy runs one of them.
_BITS_POINTS = ((1 + 0.5j, 0.3 - 0.2j), (0.7 - 0.4j, -1.1 + 0.3j))
_CONTOUR_BITS = [
    ("0x1.63afdbd454d9ap+3", "-0x1.1606d7bd15c82p-2", "0x1.71e9140bd5cefp-43"),
    ("0x1.0371cbc6f1793p+3", "-0x1.19b9bd51c8a37p+1", "0x1.1524e104ea484p-43"),
    ("-0x1.c8cc7feba32b6p-1", "-0x1.fe7c84652ffadp-1", "0x1.ccdd84f6fec98p-41"),
    ("0x1.ab9089ba284a4p-1", "0x1.67902002f7893p-1", "0x1.71ba422e64d04p-41"),
    ("-0x1.47c1fb983548ep+0", "-0x1.d75b9401c09a7p-3", "0x1.073dc463b4075p-40"),
    ("0x1.58f07e8946756p+1", "-0x1.cee4a3b681a87p-3", "0x1.59e322f11735cp-43"),
    ("-0x1.ccf49d1768a33p+0", "-0x1.d83c90ebe8aecp+1", "0x1.62a9abb784b02p-39"),
    ("0x1.06d3d9688fd71p-1", "-0x1.250bfff48c6edp+0", "0x1.0d26f3fb01b94p-45"),
    ("0x1.602b87816a6acp+0", "0x1.123cd4a56b5bdp-1", "0x1.7d3e8e8ffd8bap-46"),
    ("-0x1.d109ffae69874p+1", "-0x1.c8722319bf0bfp+0", "0x1.ac399b108ef30p-32"),
]
_GREENS_BITS = [
    ("-0x1.b7dc49beafd9ap-2", "0x1.322b10b5e801cp+1", "0x1.b49e08f753292p-29"),
    ("0x1.8ea1a7703364ep-11", "0x1.8ea7919657890p-11", "0x1.b8049d9e66f1bp-38"),
    ("0x1.1041111a28d03p-1", "0x1.3e7bc6f5032f7p-1", "0x1.580157d289a10p-36"),
    ("-0x1.bbd73bc826e4ep-1", "0x1.cf71a11c8a352p-1", "0x1.a3d5518e355eap-32"),
    ("0x1.ad27aad2b6cd7p-2", "0x1.ad27aad2b6cd8p-2", "0x1.2cbec360d2643p-35"),
    ("0x1.6aec1c3960d1dp-19", "0x1.6aec1c3960d1dp-19", "0x1.2fdaa83f9216fp-55"),
]
# The same rows with numpy's X86_V4 and X86_V3 loops switched off
# (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR X86_V3").
_BASELINE_CONTOUR_BITS = [
    ("0x1.63afdbd454d9ap+3", "-0x1.1606d7bd15c8ap-2", "0x1.71e9140bd5cefp-43"),
    ("0x1.0371cbc6f1793p+3", "-0x1.19b9bd51c8a37p+1", "0x1.1524e104ea484p-43"),
    ("-0x1.c8cc7feba32b6p-1", "-0x1.fe7c84652ffadp-1", "0x1.ccdd6c471b23dp-41"),
    ("0x1.ab9089ba284a4p-1", "0x1.67902002f7893p-1", "0x1.71ba3b4c7a198p-41"),
    ("-0x1.47c1fb983548ep+0", "-0x1.d75b9401c099fp-3", "0x1.073dbf56f3a5ap-40"),
    ("0x1.58f07e8946756p+1", "-0x1.cee4a3b681a87p-3", "0x1.59e2d62fffbfcp-43"),
    ("-0x1.ccf49d1768a33p+0", "-0x1.d83c90ebe8aecp+1", "0x1.62a9959cef6efp-39"),
    ("0x1.06d3d9688fd71p-1", "-0x1.250bfff48c6edp+0", "0x1.0d26f3fb01b94p-45"),
    ("0x1.602b87816a6acp+0", "0x1.123cd4a56b5bdp-1", "0x1.7d3e8e8ffd8bap-46"),
    ("-0x1.d109ffae69874p+1", "-0x1.c8722319bf0bep+0", "0x1.ac3999e688077p-32"),
]
_BASELINE_GREENS_BITS = [
    ("-0x1.b7dc49beafd9ap-2", "0x1.322b10b5e801cp+1", "0x1.b49e08f75327bp-29"),
    ("0x1.8ea1a7703364ep-11", "0x1.8ea7919657890p-11", "0x1.b8049d9e67130p-38"),
    ("0x1.1041111a28d03p-1", "0x1.3e7bc6f5032f6p-1", "0x1.580157d2820fap-36"),
    ("-0x1.bbd73bc826e4ep-1", "0x1.cf71a11c8a352p-1", "0x1.a3d5518e355ebp-32"),
    ("0x1.ad27aad2b6cd7p-2", "0x1.ad27aad2b6cd8p-2", "0x1.2cbec360d262dp-35"),
    ("0x1.6aec1c3960d1dp-19", "0x1.6aec1c3960d1dp-19", "0x1.2fdaa8035c1a5p-55"),
]
_BITS = {
    ("2.4", "X86_V4", "X86_V4"): (_CONTOUR_BITS, _GREENS_BITS),
    ("2.4", "baseline(X86_V2)", "baseline(X86_V2)"):
        (_BASELINE_CONTOUR_BITS, _BASELINE_GREENS_BITS),
}


@pytest.mark.skipif(float_kernels() not in _BITS,
                    reason=f"no bits recorded for numpy exp and log loops {float_kernels()}")
def test_contour_route_bits_pinned():
    contour_bits, greens_bits = _BITS[float_kernels()]
    got = []
    for (z, z0), sector in zip(_BITS_POINTS, (Sector.INNER, Sector.OUTER)):
        args = ShiftedArgs.make(z, z0)
        assert args.z0_sector is sector
        got += [bits(laplace_integral(build_contour(kind, args), 1e-8))
                for kind in ContourKind]
    assert got == contour_bits
    assert [bits(greens._time_integral(GreensParams.make(*config), 1e-8))
            for config in _GREENS_CONFIGS] == greens_bits


# SHA-256 of repr((legs, coeffs, power)) over every time-integral path built
# for criterion 6's samples and the seed-7 float64-edge configurations, in
# that order, recorded once.  Every radius comes from ``math``, so the
# digest is the same under numpy's X86_V4 and baseline loops.
_TIME_PATHS_DIGEST = "545c21af9c9b5aae02b68882cf5a7cbe70bce3aff9f3ef4c66bb30367f030763"


def _family(legs, power):
    plane = "t" if power == 1.5 else "u"
    if abs(legs[0].theta) == math.pi / 2.0:
        return plane, "tunnelling"
    return plane, "chord" if isinstance(legs[-1], SegmentLeg) else "rotated"


def test_time_paths_pinned():
    # no quadrature runs: each path is checked and hashed as built
    digest = hashlib.sha256()
    families = collections.Counter()
    samples = (p for _, p in greens_samples(100, 20240907))
    for p in itertools.chain(samples, float64_edges()):
        try:
            legs, coeffs, power = greens._time_path(p)
        except AiryprodError:
            continue
        families[_family(legs, power)] += 1
        digest.update(repr((legs, coeffs, power)).encode())
        # the zero-field decay legs whose span log(r_j / r_min) overflows
        # (separations from 5e-152 to 7e-32) stop at their cap 2 lam, and
        # the chords' tail_radius at E ~ 1e129 is finite
        assert ends_finite(legs) and path_is_connected(legs), p
    assert families == {("t", "chord"): 64, ("t", "rotated"): 67, ("t", "tunnelling"): 12,
                        ("u", "rotated"): 32, ("u", "tunnelling"): 6}
    if float_kernels() not in _BITS:
        pytest.skip(f"no pins recorded for numpy exp and log loops {float_kernels()}")
    assert digest.hexdigest() == _TIME_PATHS_DIGEST
