"""Panel integrator tests: integrals with elementary closed forms, the
reason the adaptive loop stops, and the pinned panel schedule."""

import cmath
import math

import numpy as np

from airyprod import ContourKind, ShiftedArgs, build_contour, greens, laplace_integral
from airyprod.greens import GreensParams
from airyprod.grids import shifted_grid
from airyprod.quadrature import (
    ArcLeg,
    DecayLeg,
    RayLeg,
    SegmentLeg,
    integrate_legs,
    path_is_connected,
)


def test_polynomial_on_ray():
    leg = RayLeg(0.0, 0.0, 1.0)
    res = integrate_legs([leg], lambda k, th: k ** 3, 1e-12, 50_000)
    assert res.converged and res.stop == "converged"
    assert abs(res.value - 0.25) <= 1e-12


def test_oscillatory_ray():
    leg = RayLeg(0.0, 0.0, 1.0)
    omega = 80.0
    res = integrate_legs([leg], lambda k, th: np.exp(1j * omega * k), 1e-12, 200_000,
                         integrand_exponent=lambda k: 1j * omega * k)
    exact = (cmath.exp(1j * omega) - 1.0) / (1j * omega)
    assert res.converged
    assert abs(res.value - exact) <= 1e-12


def test_closed_circle_residue():
    leg = ArcLeg(1.0, 0.0, 2.0 * math.pi)
    res = integrate_legs([leg], lambda k, th: 1.0 / k, 1e-12, 50_000)
    assert abs(res.value - 2j * math.pi) <= 1e-11


def test_sqrt_singularity_via_decay_leg():
    # int_0^1 k^(-1/2) dk = 2; the angle-tracked root keeps the branch
    leg = DecayLeg(0.0, 1.0, 70.0, outward=True)
    res = integrate_legs([leg], lambda k, th: np.abs(k) ** -0.5 * np.exp(-0.5j * th),
                         1e-12, 50_000)
    assert abs(res.value - 2.0) <= 1e-11


def test_segment_leg_antiderivative():
    leg = SegmentLeg(1.0 + 0.0j, 1.0 + 2.0j)
    res = integrate_legs([leg], lambda k, th: k, 1e-13, 50_000)
    exact = ((1 + 2j) ** 2 - 1.0) / 2.0
    assert abs(res.value - exact) <= 1e-12


def test_node_ceiling_flags_not_converged():
    # integrable endpoint singularity on a plain linear panelization:
    # bisection gains a fixed small factor per level (2^-0.1 on the end
    # panel), so the stall detector fires below the 400-node ceiling
    leg = RayLeg(0.0, 0.0, 1.0)
    res = integrate_legs([leg], lambda k, th: np.abs(k) ** -0.9, 1e-13, 400)
    assert not res.converged
    assert res.stop == "plateau"
    assert res.nodes < 400
    assert res.abs_err_est > 0.0


def test_stop_reason_non_finite():
    leg = RayLeg(0.0, 0.0, 1.0)
    res = integrate_legs([leg], lambda k, th: np.full(k.shape, np.nan + 0j), 1e-8, 50_000)
    assert res.stop == "non_finite"
    assert not res.converged
    assert res.abs_err_est == math.inf


def test_stop_reason_node_ceiling():
    # the seed pass alone (8 panels, 120 nodes) already exceeds the ceiling
    leg = RayLeg(0.0, 0.0, 1.0)
    res = integrate_legs([leg], lambda k, th: np.exp(80j * k), 1e-12, 100)
    assert res.stop == "node_ceiling"
    assert not res.converged
    assert res.nodes == 120


def test_stop_reason_plateau():
    # 1e-17 lies below the 4e-16 relative panel floor of a smooth integrand,
    # so bisection cannot reduce the estimate
    leg = RayLeg(0.0, 0.0, 1.0)
    res = integrate_legs([leg], lambda k, th: np.exp(k), 1e-17, 10 ** 6)
    assert res.stop == "plateau"
    assert not res.converged
    assert abs(res.value - (math.e - 1.0)) <= 1e-15


def test_legs_share_one_integrand_call_per_round():
    # three legs along [0, 3]: the seed pass and each bisection round make
    # one integrand call, covering every leg with panels to evaluate
    legs = [RayLeg(0.0, 0.0, 1.0), RayLeg(0.0, 1.0, 2.0), RayLeg(0.0, 2.0, 3.0)]
    calls = []

    def integrand(k, th):
        calls.append(k.real)
        return np.exp(30j * k)

    res = integrate_legs(legs, integrand, 1e-13, 50_000)
    assert res.converged
    assert len(calls[0]) == 3 * 8 * 15
    assert len(calls) > 1 and sum(len(k) for k in calls) == res.nodes
    assert calls[1].min() < 1.0 and calls[1].max() > 2.0
    exact = (cmath.exp(90j) - 1.0) / 30j
    assert abs(res.value - exact) <= 1e-13


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
    (1080, 1335, 465, 855, 540), (555, 705, 540, 795, 510),
    (495, 600, 405, 525, 465), (750, 585, 690, 465, 495),
    (585, 750, 465, 615, 435), (510, 525, 540, 525, 510),
    (465, 570, 450, 495, 525), (720, 570, 555, 450, 510),
    (645, 540, 615, 495, 450), (750, 795, 480, 540, 480),
    (855, 855, 450, 465, 450), (735, 780, 555, 525, 540),
    (1380, 930, 1035, 495, 465), (645, 1020, 585, 960, 465),
    (660, 1155, 450, 1005, 465), (765, 720, 705, 585, 450),
    (780, 810, 630, 735, 450), (585, 450, 570, 450, 480),
    (645, 810, 465, 705, 480), (450, 435, 510, 405, 720),
    (705, 585, 690, 495, 540), (645, 795, 480, 555, 495),
    (945, 1020, 810, 960, 450), (735, 585, 690, 510, 540),
    (960, 1020, 855, 960, 510), (1365, 960, 915, 435, 510),
    (720, 630, 600, 495, 435), (645, 765, 540, 705, 480),
    (690, 600, 660, 555, 480), (480, 465, 465, 435, 465),
    (1140, 735, 990, 660, 480), (435, 420, 555, 465, 645),
    (1170, 1020, 630, 465, 540), (720, 645, 585, 570, 480),
    (600, 630, 465, 435, 435), (840, 750, 540, 435, 210),
    (570, 675, 450, 600, 210), (705, 645, 570, 480, 210),
    (1350, 1050, 810, 375, 210), (720, 675, 435, 420, 210),
]
_WIDE_NODES = [
    (1125, 1335, 645, 915, 660), (990, 1230, 675, 630, 600),
    (1545, 990, 1155, 540, 870), (945, 1545, 495, 1035, 510),
    (570, 750, 405, 510, 480), (1185, 1710, 765, 705, 465),
    (1590, 1890, 690, 855, 900), (870, 1605, 660, 1245, 720),
    (1350, 1020, 885, 435, 525), (1080, 750, 645, 600, 660),
    (1185, 975, 645, 675, 480), (1215, 915, 1200, 1035, 750),
    (1380, 1215, 945, 570, 690), (1590, 1155, 900, 450, 600),
    (1455, 960, 1065, 510, 630), (750, 750, 630, 570, 630),
    (870, 990, 600, 750, 555), (795, 765, 540, 495, 465),
    (1635, 1005, 825, 780, 480), (1725, 1215, 960, 1050, 900),
    (1395, 1020, 1065, 660, 840), (735, 750, 735, 615, 750),
    (1500, 1185, 900, 615, 525), (1440, 1440, 1005, 750, 870),
    (1605, 1035, 1095, 450, 780), (645, 645, 600, 690, 690),
    (960, 825, 720, 705, 645), (540, 675, 450, 600, 465),
    (780, 1050, 630, 1020, 495), (1050, 1455, 870, 945, 945),
    (1335, 1095, 720, 795, 660), (1080, 1395, 600, 915, 525),
    (795, 1170, 600, 765, 600), (1335, 1365, 810, 1005, 765),
    (915, 1260, 660, 1110, 210), (810, 1290, 450, 990, 210),
    (960, 1335, 420, 900, 210), (1455, 1020, 870, 435, 210),
    (870, 735, 630, 525, 210), (1140, 1455, 600, 585, 210),
]
_GREENS_NODES = [1380, 675, 1095, 1680, 1605, 390]
_GREENS_CONFIGS = (
    (0.5, (0, 0, 0.1), (1, 0, 0), (0, 0, 0)),    # through the stationary point
    (-0.5, (0, 0, 0.05), (6, 0, 0), (0, 0, 0)),  # tunnelling: steepest ray
    (-0.2, (0, 0, 0.5), (0.5, 0, 1), (0, 0, 0)),  # fixed rotation
    (0.3, (0, 0, 0), (2, 0, 0), (0, 0, 0)),      # zero field, E > 0
    (-0.3, (0, 0, 0), (1, 1, 0), (0, 0, 0)),     # zero field, E < 0
    (-1.0, (0, 0, 0), (8, 0, 0), (0, 0, 0)),     # zero field, tunnelling
)


def test_panel_schedule_pinned(monkeypatch):
    for (z, z0), pinned in ((shifted_grid(40, 41), _NARROW_NODES),
                            (shifted_grid(40, 42, z_radius=12.0, z0_radius=6.0),
                             _WIDE_NODES)):
        for a, b, want in zip(z, z0, pinned):
            args = ShiftedArgs.make(a, b)
            got = tuple(laplace_integral(build_contour(kind, args), args, 1e-8).nodes
                        for kind in ContourKind)
            assert got == want, (a, b)

    results = []
    real = greens.integrate_legs

    def recording(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(greens, "integrate_legs", recording)
    for config in _GREENS_CONFIGS:
        greens.greens_time_integral(GreensParams.make(*config), 1e-8)
    assert [r.nodes for r in results] == _GREENS_NODES


def test_greens_legs_connected(monkeypatch):
    legs = []
    real = greens.integrate_legs

    def recording(path, *args, **kwargs):
        legs.append(path)
        return real(path, *args, **kwargs)

    monkeypatch.setattr(greens, "integrate_legs", recording)
    for config in _GREENS_CONFIGS:
        greens.greens_time_integral(GreensParams.make(*config), 1e-8)
    assert len(legs) == len(_GREENS_CONFIGS)
    assert all(path_is_connected(path) for path in legs)
