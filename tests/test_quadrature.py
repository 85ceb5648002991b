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
    res = integrate_legs([leg], _ZERO, -3.0, 1e-12)
    assert res.converged and res.stop == "converged"
    assert abs(res.value - 0.25) <= 1e-12


def test_oscillatory_ray():
    leg = RayLeg(0.0, 0.0, 1.0)
    omega = 80.0
    res = integrate_legs([leg], (omega, 0.0, 0.0), 0.0, 1e-12)
    exact = (cmath.exp(1j * omega) - 1.0) / (1j * omega)
    assert res.converged
    assert abs(res.value - exact) <= 1e-12


def test_closed_circle_residue():
    leg = ArcLeg(1.0, 0.0, 2.0 * math.pi)
    res = integrate_legs([leg], _ZERO, 1.0, 1e-12)
    assert abs(res.value - 2j * math.pi) <= 1e-11


def test_sqrt_singularity_via_decay_leg():
    # int_0^1 k^(-1/2) dk = 2; the angle-tracked root keeps the branch
    leg = DecayLeg(0.0, 1.0, 70.0, outward=True)
    res = integrate_legs([leg], _ZERO, 0.5, 1e-12)
    assert abs(res.value - 2.0) <= 1e-11


def test_non_decaying_decay_leg_raises():
    # e^{1/k} (b = -i) grows without bound toward k = 0 on the positive
    # ray, so the clustered substitution cannot regularize the endpoint; an
    # inward leg is checked at its far end, each on the first round's node
    # next to the inner end
    for outward in (True, False):
        # e^{1/k} at k = e^{-6} is about 1e175: finite, so no usable path
        leg = DecayLeg(0.0, 1.0, 6.0, outward=outward)
        with pytest.raises(DegenerateGeometry, match="does not decay"):
            integrate_legs([leg], (0.0, -1j, 0.0), 0.5, 1e-8)
        # at k = e^{-7} it overflows, which stops the loop like any
        # non-finite value on the path
        leg = DecayLeg(0.0, 1.0, 7.0, outward=outward)
        assert _miss([leg], (0.0, -1j, 0.0), 0.5, 1e-8).stop == "non_finite"
    # the same leg turned to the negative ray, where e^{1/k} decays
    leg = DecayLeg(math.pi, 1.0, 6.0, outward=True)
    assert integrate_legs([leg], (0.0, -1j, 0.0), 0.5, 1e-8).converged


def test_segment_leg_antiderivative():
    # k = |k| e^{i theta} = e^0 k^{-p} with p = -1
    leg = SegmentLeg(1.0 + 0.0j, 1.0 + 2.0j)
    res = integrate_legs([leg], _ZERO, -1.0, 1e-13)
    exact = ((1 + 2j) ** 2 - 1.0) / 2.0
    assert abs(res.value - exact) <= 1e-12


def test_node_ceiling_flags_not_converged():
    # integrable endpoint singularity on a plain linear panelization:
    # splitting gains a fixed small factor per level (2^-0.1 on the end
    # panel), so the stall detector fires before 1000 nodes
    leg = RayLeg(0.0, 0.0, 1.0)
    res = _miss([leg], _ZERO, 0.9, 1e-13)
    assert res.stop == "plateau"
    assert res.nodes < 1000
    assert res.abs_err_est > 0.0


def test_stop_reason_non_finite():
    # e^{1000 k} (a = -1000i) overflows float64 at every node of k in [1, 2],
    # so the first round's check of E stops the loop before any
    # exponential is formed
    leg = RayLeg(0.0, 1.0, 2.0)
    res = _miss([leg], (-1000j, 0.0, 0.0), 0.0, 1e-8)
    assert res.stop == "non_finite"
    assert res.abs_err_est == math.inf
    assert res.nodes == 0


def test_stop_reason_non_finite_after_first_round():
    # E = 0.2/k (b = -0.2i) peaks near Re E = 562 on the first round's
    # node next to k = 0, inside float64, so that round passes its check;
    # the next round's nodes closer to k = 0 overflow e^{E}
    leg = RayLeg(0.0, 0.0, 1.0)
    res = _miss([leg], (0.0, -0.2j, 0.0), 0.0, 1e-8)
    assert res.stop == "non_finite"
    assert res.nodes > 180
    assert res.abs_err_est == math.inf


def test_stop_reason_node_ceiling(monkeypatch):
    # the first round alone (12 panels, 180 nodes) already exceeds a
    # ceiling of 20 and leaves the endpoint singularity unresolved
    monkeypatch.setattr(quadrature, "_MAX_NODES", 20)
    leg = RayLeg(0.0, 0.0, 1.0)
    res = _miss([leg], _ZERO, 0.9, 1e-12)
    assert res.stop == "node_ceiling"
    assert res.nodes == 180


def test_stop_reason_plateau():
    # 1e-17 lies below the 4e-16 relative panel floor of a smooth integrand,
    # here e^k (a = -i), so splitting cannot reduce the estimate
    leg = RayLeg(0.0, 0.0, 1.0)
    res = _miss([leg], (-1j, 0.0, 0.0), 0.0, 1e-17)
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


def test_split_sized_by_variation(monkeypatch):
    # e^{400 i k} on k in [0, 1]: each of the 12 first-round panels spans
    # about 33 rad of phase, so each splits into the capped 8 children at
    # once, and the second round converges; halving would take two more
    # rounds, which the same integral with the cap at 2 shows
    rounds = []
    real = quadrature._eval_panels

    def eval_panels(t0, t1, g):
        rounds.append(len(t0))
        return real(t0, t1, g)

    monkeypatch.setattr(quadrature, "_eval_panels", eval_panels)
    leg = RayLeg(0.0, 0.0, 1.0)
    exact = (cmath.exp(400j) - 1.0) / 400j
    res = integrate_legs([leg], (400.0, 0.0, 0.0), 0.0, 1e-12)
    assert rounds == [12, 12 * 8] and res.nodes == 15 * 12 * 9
    assert abs(res.value - exact) <= 1e-12
    rounds.clear()
    monkeypatch.setattr(quadrature, "_MAX_CHILDREN", 2)
    res = integrate_legs([leg], (400.0, 0.0, 0.0), 0.0, 1e-12)
    assert rounds == [12, 24, 48, 96] and res.nodes == 15 * 180
    assert abs(res.value - exact) <= 1e-12


def test_legs_share_one_integrand_call_per_round(monkeypatch):
    # three k^(-1/2) endpoint legs on the rays at 0, pi/2 and pi: the first
    # round and each later round make one exponent call, covering every
    # leg with panels to evaluate.  The weight's ramp of 60 e-folds over
    # 12 even panels leaves each leg's inner panel short of its share, so
    # a second round follows the first on all three legs.
    angles = (0.0, 0.5 * math.pi, math.pi)
    legs = [DecayLeg(th, 1.0, 120.0, outward=True) for th in angles]
    calls = []
    real = quadrature.exponent

    def exponent(coeffs, k):
        calls.append(k)
        return real(coeffs, k)

    monkeypatch.setattr(quadrature, "exponent", exponent)
    res = integrate_legs(legs, _ZERO, 0.5, 1e-13)
    assert res.converged
    assert calls[0].size == 3 * 12 * 15
    assert len(calls) > 1 and sum(k.size for k in calls) == res.nodes
    assert len(np.unique(np.round(np.angle(calls[1]), 6))) == 3
    exact = sum(2.0 * cmath.exp(0.5j * th) for th in angles)
    assert abs(res.value - exact) <= 1e-12


# paths of 1 to 4 legs that mix all four leg types, as (legs, coeffs, power),
# and two built ones: a contour and the time integral's chord family
_R_PLUS = build_contour(ContourKind.R_PLUS, ShiftedArgs.make(1 + 0.5j, 0.3 - 0.2j))
_FIRST_ROUND_PATHS = {
    "segment": ([SegmentLeg(0.2 + 0.1j, 1.5 - 0.3j)], (1.3 + 0.2j, 0.0, 0.7), 0.5),
    "decay-ray": ([DecayLeg(0.3, 1.2, 12.0), RayLeg(0.3, 1.2, 3.0)], (1.3 + 0.2j, 0.0, 0.7), 0.5),
    "ray-arc-decay": ([RayLeg(0.5, 2.0, 1.0), ArcLeg(1.0, 0.5, -0.5),
                       DecayLeg(-0.5, 1.0, 10.0, outward=False)], (-0.4, 0.0, 1.0), 0.5),
    "decay-arc-ray-segment": ([DecayLeg(-0.4, 0.8, 14.0), ArcLeg(0.8, -0.4, 0.0),
                               RayLeg(0.0, 0.8, 2.0), SegmentLeg(2.0, 2.5 + 1.0j)],
                              (1.3 + 0.2j, 0.0, 0.7), 0.5),
    "contour-R+": (_R_PLUS.segments, _R_PLUS.coeffs, 0.5),
    "time-chord": greens._time_path(GreensParams.make(0.5, (0, 0, 0.1), (1, 0, 0), (0, 0, 0))),
}


@pytest.mark.parametrize("name", _FIRST_ROUND_PATHS)
def test_first_round_matches_general_path(name):
    # the first round reads its panels and nodes from constant tables;
    # (leg, t0, t1, g) must equal, bit for bit, what the general path of
    # the later rounds gives on the even panels of _START_EDGES on each leg
    legs, coeffs, power = _FIRST_ROUND_PATHS[name]
    n, edges = len(legs), quadrature._START_EDGES
    leg = np.arange(n).repeat(len(edges) - 1)
    t0, t1 = np.tile(edges[:-1], n), np.tile(edges[1:], n)
    with np.errstate(all="ignore"):
        got = quadrature._first_round(legs, coeffs, power)
        g = quadrature._log_integrand(legs, coeffs, power, leg, t0, t1)
    for a, want in zip(got, (leg, t0, t1, g)):
        assert a.shape == want.shape and a.dtype == want.dtype
        assert a.tobytes() == want.tobytes()
    # the tables are shared by every call, so none of them can be written
    assert not any(a.flags.writeable for a in got[:3])


def _plant(monkeypatch, row, node, value):
    """Wrap ``quadrature.exponent`` so that its first call, the first
    round's, returns ``value`` at one node: (row, node) of its panels."""
    real = quadrature.exponent
    calls = []

    def exponent(coeffs, k):
        ex = real(coeffs, k)
        if not calls:
            ex = ex.copy()
            ex[row, node] = value(ex[row, node])
        calls.append(k.shape)
        return ex

    monkeypatch.setattr(quadrature, "exponent", exponent)
    return calls


@pytest.mark.parametrize("row, node, value", [
    (17, 4, lambda e: complex(e.real, math.nan)),   # NaN in Im E only
    (17, 4, lambda e: complex(math.nan, e.imag)),   # NaN in Re E only
    (-3, 9, lambda e: complex(710.0, e.imag)),      # Re E = 710 on the last leg
])
def test_first_round_stops_on_one_planted_value(monkeypatch, row, node, value):
    # one value of E on one node of the first round that e^{E} cannot
    # hold stops the integral as non_finite before any exponential
    legs, coeffs, power = _FIRST_ROUND_PATHS["contour-R+"]
    calls = _plant(monkeypatch, row, node, value)
    res = _miss(legs, coeffs, power, 1e-8)
    assert (res.stop, res.nodes, res.abs_err_est) == ("non_finite", 0, math.inf)
    assert calls == [(36, 15)]


@pytest.mark.parametrize("outward", [True, False])
def test_first_round_nan_in_decay_row_is_not_degenerate(monkeypatch, outward):
    # the leg of test_non_decaying_decay_leg_raises, which raises
    # DegenerateGeometry; a NaN in Re E on one of its middle nodes makes
    # every comparison of the decay check false, and the integral stops
    # as non_finite instead
    leg = DecayLeg(0.0, 1.0, 6.0, outward=outward)
    _plant(monkeypatch, 5, 7, lambda e: complex(math.nan, e.imag))
    res = _miss([leg], (0.0, -1j, 0.0), 0.5, 1e-8)
    assert (res.stop, res.nodes) == ("non_finite", 0)


@pytest.mark.parametrize("count", [0, 5])
def test_leg_count_outside_first_round_tables(count):
    # the first round's constant tables hold 1 to 4 legs; another count is
    # a ValueError that names the limit, from integrate_legs and from
    # check_reach, which reads the same round
    legs = [RayLeg(0.0, float(j), float(j + 1)) for j in range(count)]
    with pytest.raises(ValueError, match=f"1 to 4 legs, not {count}"):
        integrate_legs(legs, _ZERO, 0.0, 1e-12)
    with pytest.raises(ValueError, match=f"1 to 4 legs, not {count}"):
        quadrature.check_reach(2.0, 1.0, legs, _ZERO, 0.0)


def test_path_connectivity_helper():
    good = [RayLeg(0.5, 2.0, 1.0), ArcLeg(1.0, 0.5, -0.5), RayLeg(-0.5, 1.0, 2.0)]
    assert path_is_connected(good)
    bad = [RayLeg(0.5, 2.0, 1.0), ArcLeg(1.0, 0.4, -0.5)]
    assert not path_is_connected(bad)


# Per-integral node counts of the panel schedule (first round, split rule,
# stop rules, GK15 error formula), recorded once; a rewrite of the integrator
# that keeps the schedule reproduces them exactly.  Rows are grid points,
# columns the five contour kinds in ContourKind order, all at tol 1e-8.
_NARROW_NODES = [
    (540, 765, 570, 540, 540), (540, 540, 540, 540, 540),
    (540, 540, 540, 540, 540), (540, 540, 540, 540, 540),
    (540, 540, 540, 600, 540), (540, 540, 540, 540, 540),
    (540, 540, 540, 540, 540), (540, 540, 570, 540, 540),
    (540, 540, 540, 540, 540), (540, 540, 540, 540, 540),
    (660, 660, 540, 540, 540), (540, 540, 540, 570, 540),
    (540, 540, 540, 540, 540), (540, 540, 540, 540, 540),
    (540, 540, 540, 735, 540), (600, 540, 570, 570, 540),
    (540, 570, 600, 540, 540), (540, 540, 540, 540, 540),
    (540, 600, 540, 540, 540), (540, 540, 540, 540, 540),
    (540, 540, 540, 540, 540), (540, 540, 540, 540, 540),
    (540, 840, 600, 750, 540), (540, 540, 540, 540, 540),
    (540, 825, 570, 795, 540), (540, 540, 630, 540, 540),
    (600, 600, 540, 540, 540), (540, 600, 540, 540, 540),
    (540, 540, 540, 540, 540), (540, 540, 540, 540, 540),
    (885, 540, 765, 630, 540), (540, 540, 540, 540, 540),
    (540, 540, 540, 540, 540), (540, 540, 540, 540, 540),
    (540, 540, 600, 600, 600), (540, 540, 570, 570, 540),
    (540, 540, 600, 600, 540), (540, 540, 600, 570, 540),
    (540, 540, 630, 600, 540), (540, 540, 570, 570, 540),
]
_WIDE_NODES = [
    (540, 540, 600, 795, 540), (540, 540, 540, 585, 540),
    (795, 795, 870, 600, 540), (540, 1215, 630, 945, 540),
    (540, 540, 540, 540, 540), (540, 540, 540, 690, 540),
    (1095, 1095, 615, 780, 540), (540, 1020, 615, 960, 645),
    (660, 540, 690, 540, 540), (540, 540, 540, 540, 540),
    (540, 540, 615, 540, 540), (960, 540, 960, 750, 540),
    (720, 540, 720, 585, 540), (1200, 960, 780, 540, 540),
    (1110, 540, 960, 585, 540), (540, 540, 540, 540, 540),
    (540, 540, 585, 675, 540), (600, 600, 540, 540, 540),
    (540, 540, 720, 540, 540), (540, 540, 735, 540, 540),
    (915, 540, 960, 645, 960), (540, 540, 585, 540, 540),
    (750, 750, 840, 600, 540), (540, 540, 540, 615, 540),
    (930, 1020, 1020, 540, 540), (540, 540, 570, 570, 540),
    (540, 540, 540, 585, 540), (540, 540, 540, 540, 540),
    (540, 885, 600, 810, 540), (540, 540, 600, 765, 915),
    (540, 540, 600, 540, 540), (540, 540, 630, 810, 540),
    (540, 540, 540, 585, 540), (540, 540, 600, 540, 540),
    (540, 930, 795, 990, 540), (540, 840, 600, 840, 540),
    (540, 810, 600, 840, 540), (1005, 540, 855, 645, 540),
    (540, 540, 600, 600, 540), (540, 540, 540, 675, 540),
]
_GREENS_NODES = [945, 720, 630, 900, 720, 360]
# calls of quadrature._eval_panels over the integrals above: one for the
# first round of each, one per later round
_EVAL_CALLS = 568
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
    # the rounds of all 406 integrals: each round costs a fixed overhead
    # whatever it evaluates
    assert calls == _EVAL_CALLS


# float.hex of (Re value, Im value, abs_err_est) at tol 1e-8, recorded once,
# so that no change moves a contour-route bit, and with it a CLI byte,
# unnoticed.  Rows: the five kinds in ContourKind order at an inner-sector
# and at an outer-sector point, then the _GREENS_CONFIGS time integrals.
# The last bits of exp and log differ between numpy's X86_V4 and X86_V3
# loops, and the baseline loops also round complex multiply and absolute
# value differently, so one row set is recorded per loop set (``_BITS``,
# keyed by ``float_kernels()``), and the pins hold where numpy runs one
# of them.
_BITS_POINTS = ((1 + 0.5j, 0.3 - 0.2j), (0.7 - 0.4j, -1.1 + 0.3j))
_CONTOUR_BITS = [
    ("0x1.63afdbd454d9ap+3", "-0x1.1606d7bd15c86p-2", "0x1.646cdf8ebcf32p-43"),
    ("0x1.0371cbc6f1794p+3", "-0x1.19b9bd51c8a38p+1", "0x1.0e02e9f294d35p-43"),
    ("-0x1.c8cc7feba32b7p-1", "-0x1.fe7c84652ffaep-1", "0x1.54a48a2c2c7a7p-43"),
    ("0x1.ab9089ba284a5p-1", "0x1.67902002f7894p-1", "0x1.543274e5e63bep-43"),
    ("-0x1.47c1fb983548ap+0", "-0x1.d75b9401c0999p-3", "0x1.5e896f149f902p-44"),
    ("0x1.58f07e8946756p+1", "-0x1.cee4a3b681a88p-3", "0x1.7fa19a8b7f0f4p-45"),
    ("-0x1.ccf49d1768a33p+0", "-0x1.d83c90ebe8aeap+1", "0x1.30255125993fap-44"),
    ("0x1.06d3d9688fd70p-1", "-0x1.250bfff48c6ecp+0", "0x1.03f17d58ba6fbp-45"),
    ("0x1.602b87816a6abp+0", "0x1.123cd4a56b5bep-1", "0x1.86f4e655a5fd5p-46"),
    ("-0x1.d109ffae69875p+1", "-0x1.c8722319bf0bep+0", "0x1.f9263198d69b4p-44"),
]
_GREENS_BITS = [
    ("-0x1.b7dc49beafd8bp-2", "0x1.322b10b5e801bp+1", "0x1.6dd55800ad279p-32"),
    ("0x1.8ea1a7703364fp-11", "0x1.8ea7919657890p-11", "0x1.11ac2cd8c40f2p-56"),
    ("0x1.1041111a28d0ap-1", "0x1.3e7bc6f5032f8p-1", "0x1.7825b599d67e3p-33"),
    ("-0x1.bbd73bc826e4dp-1", "0x1.cf71a11c8a352p-1", "0x1.4851a94d5ced9p-30"),
    ("0x1.ad27aad2b6cd9p-2", "0x1.ad27aad2b6cd7p-2", "0x1.3960f9fa968e5p-32"),
    ("0x1.6aec1c3960d1dp-19", "0x1.6aec1c3960d1cp-19", "0x1.e44b5f9febd9ap-52"),
]
# The same rows with numpy's X86_V4 and X86_V3 loops switched off
# (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR X86_V3").
_BASELINE_CONTOUR_BITS = [
    ("0x1.63afdbd454d9ap+3", "-0x1.1606d7bd15c8ap-2", "0x1.646cdf8ebcf32p-43"),
    ("0x1.0371cbc6f1794p+3", "-0x1.19b9bd51c8a38p+1", "0x1.0e02e9f294d36p-43"),
    ("-0x1.c8cc7feba32b6p-1", "-0x1.fe7c84652ffaep-1", "0x1.54a4f8eed50eap-43"),
    ("0x1.ab9089ba284a5p-1", "0x1.67902002f7894p-1", "0x1.5432708108334p-43"),
    ("-0x1.47c1fb983548ap+0", "-0x1.d75b9401c0995p-3", "0x1.5e896f149f902p-44"),
    ("0x1.58f07e8946756p+1", "-0x1.cee4a3b681a88p-3", "0x1.7fa19a8b7f0f4p-45"),
    ("-0x1.ccf49d1768a33p+0", "-0x1.d83c90ebe8aeap+1", "0x1.30255125993fap-44"),
    ("0x1.06d3d9688fd71p-1", "-0x1.250bfff48c6ecp+0", "0x1.03f17d58ba6fbp-45"),
    ("0x1.602b87816a6abp+0", "0x1.123cd4a56b5bep-1", "0x1.86f4e655a5fd5p-46"),
    ("-0x1.d109ffae69874p+1", "-0x1.c8722319bf0bep+0", "0x1.f9263198d69b4p-44"),
]
_BASELINE_GREENS_BITS = [
    ("-0x1.b7dc49beafd8bp-2", "0x1.322b10b5e801bp+1", "0x1.6dd558108c823p-32"),
    ("0x1.8ea1a7703364fp-11", "0x1.8ea7919657890p-11", "0x1.11ac2cd8c40f2p-56"),
    ("0x1.1041111a28d0ap-1", "0x1.3e7bc6f5032f8p-1", "0x1.7825b5b070994p-33"),
    ("-0x1.bbd73bc826e4dp-1", "0x1.cf71a11c8a352p-1", "0x1.4851a94d33f5fp-30"),
    ("0x1.ad27aad2b6cd9p-2", "0x1.ad27aad2b6cd7p-2", "0x1.3960f9fa96906p-32"),
    ("0x1.6aec1c3960d1dp-19", "0x1.6aec1c3960d1cp-19", "0x1.e44b5f9febc62p-52"),
]
# The same rows with only numpy's X86_V4 loops switched off
# (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"), as on a host
# without AVX-512.
_V3_CONTOUR_BITS = [
    ("0x1.63afdbd454d9ap+3", "-0x1.1606d7bd15c86p-2", "0x1.646cdf8ebcf32p-43"),
    ("0x1.0371cbc6f1794p+3", "-0x1.19b9bd51c8a38p+1", "0x1.0e02e9f294d35p-43"),
    ("-0x1.c8cc7feba32b7p-1", "-0x1.fe7c84652ffaep-1", "0x1.54a48a2f7fc06p-43"),
    ("0x1.ab9089ba284a5p-1", "0x1.67902002f7894p-1", "0x1.543274e5f9ac8p-43"),
    ("-0x1.47c1fb983548ap+0", "-0x1.d75b9401c0995p-3", "0x1.5e896f149f902p-44"),
    ("0x1.58f07e8946756p+1", "-0x1.cee4a3b681a88p-3", "0x1.7fa19a8b7f0f4p-45"),
    ("-0x1.ccf49d1768a33p+0", "-0x1.d83c90ebe8aeap+1", "0x1.30255125993fap-44"),
    ("0x1.06d3d9688fd70p-1", "-0x1.250bfff48c6ecp+0", "0x1.03f17d58ba6fbp-45"),
    ("0x1.602b87816a6abp+0", "0x1.123cd4a56b5bep-1", "0x1.86f4e655a5fd5p-46"),
    ("-0x1.d109ffae69875p+1", "-0x1.c8722319bf0bep+0", "0x1.f9263198d69b4p-44"),
]
_V3_GREENS_BITS = [
    ("-0x1.b7dc49beafd8bp-2", "0x1.322b10b5e801bp+1", "0x1.6dd558108bff1p-32"),
    ("0x1.8ea1a7703364fp-11", "0x1.8ea7919657890p-11", "0x1.11ac2cd8c40f2p-56"),
    ("0x1.1041111a28d0ap-1", "0x1.3e7bc6f5032f8p-1", "0x1.7825b57bf330ap-33"),
    ("-0x1.bbd73bc826e4dp-1", "0x1.cf71a11c8a352p-1", "0x1.4851a94d33f5fp-30"),
    ("0x1.ad27aad2b6cd9p-2", "0x1.ad27aad2b6cd7p-2", "0x1.3960f9fa96906p-32"),
    ("0x1.6aec1c3960d1dp-19", "0x1.6aec1c3960d1cp-19", "0x1.e44b5f9febc62p-52"),
]
_BITS = {
    ("2.4", "X86_V4", "X86_V4"): (_CONTOUR_BITS, _GREENS_BITS),
    ("2.4", "X86_V3", "X86_V3"): (_V3_CONTOUR_BITS, _V3_GREENS_BITS),
    ("2.4", "baseline(X86_V2)", "baseline(X86_V2)"):
        (_BASELINE_CONTOUR_BITS, _BASELINE_GREENS_BITS),
}


@pytest.mark.skipif(float_kernels() not in _BITS,
                    reason=f"no bits recorded for numpy loops {float_kernels()}")
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
# digest does not depend on numpy's SIMD loops (it is the same
# under X86_V4, X86_V3 and the baseline loops); only another numpy minor
# version may print a leg differently.
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
    if np.__version__.rsplit(".", 1)[0] != "2.4":
        pytest.skip(f"no time-path digest recorded for numpy {np.__version__}")
    assert digest.hexdigest() == _TIME_PATHS_DIGEST


# SHA-256 of repr(build_contour(kind, ShiftedArgs.make(z, z0))) for the five
# kinds, in ContourKind order, over shifted_grid(200, 41), shifted_grid(200,
# 42, 12, 6) and _BITS_POINTS, in that order, recorded once.  The turn
# radius is chosen from numpy's ``exponent`` on the arc sweep, yet the
# digest is the same under X86_V4, X86_V3 and the baseline loops; another
# numpy minor version may print a leg differently.
_CONTOUR_PATHS_DIGEST = "87e68c414322e9d179ee7ef3da2a7a4abb2811960aa2461537ae8e1080cb2bf6"


def test_contour_paths_pinned():
    # no quadrature runs: each path is hashed as built
    digest = hashlib.sha256()
    points = itertools.chain(zip(*shifted_grid(200, 41)),
                             zip(*shifted_grid(200, 42, z_radius=12.0, z0_radius=6.0)),
                             _BITS_POINTS)
    for z, z0 in points:
        args = ShiftedArgs.make(z, z0)
        for kind in ContourKind:
            digest.update(repr(build_contour(kind, args)).encode())
    if np.__version__.rsplit(".", 1)[0] != "2.4":
        pytest.skip(f"no contour-path digest recorded for numpy {np.__version__}")
    assert digest.hexdigest() == _CONTOUR_PATHS_DIGEST
