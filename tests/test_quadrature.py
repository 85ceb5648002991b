"""Panel integrator tests: integrals with elementary closed forms, the
reason the adaptive loop stops, and the pinned panel schedule."""

import cmath
import collections
from functools import partial
import hashlib
import importlib
import inspect
import itertools
import math
import pkgutil
import re
from unittest import mock

import numpy as np
import pytest

import airyprod
from airyprod import (ContourKind, aiai_real, build_contour, difference_identity, greens,
                      greens_time_integral, laplace_integral, product, quadrature, u_pm, w_pm,
                      w_pm_real)
from airyprod.errors import AiryprodError, DegenerateGeometry, ToleranceNotMet
from airyprod.greens import GreensParams
from airyprod.grids import greens_samples, shifted_grid
from airyprod.quadrature import (
    TAIL_LAMBDA,
    ArcLeg,
    DecayLeg,
    OriginLeg,
    RayLeg,
    SegmentLeg,
    integrate_legs,
    tail_radius,
)
from pathcheck import (assert_pinned, ends_finite, float64_edges, integral_row, path_integrals,
                       path_is_connected)


# (a, b, c) of the exponent E(k) = i(a k + b/k + c k^3/12)
_ZERO = (0.0, 0.0, 0.0)


def _spy(monkeypatch, name):
    """A wrapper around ``quadrature.<name>`` that records each call."""
    spy = mock.Mock(wraps=getattr(quadrature, name))
    monkeypatch.setattr(quadrature, name, spy)
    return spy


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
    # e^{ik} (a = 1) over about 16 periods at the tightest tol the gate
    # accepts: rounding keeps the GK15 estimate above the target 1e-14, so
    # splitting stops reducing it; the value still lies within 1e-14 and
    # within the reported estimate, the rounding floor 50 eps * 100
    leg = RayLeg(0.0, 0.0, 100.0)
    res = _miss([leg], (1.0, 0.0, 0.0), 0.0, 1e-14)
    assert res.stop == "plateau"
    err = abs(res.value - (cmath.exp(100j) - 1.0) / 1j)
    assert err <= 1e-14 and err <= res.abs_err_est


@pytest.mark.parametrize("tol", [1e-15, 1e-3, math.nan, 1.0, 1e6, math.inf])
@pytest.mark.parametrize("integral", [
    partial(integrate_legs, [RayLeg(0.0, 0.0, 1.0)], _ZERO, 0.0), *path_integrals()],
    ids=["integrate_legs", "laplace_integral", "greens_time_integral"])
def test_tol_outside_range_rejected(monkeypatch, integral, tol):
    # integrate_legs is the one gate of every path integral: below 1e-14 the
    # target nears the rounding floor, above 1e-4 the first round alone
    # would pass for converged, and NaN fails every comparison; it raises
    # before its first round maps a node
    spy = _spy(monkeypatch, "exponent")
    with pytest.raises(ValueError, match=r"^tol must lie in \[1e-14, 1e-04\]$"):
        integral(tol)
    spy.assert_not_called()


@pytest.mark.parametrize("fn", [laplace_integral, greens_time_integral, u_pm, w_pm, product,
                                difference_identity, w_pm_real, aiai_real],
                         ids=lambda fn: fn.__name__)
def test_every_entry_defaults_to_one_tol(fn):
    # the same object, so that a re-typed 1e-10 literal fails
    assert inspect.signature(fn).parameters["tol"].default is quadrature.DEFAULT_TOL


def test_module_arrays_read_only():
    # every integral shares the module-level tables, so a stray write
    # would corrupt all of them
    writable = []
    for info in pkgutil.iter_modules(airyprod.__path__):
        module = importlib.import_module(f"airyprod.{info.name}")
        writable += [f"{info.name}.{name}" for name, value in vars(module).items()
                     if isinstance(value, np.ndarray) and value.flags.writeable]
    assert writable == []


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
    spy = _spy(monkeypatch, "_eval_panels")
    leg = RayLeg(0.0, 0.0, 1.0)
    exact = (cmath.exp(400j) - 1.0) / 400j
    res = integrate_legs([leg], (400.0, 0.0, 0.0), 0.0, 1e-12)
    assert [len(c.args[0]) for c in spy.call_args_list] == [12, 12 * 8]
    assert res.nodes == 15 * 12 * 9 and abs(res.value - exact) <= 1e-12
    spy.reset_mock()
    monkeypatch.setattr(quadrature, "_MAX_CHILDREN", 2)
    res = integrate_legs([leg], (400.0, 0.0, 0.0), 0.0, 1e-12)
    assert [len(c.args[0]) for c in spy.call_args_list] == [12, 24, 48, 96]
    assert res.nodes == 15 * 180 and abs(res.value - exact) <= 1e-12


def test_legs_share_one_integrand_call_per_round(monkeypatch):
    # three k^(-1/2) endpoint legs on the rays at 0, pi/2 and pi: the first
    # round and each later round make one exponent call, covering every
    # leg with panels to evaluate.  The weight's ramp of 60 e-folds over
    # 12 even panels leaves each leg's inner panel short of its share, so
    # a second round follows the first on all three legs.
    angles = (0.0, 0.5 * math.pi, math.pi)
    legs = [DecayLeg(th, 1.0, 120.0, outward=True) for th in angles]
    spy = _spy(monkeypatch, "exponent")
    res = integrate_legs(legs, _ZERO, 0.5, 1e-13)
    assert res.converged
    calls = [c.args[1] for c in spy.call_args_list]
    assert calls[0].size == 3 * 12 * 15
    assert len(calls) > 1 and sum(k.size for k in calls) == res.nodes
    assert len(np.unique(np.round(np.angle(calls[1]), 6))) == 3
    exact = sum(2.0 * cmath.exp(0.5j * th) for th in angles)
    assert abs(res.value - exact) <= 1e-12


def test_origin_leg_absorbs_the_weight():
    # int_0^1 k^(-1/2) dk = 2 along k = u^2 e^{i theta}: at p = 1/2 the
    # integrand in u is the constant 2 e^{i theta/2}, exact on one panel
    # of the first round; t = 0 maps to k = 0 itself, with no warning
    for theta in (0.0, 0.5 * math.pi, -1.5 * math.pi):
        for outward in (True, False):
            leg = OriginLeg(theta, 1.0, outward)
            res = integrate_legs([leg], _ZERO, 0.5, 1e-14)
            want = 2.0 * cmath.exp(0.5j * theta) * (1.0 if outward else -1.0)
            assert abs(res.value - want) <= 1e-15 and res.nodes == 12 * 15
            k = leg.map(np.array([0.0, 1.0]), 0.5)[0]
            assert k[0 if outward else 1] == 0.0
    # at p = -1/2 the weight k^{1/2} is carried by ln u: int_0^4 k^(1/2) dk
    res = integrate_legs([OriginLeg(0.0, 4.0)], _ZERO, -0.5, 1e-12)
    assert abs(res.value - 16.0 / 3.0) <= 1e-12


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
def test_zero_shift_end_legs_finish_in_the_first_round(monkeypatch, tol):
    # at z0 = 0 every end at k = 0 is an OriginLeg, smooth in u: the first
    # round's 12 even panels resolve it, and no later round evaluates a
    # panel on it (the rounds after the first call _log_integrand), over
    # the five kinds on a narrow and a wide seeded grid
    spy = _spy(monkeypatch, "_log_integrand")
    z = [*shifted_grid(100, 901)[0], *shifted_grid(100, 902, z_radius=12.0, z0_radius=6.0)[0]]
    ends = 0
    for zz in z:
        for kind in ContourKind:
            path = build_contour(kind, zz, 0.0)
            ends += sum(isinstance(leg, OriginLeg) for leg in path.segments)
            try:
                laplace_integral(path, tol)
            except ToleranceNotMet:  # a plateau on a valley ray; its panels count too
                pass
    assert ends == 4 * len(z)  # R+ and R- have one end at k = 0, O two
    assert spy.call_count > 0  # later rounds split the other legs
    assert not any(isinstance(c.args[0][j], OriginLeg)
                   for c in spy.call_args_list for j in c.args[3].tolist())


# paths of 1 to 4 legs that mix all five leg types, as (legs, coeffs, power),
# and three built ones: a contour at z0 != 0 and at z0 = 0, and the time
# integral's chord family
_R_PLUS = build_contour(ContourKind.R_PLUS, 1 + 0.5j, 0.3 - 0.2j)
_O_ZERO = build_contour(ContourKind.O, 1 + 0.5j, 0.0)
_FIRST_ROUND_PATHS = {
    "segment": ([SegmentLeg(0.2 + 0.1j, 1.5 - 0.3j)], (1.3 + 0.2j, 0.0, 0.7), 0.5),
    "decay-ray": ([DecayLeg(0.3, 1.2, 12.0), RayLeg(0.3, 1.2, 3.0)], (1.3 + 0.2j, 0.0, 0.7), 0.5),
    "ray-arc-decay": ([RayLeg(0.5, 2.0, 1.0), ArcLeg(1.0, 0.5, -0.5),
                       DecayLeg(-0.5, 1.0, 10.0, outward=False)], (-0.4, 0.0, 1.0), 0.5),
    "decay-arc-ray-segment": ([DecayLeg(-0.4, 0.8, 14.0), ArcLeg(0.8, -0.4, 0.0),
                               RayLeg(0.0, 0.8, 2.0), SegmentLeg(2.0, 2.5 + 1.0j)],
                              (1.3 + 0.2j, 0.0, 0.7), 0.5),
    "contour-R+": (_R_PLUS.segments, _R_PLUS.coeffs, 0.5),
    "contour-O-zero-shift": (_O_ZERO.segments, _O_ZERO.coeffs, 0.5),
    "origin-ray": ([OriginLeg(0.3, 1.2), RayLeg(0.3, 1.2, 3.0)], (1.3 + 0.2j, 0.0, 0.7), 1.5),
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


# The integrals whose node counts, bits and paths are pinned: the five
# contour kinds on two grids and at an inner- and an outer-sector point,
# and the time integral at six configurations, all at tol 1e-8.
_SCHEDULE_GRIDS = {"narrow": shifted_grid(40, 41),
                   "wide": shifted_grid(40, 42, z_radius=12.0, z0_radius=6.0)}
_SECTOR_POINTS = ((1 + 0.5j, 0.3 - 0.2j), (0.7 - 0.4j, -1.1 + 0.3j))
_GREENS_CONFIGS = (
    (0.5, (0, 0, 0.1), (1, 0, 0), (0, 0, 0)),    # through the stationary point
    (-0.5, (0, 0, 0.05), (6, 0, 0), (0, 0, 0)),  # tunnelling: steepest ray
    (-0.2, (0, 0, 0.5), (0.5, 0, 1), (0, 0, 0)),  # fixed rotation
    (0.3, (0, 0, 0), (2, 0, 0), (0, 0, 0)),      # zero field, E > 0
    (-0.3, (0, 0, 0), (1, 1, 0), (0, 0, 0)),     # zero field, E < 0
    (-1.0, (0, 0, 0), (8, 0, 0), (0, 0, 0)),     # zero field, tunnelling
)


def _time_integral(config):
    return partial(integrate_legs, *greens._time_path(GreensParams.make(*config)), 1e-8)


def _kind_nodes(z, z0):
    return [laplace_integral(build_contour(kind, z, z0), 1e-8).nodes for kind in ContourKind]


def panel_schedule():
    """Node counts of the five kinds (in ContourKind order) at each point
    of the schedule grids and of the _GREENS_CONFIGS time integrals, and
    the calls of ``quadrature._eval_panels`` that all 406 integrals make:
    one for the first round of each, one per later round."""
    with mock.patch.object(quadrature, "_eval_panels", wraps=quadrature._eval_panels) as spy:
        counts = {name: {f"{a}, {b}": _kind_nodes(a, b) for a, b in zip(*grid)}
                  for name, grid in _SCHEDULE_GRIDS.items()}
        counts["greens"] = [_time_integral(config)().nodes for config in _GREENS_CONFIGS]
    return {**counts, "eval_calls": spy.call_count}


def test_panel_schedule_pinned():
    # the first round, split rule, stop rules and GK15 error formula: a
    # rewrite of the integrator that keeps the schedule reproduces these
    # counts, and each round costs a fixed overhead whatever it evaluates
    assert_pinned("panel_schedule", panel_schedule())


def integral_rows():
    """The pin rows of the five kinds at the inner- and the outer-sector
    point of _SECTOR_POINTS, then of the _GREENS_CONFIGS time integrals."""
    rows = {}
    for z, z0 in _SECTOR_POINTS:
        for kind in ContourKind:
            rows[f"{kind.name} at {z}, {z0}"] = integral_row(
                laplace_integral, build_contour(kind, z, z0), 1e-8)
    for config in _GREENS_CONFIGS:
        rows[f"time integral at {config}"] = integral_row(_time_integral(config))
    return rows


def test_contour_route_bits_pinned():
    # no change moves a contour-route bit, and with it a CLI byte,
    # unnoticed; the last bits follow numpy's SIMD loops
    assert_pinned("integrals", integral_rows())


def _family(legs, power):
    family = ("tunnelling" if abs(legs[0].theta) == math.pi / 2.0
              else "chord" if isinstance(legs[-1], SegmentLeg) else "rotated")
    return f"{'t' if power == 1.5 else 'u'} {family}"


def time_paths():
    """The family counts of every time-integral path built for criterion
    6's samples and the seed-7 float64-edge configurations, and the SHA-256
    of repr((legs, coeffs, power)) over them in that order.  No quadrature
    runs: each path is checked and hashed as built."""
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
    return dict(families), digest.hexdigest()


def test_time_paths_pinned():
    # every radius comes from ``math``, so the digest holds under every
    # loop set of one numpy minor version, which may print a leg its own way
    families, digest = time_paths()
    assert_pinned("time_path_families", families)
    assert_pinned("time_paths", digest)


def contour_paths():
    """SHA-256 of repr((path.segments, path.coeffs)) of the five kinds, in
    ContourKind order, over shifted_grid(200, 41), shifted_grid(200, 42,
    12, 6) and _SECTOR_POINTS, in that order.  No quadrature runs."""
    digest = hashlib.sha256()
    points = itertools.chain(zip(*shifted_grid(200, 41)),
                             zip(*shifted_grid(200, 42, z_radius=12.0, z0_radius=6.0)),
                             _SECTOR_POINTS)
    for z, z0 in points:
        for kind in ContourKind:
            path = build_contour(kind, z, z0)
            digest.update(repr((path.segments, path.coeffs)).encode())
    return digest.hexdigest()


def test_contour_paths_pinned():
    # the turn radius is chosen from numpy's ``exponent`` on the arc
    # sweep, yet the digest holds under every loop set
    assert_pinned("contour_paths", contour_paths())
