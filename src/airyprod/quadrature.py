"""Adaptive complex-path quadrature of e^{E(k)} k^{-p} over parametric legs.

Both integrals of this package, the contour integrals I_C and the
Green's-function time integral, have this integrand with an exponent of
one family,

    E(k) = i(a k + b/k + c k^3/12),

so callers pass the coefficients (a, b, c) and the power p as data:
I_C has (beta, -z0^2/4, 1), the time integral (E', |r-r'|^2/2, -F^2/2)
in t and (|r-r'|^2/2, E', 0) in u = 1/t.  Paths are chains of straight
radial rays, circular arcs, exponentially clustered "decay" rays that
resolve an integrable endpoint at k = 0, and straight chords
(``SegmentLeg``, the time integral's descent from its stationary point).
Every leg maps t in [0, 1] to its points k and to

    l = log(k^{-p} dk/dt),

taken on the leg's branch: the continuously tracked angle of its points
on rays, arcs and decay legs, without consulting a principal argument,
and the principal logarithm on a chord.  l is affine in t on arcs and
decay legs, -p ln r plus a constant on rays, and f dk/dt = exp(E(k) + l)
is one complex exponential per node.

Each panel is integrated with the 15-point Gauss-Kronrod rule; the
embedded 7-point Gauss value provides the error estimate.  A seed pass
allots panels from g = E + l on 33 probe points per leg: about half a
period of its phase, together with the turn of k, and a bounded change
of its real part, log|f dk/dt|, per panel.  So the seed sees a leg's
weight |k|^{-p} |dk/dt| as well as e^{E} on every leg.  It also checks
that every decay leg's integrand decays toward its inner end, and that
e^{E} stays inside float64 on every probe.  Rounds of bisection then
split every panel whose error exceeds its share of the budget.
The panels of all legs are held as arrays in path order, and each round
makes one call of ``exponent`` over all their nodes.  The reported
error estimate is at least QUADPACK's rounding floor, 50 eps times the
integral of |f dk/dt|; the stop rule reads the GK15 estimate alone.

Both path builders, ``contours.build_contour`` and the time
integral's ``greens._time_path``, take their tail rules from here: the
cut depth ``TAIL_LAMBDA`` (the integrand falls to 1e-13), the tail
reach ``tail_radius``, a root of ``_cubic_roots`` below a cap (80 for
contours, 1e8 for the time integral), the same cap on any other radius
a path must pass (``check_reach``), and the span ``decay_span`` of a
decay leg into k = 0.

A path integral fails in one of two ways, both raised in this module.
DegenerateGeometry means no usable path exists: ``tail_radius`` and
``check_reach`` raise it for a path that would reach past its cap, and
the seed pass for a decay leg whose integrand is finite at its inner
end but does not decay there.  ToleranceNotMet means the adaptive loop stopped short of its
target: ``integrate_legs`` raises it for every miss, with the
unconverged result attached.  An exponent past the float64 range of
e^{E} (or NaN) on a seed probe is the ``non_finite`` stop after 0 nodes.
Leg maps, exponent and integrand run with numpy's floating-point
warnings off, so a value that leaves float64 anywhere else on the path,
the inner end of a decay leg included, ends the loop as the same stop.
"""

from __future__ import annotations

from dataclasses import dataclass
import cmath
import math

import numpy as np

from .errors import DegenerateGeometry, ToleranceNotMet

__all__ = ["RayLeg", "ArcLeg", "DecayLeg", "SegmentLeg", "QuadResult", "exponent",
           "integrate_legs"]

# 15-point Kronrod nodes/weights with the embedded 7-point Gauss weights
# (QUADPACK dqk15 constants).
_XGK_HALF = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK_HALF = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG_HALF = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_XGK = np.concatenate([_XGK_HALF, -_XGK_HALF[:-1]])
_WGK = np.concatenate([_WGK_HALF, _WGK_HALF[:-1]])
_WG = np.zeros(15)
_WG[[1, 9]] = _WG_HALF[0]
_WG[[3, 11]] = _WG_HALF[1]
_WG[[5, 13]] = _WG_HALF[2]
_WG[7] = _WG_HALF[3]


def _log(x: float) -> float:
    """ln x, with ln 0 = -inf: a zero-length leg has dk/dt = 0 and f = 0."""
    return math.log(x) if x > 0.0 else -math.inf


@dataclass(frozen=True)
class RayLeg:
    """Straight radial segment at fixed continued angle ``theta``.

    Traversed from ``r_start`` to ``r_end``; either direction is allowed.
    """

    theta: float
    r_start: float
    r_end: float

    def map(self, t, power):
        dr = self.r_end - self.r_start
        r = self.r_start + dr * np.asarray(t, dtype=float)
        # log(k^{-p} dk/dt) = -p ln r + log(dr e^{i theta}) - i p theta
        const = complex(_log(abs(dr)), (1.0 - power) * self.theta + (math.pi if dr < 0.0 else 0.0))
        k = r * complex(math.cos(self.theta), math.sin(self.theta))
        return k, const - power * np.log(r)


@dataclass(frozen=True)
class ArcLeg:
    """Circular arc at fixed radius; the angle is the tracked lift."""

    radius: float
    theta_start: float
    theta_end: float

    def map(self, t, power):
        turn = self.theta_end - self.theta_start
        ith = 1j * (self.theta_start + turn * np.asarray(t, dtype=float))
        # k^{-p} dk/dt = i turn k^{1-p}, with k^{1-p} on the lift
        const = complex(_log(abs(turn)) + (1.0 - power) * _log(self.radius),
                        math.copysign(0.5 * math.pi, turn))
        return self.radius * np.exp(ith), const + (1.0 - power) * ith


@dataclass(frozen=True)
class DecayLeg:
    """Radial segment with exponential clustering toward k = 0.

    Points are k = r_outer * exp(-s) * e^{i theta} with s running over
    [0, s_max]; the substitution turns both the integrable k^{-1/2}
    endpoint factor and an essential e^{-c/k} decay into a smooth,
    exponentially small tail.  ``outward=True`` traverses from the inner
    end toward r_outer.
    """

    theta: float
    r_outer: float
    s_max: float
    outward: bool = True

    def map(self, t, power):
        t = np.asarray(t, dtype=float)
        s = self.s_max * (1.0 - t) if self.outward else self.s_max * t
        phase = complex(math.cos(self.theta), math.sin(self.theta))
        # k^{-p} dk/dt = +-s_max k^{1-p}, whose log falls by (1 - p) s
        const = complex(_log(self.s_max) + (1.0 - power) * _log(self.r_outer),
                        (1.0 - power) * self.theta + (0.0 if self.outward else math.pi))
        return self.r_outer * np.exp(-s) * phase, const - (1.0 - power) * s


@dataclass(frozen=True)
class SegmentLeg:
    """Straight chord between two points.

    k^{-p} takes the principal logarithm, which is continuous as long as
    the chord does not cross the negative real axis; callers are
    responsible for that placement.
    """

    k_start: complex
    k_end: complex

    def map(self, t, power):
        dk = self.k_end - self.k_start
        k = self.k_start + dk * np.asarray(t, dtype=float)
        const = complex(_log(abs(dk)), math.atan2(dk.imag, dk.real))
        return k, const - power * np.log(k)


@dataclass
class QuadResult:
    """Integral value with an absolute error estimate, node count and the
    reason the adaptive loop stopped.

    ``abs_err_est`` is the larger of the GK15 estimate and the rounding
    floor 50 eps times the integral of |f dk/dt|, so where the integral
    cancels it can sit above the target that the GK15 estimate met.
    ``stop`` is one of ``"converged"`` (the target was met),
    ``"node_ceiling"`` (the node count had reached ``max_nodes`` before the
    target was met; the ceiling is checked between bisection rounds, so
    the last round may take the count past it), ``"plateau"``
    (bisection stopped reducing the error estimate: the float64 floor of
    the path) or ``"non_finite"`` (a panel value or error is not finite,
    or e^{E} is not finite on a seed probe, which stops it after 0 nodes).
    ``integrate_legs`` returns only converged results; the others ride on
    the ToleranceNotMet it raises.
    """

    value: complex
    abs_err_est: float
    nodes: int
    stop: str

    @property
    def converged(self) -> bool:
        return self.stop == "converged"


def exponent(coeffs, k):
    """E(k) = i(a k + b/k + c k^3/12) for ``coeffs`` = (a, b, c).

    With b = 0 the b/k term is left out, so a path may start at k = 0.
    """
    a, b, c = coeffs
    if b == 0.0:
        return 1j * (a * k + c * k * k * k / 12.0)
    return 1j * (a * k + b / k + c * k * k * k / 12.0)


def _eval_panels(legs, coeffs, power, leg, t0, t1):
    """GK15 on a batch of [t0, t1] panels; ``leg`` holds each panel's leg
    index in ascending order.

    Each leg maps its own block of nodes to k and l = log(k^{-p} dk/dt),
    and f dk/dt = exp(E(k) + l) is one exponential over all of them.  The
    error estimate is the QUADPACK rescaling of |K15 - G7|, which credits
    the Kronrod value with its actual convergence rate instead of the
    pessimistic raw difference.  The third array, resasc + |K15|, bounds
    each panel's integral of |f dk/dt| from above.
    """
    hw = 0.5 * (t1 - t0)
    ts = (t0 + hw)[:, None] + hw[:, None] * _XGK
    edges = leg.searchsorted(np.arange(len(legs) + 1)).tolist()
    # a value off float64 stays in a panel, which stops the loop as non_finite
    with np.errstate(all="ignore"):
        maps = [legs[j].map(ts[lo:hi].ravel(), power)
                for j, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])) if hi > lo]
        k, ell = (np.concatenate(part) for part in zip(*maps))
        f = np.exp(exponent(coeffs, k) + ell).reshape(ts.shape)
        resk = (f * _WGK).sum(axis=1)
        kron = resk * hw
        size = np.abs(kron)
        raw = np.abs(resk - (f * _WG).sum(axis=1))
        resasc = (np.abs(f - 0.5 * resk[:, None]) * _WGK).sum(axis=1)
        # both sums without the factor hw; fmin reads the quotient 0/0 as
        # 1, so a panel whose f is constant (resasc 0) keeps only the
        # rounding floor below
        ratio = 200.0 * raw / resasc
        resasc *= hw
        err = resasc * np.fmin(1.0, ratio * np.sqrt(ratio))
        return kron, np.maximum(err, 4e-16 * size), resasc + size


_PROBE = np.linspace(0.0, 1.0, 33)
_MAX_SEED_PANELS = 1200
_MAX_EXPONENT = float(np.log(np.finfo(float).max))  # e^{E} is finite up to Re E ~ 709.78
_DECAY_DROP = math.log(1e-2)  # the inner end of a decay leg sits this far below its top
_LOG_TINY = math.log(1e-280)
_ROUNDING = 50.0 * float(np.finfo(float).eps)


def _seed_counts(legs, coeffs, power):
    """Initial panel count of every leg from g = E + l, the log of f dk/dt,
    on its 33 ``_PROBE`` points.

    Each initial panel spans about half a period of f dk/dt (Im g) and a
    bounded change of log|f dk/dt| (Re g), so the seed sees the weight
    |k|^{-p} |dk/dt| of every leg as well as e^{E}: the ramp of a ray's
    weight, the (1 - p) turn of an arc's phase and the (1 - p) s fall
    of a decay leg's.  The turn of k itself counts as phase: every term
    of g is a power of k or its log, and across a panel that turns k by
    an angle y a term k^m grows by up to e^{m y} off the path, which its
    values on the path do not show; so a full-turn arc gets about 2.5
    panels more than its phase asks for.  A probe where g is not finite (a ray from
    k = 0, a leg of length 0) is left out of the count.  On a
    ``DecayLeg``, a finite f dk/dt at the inner end must sit at least
    4.6 e-folds below the leg maximum over t = j/16 (every other probe),
    or DegenerateGeometry is raised.  None if e^{E} leaves float64 on any
    probe (Re E > log of the largest float64) or E is NaN there: no panel
    of such a path is worth evaluating.
    """
    # a value off float64 raises nothing here: it passes the decay check,
    # and an exponent past _MAX_EXPONENT (or NaN) returns None
    with np.errstate(all="ignore"):
        k, ell = (np.concatenate(part) for part in zip(*(leg.map(_PROBE, power)
                                                           for leg in legs)))
        ex = exponent(coeffs, k)
        g = (ex + ell).reshape(len(legs), -1)
        k = k.reshape(g.shape)
        for leg, row in zip(legs, g.real):
            if isinstance(leg, DecayLeg):
                inner = row[0] if leg.outward else row[-1]
                # an infinite or NaN inner value compares false, and so
                # does any value of a row with a NaN
                if _MAX_EXPONENT >= inner > max(row[::2].max(), _LOG_TINY) + _DECAY_DROP:
                    raise DegenerateGeometry("integrand does not decay toward the inner "
                                             f"end of the leg at angle {leg.theta:.6f}")
        # the maximum is NaN if any Re E is
        if not ex.real.max() <= _MAX_EXPONENT or np.isnan(ex.imag).any():
            return None
        # variation more than ~45 e-folds below the leg maximum cannot
        # affect the result; clip so deep decay tails do not inflate the
        # count.  A probe where g is not finite is NaN here: fmax leaves
        # it out of the top and turns the steps to it into 0.
        re = np.where(np.isfinite(g.real), g.real, np.nan)
        top = np.fmax.reduce(re, axis=1, keepdims=True)
        re = np.maximum(re, top - 45.0)
        alive = re > top - 44.0
        seg = alive[:, :-1] & alive[:, 1:]
        step = k[:, 1:] * k[:, :-1].conj()
        turn = np.abs(np.arctan2(step.imag, step.real))
        phase = ((np.abs(g.imag[:, 1:] - g.imag[:, :-1]) + turn) * seg).sum(axis=1)
        mag = np.fmax(np.abs(re[:, 1:] - re[:, :-1]), 0.0).sum(axis=1)
        # fmin caps the count before the cast, which also keeps an
        # overflowed or NaN count from turning into a negative one
        return np.fmin(phase / 2.5 + mag / 4.0, _MAX_SEED_PANELS - 2).astype(int) + 2


def integrate_legs(legs, coeffs, power, tol, max_nodes):
    """Adaptively integrate e^{E(k)} k^{-p} dk over a chain of legs.

    Parameters
    ----------
    legs : sequence of leg objects
    coeffs : (a, b, c), the exponent E(k) = i(a k + b/k + c k^3/12)
    power : real p; k^{-p} takes the branch of each leg's map
    tol : relative tolerance; the target is that the GK15 estimate
        meets tol * max(1, |value|); the reported ``abs_err_est`` adds
        the rounding floor of ``QuadResult`` and may sit above it
    max_nodes : no bisection round starts once the integrand has been
        evaluated on this many nodes; the round that reaches the ceiling
        runs to its end, so ``nodes`` may exceed it

    Returns
    -------
    QuadResult that met the target (``stop`` is ``"converged"``).

    Raises
    ------
    ToleranceNotMet
        if the loop stops short of the target; the unconverged QuadResult,
        whose ``stop`` says why, rides on the exception's ``result``.  An
        exponent with Re E past log(float64 max) ~ 709.78, or NaN, on a
        seed probe stops it as ``non_finite`` before any panel is
        evaluated (0 nodes).
    DegenerateGeometry
        if the integrand of a ``DecayLeg`` is finite at its inner end but
        does not decay toward it.
    """
    counts = _seed_counts(legs, coeffs, power)
    # with e^{E} off float64 on a probe, no panel is evaluated
    res = (QuadResult(complex(math.nan, math.nan), math.inf, 0, "non_finite") if counts is None
           else _bisect(legs, coeffs, power, tol, max_nodes, counts))
    if not res.converged:
        raise ToleranceNotMet(f"error {res.abs_err_est:.3g} above target after {res.nodes} "
                              f"nodes (stop: {res.stop})", result=res)
    return res


def _bisect(legs, coeffs, power, tol, max_nodes, counts):
    """The adaptive loop of ``integrate_legs`` from ``counts`` seed panels
    per leg, as a QuadResult of any ``stop``."""
    # panels live in path order, as arrays: leg index, [t0, t1], GK15
    # value and error; the seed edges are those of np.linspace(0, 1, n + 1)
    ends = counts.cumsum()
    leg = np.arange(len(legs)).repeat(counts)
    pos = np.arange(ends[-1]) - (ends - counts).repeat(counts)
    step = (1.0 / counts)[leg]
    t0 = pos * step
    t1 = (pos + 1) * step
    t1[ends - 1] = 1.0
    vals, errs, sizes = _eval_panels(legs, coeffs, power, leg, t0, t1)
    nodes = 15 * len(leg)

    stall = 0
    prev_err = math.inf
    while True:
        total = complex(vals.sum())
        err_tot = float(errs.sum())
        if not (math.isfinite(err_tot) and cmath.isfinite(total)):
            return QuadResult(total, math.inf, nodes, "non_finite")
        goal = tol * max(1.0, abs(total))
        # rounding plateau: bisection no longer reduces the estimate, the
        # remaining error is the float64 floor of this path geometry
        stall = stall + 1 if err_tot > 0.7 * prev_err else 0
        stop = ("converged" if err_tot <= goal else "node_ceiling" if nodes >= max_nodes
                else "plateau" if stall >= 4 else None)
        if stop:
            # the reported estimate is at least QUADPACK's rounding floor of
            # a sum that cancels, 50 eps times the integral of |f dk/dt|
            return QuadResult(total, max(err_tot, _ROUNDING * float(sizes.sum())), nodes, stop)
        prev_err = err_tot

        # err_tot > goal puts the largest error above goal / n, so at
        # least one panel splits
        split = errs > goal / (2.0 * len(errs))
        # each split panel becomes its two halves in place, so the arrays
        # stay in path order and every leg's panels stay contiguous
        sel = split.nonzero()[0]
        tm = 0.5 * (t0[sel] + t1[sel])
        # the i-th split panel moves right by the i halves inserted before it
        first = sel + np.arange(len(sel))
        leg, t0, t1, vals, errs, sizes = (a.repeat(split + 1)
                                          for a in (leg, t0, t1, vals, errs, sizes))
        t1[first] = tm
        t0[first + 1] = tm
        child = first.repeat(2)
        child[1::2] += 1
        vals[child], errs[child], sizes[child] = _eval_panels(
            legs, coeffs, power, leg[child], t0[child], t1[child])
        nodes += 15 * len(child)


def _cubic_roots(p: float, q: float) -> tuple:
    """Real roots of r^3 + p r + q = 0 in ascending order (one or three).

    Every radius of the paths of both integrals is such a root.
    """
    if q > 0.0:  # the roots for (p, -q), negated
        return tuple(-r for r in reversed(_cubic_roots(p, -q)))
    disc = 0.25 * q * q + p * p * p / 27.0
    if disc >= 0.0:  # Cardano: the one real root is u + v, v = -p/(3u)
        u = math.cbrt(-0.5 * q + math.sqrt(disc))
        if p > 0.0:
            # u and v nearly cancel when p^3 >> q^2, but not in
            # (u + v)(u^2 - uv + v^2) = u^3 + v^3 = -q
            w = p / (3.0 * u)
            return (-q / (u * u + u * w + w * w),)
        return (u - p / (3.0 * u),)
    # trigonometric form for the outer roots; the middle one follows from
    # the product of all three, -q, without cancellation
    m = 2.0 * math.sqrt(-p / 3.0)
    phi = math.acos(min(3.0 * q / (p * m), 1.0)) / 3.0
    lo, hi = m * math.cos(phi + 2.0 * math.pi / 3.0), m * math.cos(phi)
    return lo, -q / (lo * hi), hi


# the tail rules of both integrals' paths: a tail is cut where the
# integrand has fallen to e^{-TAIL_LAMBDA} = 1e-13 of its O(1) scale (the
# time integral cuts deeper by its tunnelling suppression)
TAIL_LAMBDA = -math.log(1e-13)


def _largest_root(a: float, b: float, c: float, d: float) -> float:
    """Largest real root of a x^3 + b x^2 + c x = d (a > 0), by the shift
    x = y - b/(3a) that removes the quadratic term."""
    s = b / (3.0 * a)
    return _cubic_roots(c / a - 3.0 * s * s, (2.0 * s * s - c / a) * s - d / a)[-1] - s


def tail_radius(a: float, b: float, c: float, lam: float, cap: float) -> float:
    """Positive root x of a x^3 + b x^2 + c x = lam (a > 0, b >= 0, and
    c >= 0 where b > 0).

    DegenerateGeometry when x would exceed ``cap``.  The cubic and
    quadratic terms must reach lam inside the cap on their own, without a
    decaying linear term (c > 0); this keeps the solved cubic finite.
    """
    # the left side stays below lam short of the root and above it beyond
    if (a * cap + b) * cap * cap + min(c, 0.0) * cap < lam:
        raise DegenerateGeometry(f"path tail would reach past radius {cap:g}")
    x = _largest_root(a, b, c, lam)
    # x = y - s cancels once the shift s = b/(3a) is above x (and y leaves
    # float64 once s^3 does); the cubic in 1/x, lam y^3 - c y^2 - b y = a,
    # has one positive root and the shift -c/(3 lam), which is 0 for c = 0
    # and adds to y for c > 0
    return x if x >= b / (3.0 * a) else 1.0 / _largest_root(lam, -c, -b, a)


def check_reach(r: float, cap: float, legs, coeffs, power) -> None:
    """DegenerateGeometry when the path ``legs`` must pass radius r > cap.

    A path whose e^{E} already leaves float64 on a seed probe is left to
    ``integrate_legs``, which stops it as ``non_finite`` after 0 nodes.
    """
    if r > cap and _seed_counts(legs, coeffs, power) is not None:
        raise DegenerateGeometry(f"path would pass radius {r:g}, past its cap {cap:g}")


def decay_span(r: float, r_min: float) -> float:
    """``s_max`` of a decay leg from radius r in to r_min: log(r / r_min),
    but at least 6, and infinite for r_min = 0."""
    if r_min == 0.0:
        return math.inf
    return max(math.log(max(r / r_min, 2.0)), 6.0)
