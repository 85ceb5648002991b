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
Every leg carries the continuously tracked angle theta of its points, so
k^{-p} = |k|^{-p} e^{-i p theta} is taken on the correct branch sheet
without consulting a principal argument.

Each panel is integrated with the 15-point Gauss-Kronrod rule; the
embedded 7-point Gauss value provides the error estimate.  A seed pass
allots panels from the variation of f dk/dt on 33 probe points per leg:
the phase of e^{E} (about half a period per panel) and the magnitude of
e^{E} plus, on a decay leg, the e-fold ramp of its weight |k|^{1-p},
in closed form.  It also checks that every decay leg's integrand decays
toward its inner end, and that e^{E} stays inside float64 on every
probe.  Rounds of bisection then split every panel whose error exceeds
its share of the budget.
The panels of all legs are held as arrays in path order, and each round
makes one call of ``exponent`` over all their nodes.

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


@dataclass(frozen=True)
class RayLeg:
    """Straight radial segment at fixed continued angle ``theta``.

    Traversed from ``r_start`` to ``r_end``; either direction is allowed.
    """

    theta: float
    r_start: float
    r_end: float

    def map(self, t):
        r = self.r_start + (self.r_end - self.r_start) * np.asarray(t, dtype=float)
        phase = complex(math.cos(self.theta), math.sin(self.theta))
        return (r * phase, np.full(r.shape, (self.r_end - self.r_start) * phase),
                np.full(r.shape, float(self.theta)))


@dataclass(frozen=True)
class ArcLeg:
    """Circular arc at fixed radius; the angle is the tracked lift."""

    radius: float
    theta_start: float
    theta_end: float

    def map(self, t):
        th = self.theta_start + (self.theta_end - self.theta_start) * np.asarray(t, dtype=float)
        k = self.radius * np.exp(1j * th)
        dkdt = 1j * (self.theta_end - self.theta_start) * k
        return k, dkdt, th


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

    def map(self, t):
        t = np.asarray(t, dtype=float)
        s = self.s_max * (1.0 - t) if self.outward else self.s_max * t
        phase = complex(math.cos(self.theta), math.sin(self.theta))
        k = self.r_outer * np.exp(-s) * phase
        sign = 1.0 if self.outward else -1.0
        return k, sign * self.s_max * k, np.full(s.shape, float(self.theta))


@dataclass(frozen=True)
class SegmentLeg:
    """Straight chord between two points.

    The tracked angle is the principal argument, which is continuous as
    long as the chord does not cross the negative real axis; callers are
    responsible for that placement.
    """

    k_start: complex
    k_end: complex

    def map(self, t):
        t = np.asarray(t, dtype=float)
        k = self.k_start + (self.k_end - self.k_start) * t
        dkdt = np.full_like(k, self.k_end - self.k_start)
        return k, dkdt, np.angle(k)


@dataclass
class QuadResult:
    """Integral value with an absolute error estimate, node count and the
    reason the adaptive loop stopped.

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


def _path_values(ex, k, dkdt, theta, power):
    """f dk/dt = e^{E - i p theta} |k|^{-p} dk/dt from ``ex`` = E(k)."""
    return np.exp(ex - 1j * power * theta) / np.abs(k) ** power * dkdt


def _eval_panels(legs, coeffs, power, leg, t0, t1):
    """GK15 on a batch of [t0, t1] panels; ``leg`` holds each panel's leg
    index in ascending order.

    Each leg maps its own block of nodes and the exponent runs once on
    all of them.  The error estimate is the QUADPACK rescaling of
    |K15 - G7|, which credits the Kronrod value with its actual
    convergence rate instead of the pessimistic raw difference.
    """
    mid = 0.5 * (t0 + t1)
    hw = 0.5 * (t1 - t0)
    ts = mid[:, None] + hw[:, None] * _XGK
    edges = leg.searchsorted(np.arange(len(legs) + 1)).tolist()
    # a value off float64 stays in a panel, which stops the loop as non_finite
    with np.errstate(all="ignore"):
        maps = [legs[j].map(ts[lo:hi].ravel())
                for j, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])) if hi > lo]
        k, dkdt, theta = (np.concatenate(part) for part in zip(*maps))
        f = _path_values(exponent(coeffs, k), k, dkdt, theta, power).reshape(ts.shape)
        resk = (f * _WGK).sum(axis=1)
        kron = resk * hw
        raw = np.abs(resk - (f * _WG).sum(axis=1)) * hw
        resasc = (np.abs(f - 0.5 * resk[:, None]) * _WGK).sum(axis=1) * hw
        # a panel with raw or resasc at 0 keeps raw; its quotient is discarded
        err = np.where((resasc > 0.0) & (raw > 0.0),
                       resasc * np.minimum(1.0, (200.0 * raw / resasc) ** 1.5), raw)
        return kron, np.maximum(err, 4e-16 * np.abs(kron))


_PROBE = np.linspace(0.0, 1.0, 33)
_MAX_SEED_PANELS = 1200
_MAX_EXPONENT = float(np.log(np.finfo(float).max))  # e^{E} is finite up to Re E ~ 709.78


def _seed_counts(legs, coeffs, power):
    """Initial panel count of every leg from f dk/dt on its 33 ``_PROBE``
    points: e^{E}, plus the e-fold ramp of each decay leg's weight.

    Each initial panel spans about half a period of e^{E} and a bounded
    change of log|f dk/dt|.  That log is Re E plus log|k^{-p} dk/dt|; on a
    ``DecayLeg`` the weight is s_max |k|^{1-p}, whose log is a constant
    minus (1 - p) s at depth s, and on the other legs its slower variation
    is left to bisection.  On a ``DecayLeg``, a finite |f dk/dt| at the
    inner end must sit far below the leg maximum over t = j/16 (every
    other probe), or DegenerateGeometry is raised.  None if e^{E} leaves
    float64 on any probe (Re E > log of the largest float64) or E is NaN
    there: no panel of such a path is worth evaluating.
    """
    # a value off float64 raises nothing here: it passes the decay check,
    # and an exponent past _MAX_EXPONENT (or NaN) returns None
    with np.errstate(all="ignore"):
        maps = [leg.map(_PROBE) for leg in legs]
        ex = exponent(coeffs, np.concatenate([m[0] for m in maps])).reshape(len(legs), -1)
        re = ex.real.copy()
        for leg, row, re_row, (k, dkdt, theta) in zip(legs, ex, re, maps):
            if isinstance(leg, DecayLeg):
                vals = np.abs(_path_values(row[::2], k[::2], dkdt[::2], theta[::2], power))
                inner = vals[0] if leg.outward else vals[-1]
                # an infinite or NaN inner value compares false
                if inner > max(vals.max(), 1e-280) * 1e-2:
                    raise DegenerateGeometry("integrand does not decay toward the inner "
                                             f"end of the leg at angle {leg.theta:.6f}")
                # the depth s of each probe, as the leg maps it
                re_row -= (1.0 - power) * leg.s_max * (_PROBE[::-1] if leg.outward else _PROBE)
        # the maximum is NaN if any Re E is
        if not ex.real.max() <= _MAX_EXPONENT or np.isnan(ex.imag).any():
            return None
        # variation more than ~45 e-folds below the leg maximum cannot
        # affect the result; clip so deep decay tails do not inflate the count
        top = re.max(axis=1, keepdims=True)
        re = np.maximum(re, top - 45.0)
        alive = re > top - 44.0
        seg = alive[:, :-1] & alive[:, 1:]
        phase = (np.abs(ex.imag[:, 1:] - ex.imag[:, :-1]) * seg).sum(axis=1)
        mag = np.abs(re[:, 1:] - re[:, :-1]).sum(axis=1)
        # fmin caps the count before the cast, which also keeps an
        # overflowed or NaN count from turning into a negative one
        return np.fmin(phase / 2.5 + mag / 4.0, _MAX_SEED_PANELS - 2).astype(int) + 2


def integrate_legs(legs, coeffs, power, tol, max_nodes):
    """Adaptively integrate e^{E(k)} k^{-p} dk over a chain of legs.

    Parameters
    ----------
    legs : sequence of leg objects
    coeffs : (a, b, c), the exponent E(k) = i(a k + b/k + c k^3/12)
    power : real p; k^{-p} takes the branch of each leg's tracked angle
    tol : relative tolerance; the target is
        abs_err <= tol * max(1, |value|)
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
    vals, errs = _eval_panels(legs, coeffs, power, leg, t0, t1)
    nodes = 15 * len(leg)

    stall = 0
    prev_err = math.inf
    while True:
        total = complex(vals.sum())
        err_tot = float(errs.sum())
        if not (math.isfinite(err_tot) and cmath.isfinite(total)):
            return QuadResult(total, math.inf, nodes, "non_finite")
        goal = tol * max(1.0, abs(total))
        if err_tot <= goal:
            return QuadResult(total, err_tot, nodes, "converged")
        if nodes >= max_nodes:
            return QuadResult(total, err_tot, nodes, "node_ceiling")
        # rounding plateau: bisection no longer reduces the estimate, the
        # remaining error is the float64 floor of this path geometry
        stall = stall + 1 if err_tot > 0.7 * prev_err else 0
        if stall >= 4:
            return QuadResult(total, err_tot, nodes, "plateau")
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
        leg, t0, t1, vals, errs = (a.repeat(split + 1) for a in (leg, t0, t1, vals, errs))
        t1[first] = tm
        t0[first + 1] = tm
        child = first.repeat(2)
        child[1::2] += 1
        vals[child], errs[child] = _eval_panels(
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
