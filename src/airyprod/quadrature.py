"""Adaptive complex-path quadrature of e^{E(k)} k^{-p} over parametric legs.

Both integrals of this package, the contour integrals I_C and the
Green's-function time integral, have this integrand with an exponent of
one family,

    E(k) = i(a k + b/k + c k^3/12),

so callers pass the coefficients (a, b, c) and the power p as data:
I_C has (beta, -z0^2/4, 1), the time integral (E', |r-r'|^2/2, -F^2/2)
in t and (|r-r'|^2/2, E', 0) in u = 1/t.  Paths are chains of straight
radial rays, circular arcs, exponentially clustered "decay" rays that
resolve an integrable endpoint at k = 0 where e^{b/k} decays, "origin"
rays that reach k = 0 exactly where b = 0 (``OriginLeg``, k = r u^2,
which absorbs a k^{-1/2} weight), and straight chords (``SegmentLeg``,
the time integral's descent from its stationary point).
Every leg maps t in [0, 1] to its points k and to

    l = log(k^{-p} dk/dt),

taken on the leg's branch: the continuously tracked angle of its points
on rays, arcs, decay and origin legs, without consulting a principal
argument, and the principal logarithm on a chord.  l is affine in t on
arcs and decay legs, -p ln r plus a constant on rays, (1 - 2p) ln u plus
a constant on origin legs (a constant at p = 1/2), and
f dk/dt = exp(E(k) + l) is one complex exponential per node.

Each panel is integrated with the 15-point Gauss-Kronrod rule; the
embedded 7-point Gauss value provides the error estimate.  There is no
planning pass: the first round gives every leg ``_START_PANELS`` (12)
even panels, and each later round splits every panel whose error exceeds
its share of the budget into 2 + V/5 even children, at most
``_MAX_CHILDREN`` (8), where V = sum |g_{i+1} - g_i| is the variation of
g = E + l along the panel's own 15 nodes (held in ascending t).  So a
panel over many periods of f dk/dt, or many e-folds of it, splits into
many children at once, and one that is merely short of its share is
halved.  V is formed only once the stop test has said that another round
follows, for the panels just evaluated; older panels keep theirs.  The
first round is the same on every leg, so its panels and each leg's 180
nodes are read-only tables built at import, sized for the longest path
(4 legs), and each leg maps the node table directly.  The first round's
nodes are also where the exponent is checked, before any exponential:
e^{E} must stay inside float64, and every ``DecayLeg``'s integrand must
decay toward its inner end.  An ``OriginLeg`` is not checked: it serves
an exponent without the b/k term, whose e^{E} is 1 at k = 0.
The panels of all legs are held as arrays in path order, and each round
makes one call of ``exponent`` over all their nodes.  One node ceiling
serves both integrals: no round starts once an integral has taken
``_MAX_NODES`` (400 000) nodes, and the round that reaches them runs to
its end, to below 9 times the ceiling.  The reported
error estimate is at least QUADPACK's rounding floor, 50 eps times the
integral of |f dk/dt|; the stop rule reads the GK15 estimate alone.

The tolerance contract of both integrals lives here too:
``integrate_legs`` accepts a tolerance in ``TOL_RANGE``, [1e-14, 1e-4],
and raises ValueError for any other, NaN included, before its first
round maps a node.  Every entry that reaches it, and the command line's
``--tol``, defaults to ``DEFAULT_TOL`` (1e-10), and no caller raises a
tolerance it was given.  The command line also checks ``--tol`` against
``TOL_RANGE`` as it parses it, since some commands reach no quadrature.

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
the first round for a decay leg whose integrand is finite at its inner
end but does not decay there.  ToleranceNotMet means the adaptive loop
stopped short of its target: ``integrate_legs`` raises it for every
miss, with the unconverged result attached.  An exponent past the
float64 range of e^{E} (or NaN) on a node of the first round is the
``non_finite`` stop after 0 nodes.  Leg maps, exponent and integrand run
with numpy's floating-point warnings off, so a value that leaves float64
anywhere else on the path ends the loop as the same stop.
"""

from __future__ import annotations

from dataclasses import dataclass
import cmath
import math

import numpy as np

from .errors import DegenerateGeometry, ToleranceNotMet

__all__ = ["RayLeg", "ArcLeg", "DecayLeg", "OriginLeg", "SegmentLeg", "QuadResult",
           "exponent", "integrate_legs"]

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

# in ascending order, so a panel's nodes run along its path
_XGK = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])
_WGK = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
_WG = np.zeros(15)
_WG[1::2] = np.concatenate([_WG_HALF, _WG_HALF[-2::-1]])
# the weights as complex, so a complex product need not cast them
_WGK_C, _WG_C = _WGK.astype(complex), _WG.astype(complex)


_LOG_2 = math.log(2.0)


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
class OriginLeg:
    """Radial segment that reaches k = 0 exactly.

    Points are k = r_outer u^2 e^{i theta} with u = t (``outward=True``,
    from k = 0 out to r_outer) or u = 1 - t.  Then k^{-p} dk/dt is
    +-2 r_outer^{1-p} u^{1-2p} e^{i(1-p) theta}: at p = 1/2 the k^{-1/2}
    endpoint is absorbed exactly and l is constant, so nothing is cut.
    It serves an exponent without the b/k term, finite at k = 0.
    """

    theta: float
    r_outer: float
    outward: bool = True

    def map(self, t, power):
        t = np.asarray(t, dtype=float)
        u = t if self.outward else 1.0 - t
        phase = complex(math.cos(self.theta), math.sin(self.theta))
        # log(k^{-p} dk/dt) = log 2 + (1 - p) ln r_outer + (1 - 2p) ln u
        #                     + i(1 - p) theta, plus i pi inward
        const = complex(_LOG_2 + (1.0 - power) * _log(self.r_outer),
                        (1.0 - power) * self.theta + (0.0 if self.outward else math.pi))
        k = self.r_outer * (u * u) * phase
        if power == 0.5:  # no ln u, so u = 0 maps without a warning
            return k, np.full(k.shape, const)
        return k, const + (1.0 - 2.0 * power) * np.log(u)


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
    ``"node_ceiling"`` (the node count had reached the ceiling
    ``_MAX_NODES`` (400 000) before the target was met; the ceiling is
    checked between rounds, so the last round may take the count past it,
    to below 9 times the ceiling),
    ``"plateau"`` (splitting panels stopped reducing the error estimate:
    the float64 floor of the path) or ``"non_finite"`` (a panel value or
    error is not finite, or e^{E} is not finite on a node of the first
    round, which stops it after 0 nodes, before any exponential is
    formed).
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
    # c = 1 on every contour path, where 1 * k would repeat k's bits
    cubic = k * k * k if c == 1.0 else c * k * k * k
    if b == 0.0:
        return 1j * (a * k + cubic / 12.0)
    return 1j * (a * k + b / k + cubic / 12.0)


def _nodes(t0, t1):
    """The GK15 nodes of the [t0, t1] panels, one row per panel."""
    hw = 0.5 * (t1 - t0)
    return (t0 + hw)[:, None] + hw[:, None] * _XGK


_START_PANELS = 12  # even panels per leg in the first round
_START_EDGES = np.linspace(0.0, 1.0, _START_PANELS + 1)
_MAX_LEGS = 4  # the longest path, the time integral's chord family
# the first round of the longest path as read-only constants: (leg, t0,
# t1) of its panels in path order, and the 180 nodes that each leg maps,
# in ascending t
_START_LEG, _START_T0, _START_T1, _START_T = (
    np.arange(_MAX_LEGS).repeat(_START_PANELS), np.tile(_START_EDGES[:-1], _MAX_LEGS),
    np.tile(_START_EDGES[1:], _MAX_LEGS), _nodes(_START_EDGES[:-1], _START_EDGES[1:]).ravel())
# every integral shares the rule and the first-round tables, so none can be
# written
for _a in (_XGK_HALF, _WGK_HALF, _WG_HALF, _XGK, _WGK, _WG, _WGK_C, _WG_C, _START_EDGES,
           _START_LEG, _START_T0, _START_T1, _START_T):
    _a.flags.writeable = False
del _a
_MAX_CHILDREN = 8  # of a panel split in one round
_MAX_NODES = 400_000  # no round starts past this count (see integrate_legs)
_MAX_EXPONENT = float(np.log(np.finfo(float).max))  # e^{E} is finite up to Re E ~ 709.78
_DECAY_DROP = math.log(1e-2)  # the inner end of a decay leg sits this far below its top
_LOG_TINY = math.log(1e-280)
_ROUNDING = 50.0 * float(np.finfo(float).eps)


def _split(count, t0, t1):
    """[t0, t1] of ``count`` even children of each panel [t0, t1], in path
    order; the outer edges keep their bits."""
    j = np.arange(count.sum()) - (count.cumsum() - count).repeat(count)
    n, t0, t1 = (a.repeat(count) for a in (count, t0, t1))
    width = (t1 - t0) / n
    return t0 + j * width, np.where(j + 1 == n, t1, t0 + (j + 1) * width)


def _log_integrand(legs, coeffs, power, leg, t0, t1):
    """g = E + l, the log of f dk/dt, at the GK15 nodes of the
    [t0, t1] panels, one row per panel; ``leg`` holds each panel's leg
    index in ascending order.

    Each leg maps its own block of nodes to k and l = log(k^{-p} dk/dt),
    and one call of ``exponent`` covers all of them.  Run it with numpy's
    floating-point warnings off: a value off float64 stays in its panel.
    """
    ts = _nodes(t0, t1)
    edges = leg.searchsorted(np.arange(len(legs) + 1)).tolist()
    maps = [legs[j].map(ts[lo:hi].ravel(), power)
            for j, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])) if hi > lo]
    k, ell = (np.concatenate(part).reshape(ts.shape) for part in zip(*maps))
    return exponent(coeffs, k) + ell


def _eval_panels(t0, t1, g):
    """GK15 on a batch of [t0, t1] panels from g = log(f dk/dt) at their
    nodes, with f dk/dt = exp(g) one exponential over all of them.

    The error estimate is the QUADPACK rescaling of |K15 - G7|, which
    credits the Kronrod value with its actual convergence rate instead of
    the pessimistic raw difference.  The third array, resasc + |K15|,
    bounds each panel's integral of |f dk/dt| from above.
    """
    hw = 0.5 * (t1 - t0)
    f = np.exp(g)
    resk = (f * _WGK_C).sum(axis=1)
    kron = resk * hw
    size = np.abs(kron)
    raw = np.abs(resk - (f * _WG_C).sum(axis=1))
    resasc = (np.abs(f - 0.5 * resk[:, None]) * _WGK).sum(axis=1)
    # both sums without the factor hw; fmin reads the quotient 0/0 as 1,
    # so a panel whose f is constant (resasc 0) keeps only the rounding
    # floor below
    ratio = 200.0 * raw / resasc
    resasc *= hw
    err = resasc * np.fmin(1.0, ratio * np.sqrt(ratio))
    return kron, np.maximum(err, 4e-16 * size), resasc + size


def _first_round(legs, coeffs, power):
    """The first round's ``_START_PANELS`` even panels per leg, as (leg,
    t0, t1, g), read before any exponential; None if e^{E} leaves float64
    on one of their nodes (Re E > log of the largest float64) or E is NaN
    there: no panel of such a path is worth evaluating.

    Each leg maps the constant node table ``_START_T`` straight to k and
    l, and one call of ``exponent`` covers all legs; (leg, t0, t1) are
    read-only slices of the constant tables, so a path has 1 to
    ``_MAX_LEGS`` (4) legs, and any other count raises ValueError.  Run
    it with numpy's floating-point warnings off.

    On a ``DecayLeg``, a finite f dk/dt at the inner end must sit at least
    4.6 e-folds below the leg maximum over these nodes, or
    DegenerateGeometry is raised; the node next to the inner end stands
    for it.
    """
    if not 1 <= len(legs) <= _MAX_LEGS:
        raise ValueError(f"a path has 1 to {_MAX_LEGS} legs, not {len(legs)}")
    n = len(legs) * _START_PANELS
    k, ell = (np.concatenate(part).reshape(n, 15)
              for part in zip(*(lg.map(_START_T, power) for lg in legs)))
    ex = exponent(coeffs, k)
    g = ex + ell
    for lg, row in zip(legs, g.real.reshape(len(legs), -1)):
        if isinstance(lg, DecayLeg):
            inner = row[0] if lg.outward else row[-1]
            # an infinite or NaN inner value compares false, and so does
            # any value of a row with a NaN
            if _MAX_EXPONENT >= inner > max(row.max(), _LOG_TINY) + _DECAY_DROP:
                raise DegenerateGeometry("integrand does not decay toward the inner "
                                         f"end of the leg at angle {lg.theta:.6f}")
    # the complex maximum has the largest Re E, and is NaN if any Re E or
    # Im E is
    top = complex(ex.max())
    if not top.real <= _MAX_EXPONENT or cmath.isnan(top):
        return None
    return _START_LEG[:n], _START_T0[:n], _START_T1[:n], g


def integrate_legs(legs, coeffs, power, tol):
    """Adaptively integrate e^{E(k)} k^{-p} dk over a chain of legs.

    Parameters
    ----------
    legs : sequence of 1 to 4 leg objects, as many as the first round's
        constant tables hold (the longest path built is 4 legs); another
        count raises ValueError
    coeffs : (a, b, c), the exponent E(k) = i(a k + b/k + c k^3/12)
    power : real p; k^{-p} takes the branch of each leg's map
    tol : relative tolerance in ``TOL_RANGE``, [1e-14, 1e-4]; the target
        is that the GK15 estimate meets tol * max(1, |value|); the
        reported ``abs_err_est`` adds the rounding floor of ``QuadResult``
        and may sit above it

    No round starts once the integrand has been evaluated on
    ``_MAX_NODES`` (400 000) nodes, the one ceiling of both integrals; the
    round that reaches it runs to its end.  A round gives each live panel
    at most ``_MAX_CHILDREN`` (8) children, so it adds fewer than 8 times
    the ceiling in nodes (about 100 bytes each while it runs), and
    ``nodes`` stays below 9 times the ceiling.

    Returns
    -------
    QuadResult that met the target (``stop`` is ``"converged"``).

    Raises
    ------
    ValueError
        if ``tol`` lies outside ``TOL_RANGE`` or is NaN, before any node
        is mapped.
    ToleranceNotMet
        if the loop stops short of the target; the unconverged QuadResult,
        whose ``stop`` says why, rides on the exception's ``result``.  An
        exponent with Re E past log(float64 max) ~ 709.78, or NaN, on a
        node of the first round stops it as ``non_finite`` before any
        exponential is formed (0 nodes).
    DegenerateGeometry
        if the integrand of a ``DecayLeg`` is finite at its inner end but
        does not decay toward it.
    """
    # NaN fails both comparisons, so it is rejected too
    if not TOL_RANGE[0] <= tol <= TOL_RANGE[1]:
        raise ValueError("tol must lie in [%.0e, %.0e]" % TOL_RANGE)
    # a value off float64 stays in a panel, which stops the loop as non_finite
    with np.errstate(all="ignore"):
        start = _first_round(legs, coeffs, power)
        res = (QuadResult(complex(math.nan, math.nan), math.inf, 0, "non_finite") if start is None
               else _bisect(legs, coeffs, power, tol, *start))
    if not res.converged:
        raise ToleranceNotMet(f"error {res.abs_err_est:.3g} above target after {res.nodes} "
                              f"nodes (stop: {res.stop})", result=res)
    return res


def _bisect(legs, coeffs, power, tol, leg, t0, t1, g):
    """The adaptive loop of ``integrate_legs`` from the first round's
    panels and their g, as a QuadResult of any ``stop``.

    The variation V that sizes a split is formed only once the stop test
    has said that another round follows, for the panels the last round
    evaluated; older panels keep the V of the round that made them.
    """
    # panels live in path order, as arrays: leg index, [t0, t1], GK15
    # value, error, bound of the integral of |f dk/dt| and variation of g
    vals, errs, sizes = _eval_panels(t0, t1, g)
    var, child = np.empty(len(t0)), slice(None)
    nodes = g.size
    stall = 0
    prev_err = math.inf
    while True:
        total = complex(vals.sum())
        err_tot = float(errs.sum())
        if not (math.isfinite(err_tot) and cmath.isfinite(total)):
            return QuadResult(total, math.inf, nodes, "non_finite")
        goal = tol * max(1.0, abs(total))
        # rounding plateau: splitting no longer reduces the estimate,
        # the remaining error is the float64 floor of this path geometry
        stall = stall + 1 if err_tot > 0.7 * prev_err else 0
        stop = ("converged" if err_tot <= goal else "node_ceiling" if nodes >= _MAX_NODES
                else "plateau" if stall >= 4 else None)
        if stop:
            # the reported estimate is at least QUADPACK's rounding floor
            # of a sum that cancels, 50 eps times the integral of |f dk/dt|
            return QuadResult(total, max(err_tot, _ROUNDING * float(sizes.sum())), nodes, stop)
        prev_err = err_tot
        # another round follows, so the panels just evaluated need the
        # variation of g that sizes their split
        var[child] = np.abs(g[:, 1:] - g[:, :-1]).sum(axis=1)

        # err_tot > goal puts the largest error above goal / n, so at
        # least one panel splits, into 2 + V/5 even children (fmin caps
        # them and reads a NaN V as the cap); each becomes its children
        # in place, so the arrays stay in path order and every leg's
        # panels stay contiguous
        split = errs > goal / (2.0 * len(errs))
        count = np.where(split, np.fmin(2.0 + var / 5.0, _MAX_CHILDREN), 1.0).astype(int)
        child = split.repeat(count).nonzero()[0]
        t0, t1 = _split(count, t0, t1)
        leg, vals, errs, sizes, var = (a.repeat(count) for a in (leg, vals, errs, sizes, var))
        g = _log_integrand(legs, coeffs, power, leg[child], t0[child], t1[child])
        vals[child], errs[child], sizes[child] = _eval_panels(t0[child], t1[child], g)
        nodes += g.size


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


# the tolerances integrate_legs and the command line's --tol accept: below
# 1e-14 the target nears the rounding floor 50 eps, above 1e-4 the first
# round alone would pass for converged; every entry defaults to DEFAULT_TOL
TOL_RANGE = (1e-14, 1e-4)
DEFAULT_TOL = 1e-10

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
    if (a * cap + b) * cap * cap + (0.0 if c > 0.0 else c) * cap < lam:
        raise DegenerateGeometry(f"path tail would reach past radius {cap:g}")
    x = _largest_root(a, b, c, lam)
    # x = y - s cancels once the shift s = b/(3a) is above x (and y leaves
    # float64 once s^3 does); the cubic in 1/x, lam y^3 - c y^2 - b y = a,
    # has one positive root and the shift -c/(3 lam), which is 0 for c = 0
    # and adds to y for c > 0
    return x if x >= b / (3.0 * a) else 1.0 / _largest_root(lam, -c, -b, a)


def check_reach(r: float, cap: float, legs, coeffs, power) -> None:
    """DegenerateGeometry when the path ``legs`` must pass radius r > cap.

    It reads the path's exponent on the nodes of the first round of
    ``integrate_legs``, through the same helper: a path whose e^{E}
    already leaves float64 there is left to ``integrate_legs``, which
    stops it as ``non_finite`` after 0 nodes.
    """
    if r > cap:
        with np.errstate(all="ignore"):
            if _first_round(legs, coeffs, power) is not None:
                raise DegenerateGeometry(f"path would pass radius {r:g}, past its cap {cap:g}")


def decay_span(r: float, r_min: float) -> float:
    """``s_max`` of a decay leg from radius r in to r_min: log(r / r_min),
    but at least 6, and infinite for r_min = 0."""
    if r_min == 0.0:
        return math.inf
    return max(math.log(max(r / r_min, 2.0)), 6.0)
