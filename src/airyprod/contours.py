"""Integration contours and the half-line Laplace integral in the k plane.

The central object is the integral

    I_C(z; z0) = Int_C exp[i(z + z0/2)k - i z0^2/(4k) + i k^3/12] dk / k^(1/2)

whose contours C connect the three asymptotic valleys of the cubic term,

    V1 = (0, pi/3),   V2 = (-2pi/3, -pi/3),   V3 = (-4pi/3, -pi)

in continued arg-k coordinates, and/or the origin, where the essential
factor e^{-i z0^2/(4k)} decays inside the "internal valley" of angles
(2 arg z0, 2 arg z0 + pi) mod 2pi.  The branch of k^(1/2) is anchored by
arg k = 0 on the positive real axis with a cut along
arg k = pi/2 + arg z0, or along that of -z0 where the ends lie on the cut
of -z0 (below).  Every leg carries its angle as a continuous lift, so
crossing the cut ray while tracking the lift is an allowed, value-neutral
deformation; what is forbidden, and checked, is a discontinuous jump of
the lift.

A path is named by its pair of ends (start, end), each a valley
``V1``, ``V2``, ``V3`` or k = 0 on the ``up`` or ``low`` side of the cut.
Five such pairs have names, the contour kinds (``_ENDS``):

    L+ : V3 -> V2          L- : V1 -> V2           (valley-to-valley)
    R- : up -> V1          R+ : low -> V3          (origin-to-valley)
    O  : up -> low         (around the cut, ends on opposite sides)

An end at k = 0 is approached along the steepest-descent direction of
the essential factor, the center of the internal valley, which makes the
endpoint integrand decay purely exponentially with no oscillation.  The
two sides of the cut are named so that each end continues analytically
in z0 across arg z0 = +-pi/2 and pi: "up", where R- and O start, lies at
lift 2 arg z0 + pi/2 and "low", where R+ starts and O ends, at
2 arg z0 - 3 pi/2, both mod 4 pi.  The lifts matter only mod 4 pi: in
s = k^(1/2) the integrand 2 e^{E(s^2)} is even, so two turns around
k = 0 integrate to zero.  So each named integral is one analytic
function of z0, and the products are one formula at every shift.
Which cut the ends lie on is one comparison.  At zero shift
(b = -z0^2/4 == 0, every z0 whose square underflows included) the
angle is 0: up at pi/2, low at -3 pi/2.  Any other shift keeps the cut
of z0 unless |arg z0| - pi/2 > 1e-12, where the ends lie on the cut of
-z0 with their names swapped, up at 2 arg(-z0) - 3 pi/2 and low one turn
above it; the lifts of the cut of z0 itself, the same mod 4 pi, take up
to 82% more nodes there.  At zero shift there is no essential factor,
the integrand is finite at k = 0 but for the k^(-1/2) weight, and an end
leg reaches k = 0 exactly along the same lifted angle (``OriginLeg``,
k = r u^2, which absorbs the weight); elsewhere it is a decay leg cut
where the essential factor has fallen to e^{-lambda}.  One builder
makes every path from its ends: a ray in from the start valley or an
end leg out of k = 0, one arc at the turn radius, and a ray out to the
end valley or an end leg into k = 0.  A built path (``ContourPath``) is
those three legs and the coefficients of its exponent, nothing more.

The geometry is closed-form.  With beta = z + z0/2 the exponent
E(k) = i(beta k - z0^2/(4k) + k^3/12), the coefficients
(a, b, c) = (beta, -z0^2/4, 1) of the exponent family of
``quadrature``, has the four saddles
k = +-i(sqrt(z+z0) +- sqrt(z)) (``saddles``).  Each valley's tail angle
minimizes the exact crest of Re E along its ray (the z0 term dropped),
the truncation radius is the positive root of a cubic, and each turn
radius is a saddle modulus or a fixed floor: on a path with a valley
ray the largest whose crest of Re E along the arc lies within two
e-folds of the lowest, on the origin loop the one with the lowest crest.

The numerics are fixed, and the tail rules are those of ``quadrature``,
which the time integral of ``greens`` shares:

* the integrand is cut where it falls to e^{-lambda} = 1e-13
  (``TAIL_LAMBDA``);
* each truncation radius is ``tail_radius`` of
  d R^3 - 12|beta| R = 12 lambda, d = sin(3 theta), capped at 80, so
  building a contour raises DegenerateGeometry beyond
  |z + z0/2| = 231.03;
* at z0 != 0 an endpoint decay leg spans ``decay_span`` from
  4 lambda r_arc in to |z0|^2, where the essential factor has fallen to
  e^{-lambda}, clipped at 2 lambda + 4; at zero shift nothing is cut;
* no round of panel splits starts once an integral has taken 400 000
  nodes: one ceiling for both integrals, ``_MAX_NODES`` in ``quadrature``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
import cmath
import math

import numpy as np

from .errors import NonFiniteInput
from .quadrature import (DEFAULT_TOL, TAIL_LAMBDA, ArcLeg, DecayLeg, OriginLeg, QuadResult,
                         RayLeg, decay_span, exponent, integrate_legs, tail_radius)

__all__ = [
    "ContourKind",
    "ContourPath",
    "build_contour",
    "laplace_integral",
    "saddles",
    "VALLEY_SECTORS",
]

_PI = math.pi

#: Asymptotic valleys of e^{i k^3/12} in continued arg-k coordinates.
VALLEY_SECTORS = ((0.0, _PI / 3.0), (-2.0 * _PI / 3.0, -_PI / 3.0), (-4.0 * _PI / 3.0, -_PI))

# the ends move to the cut of -z0 where |arg z0| passes pi/2 by more than
# this.  shifted_grid's boundary points sit within 1e-13 of
# |arg z0| = pi/2, on both sides of the switch; the margin keeps every
# one of them on the cut of z0, on the paths their values were pinned on
_CUT_SWITCH_MARGIN = 1e-12

# no contour reaches beyond radius 80; the cut depth and the node ceiling
# are quadrature's
_TRUNCATION_CEILING = 80.0


def _modulus(w: complex) -> float:
    """|w|, and inf where finite parts give a modulus past float64."""
    try:
        return abs(w)
    except OverflowError:
        return math.inf


class ContourKind(Enum):
    """The name of one pair of ends in ``_ENDS``."""

    L_PLUS = "L+"
    L_MINUS = "L-"
    R_PLUS = "R+"
    R_MINUS = "R-"
    O = "O"


#: The ends a path may join: the valleys V1, V2, V3 of VALLEY_SECTORS and
#: k = 0 on the "up" or "low" side of the cut.
_END_NAMES = ("V1", "V2", "V3", "up", "low")

#: Each kind's start and end.
_ENDS = {
    ContourKind.L_PLUS: ("V3", "V2"),
    ContourKind.L_MINUS: ("V1", "V2"),
    ContourKind.R_PLUS: ("low", "V3"),
    ContourKind.R_MINUS: ("up", "V1"),
    ContourKind.O: ("up", "low"),
}


def _finite_pair(name: str, z, z0) -> tuple[complex, complex]:
    """(z, z0) as complex numbers; NonFiniteInput if either is not finite."""
    z, z0 = complex(z), complex(z0)
    if not (cmath.isfinite(z) and cmath.isfinite(z0)):
        raise NonFiniteInput(f"{name}: arguments must be finite")
    return z, z0


@dataclass(frozen=True)
class ContourPath:
    """An immutable, fully built integration path.

    ``segments`` is the ordered leg chain, each leg with its continuously
    tracked angle; the middle leg is the arc, whose radius is the turn
    radius.  ``coeffs`` are the (a, b, c) = (z + z0/2, -z0^2/4, 1) of the
    exponent the path was built for.  ``laplace_integral`` reads these two
    alone; the kind and (z, z0) stay with the caller.
    """

    segments: tuple
    coeffs: tuple


def saddles(z: complex, z0: complex) -> tuple:
    """The four roots k = +-i(sqrt(z+z0) +- sqrt(z)) of k^4 + 4 beta k^2 + z0^2.

    That quartic is 4k^2 E'(k)/i for the exponent
    E(k) = i(beta k - z0^2/(4k) + k^3/12), beta = z + z0/2, so its
    nonzero roots are the saddles of the integrand.  At z0 = 0 the pair
    i(sqrt(z+z0) - sqrt(z)) collapses onto k = 0, which is then no saddle.
    Order: i(s+ + s), i(s+ - s), -i(s+ + s), -i(s+ - s), where s+ and s are
    the principal square roots of z + z0 and z.  Raises NonFiniteInput for
    a non-finite z or z0.
    """
    z, z0 = _finite_pair("saddles", z, z0)
    s_shift, s = cmath.sqrt(z + z0), cmath.sqrt(z)
    outer, inner = 1j * (s_shift + s), 1j * (s_shift - s)
    return outer, inner, -outer, -inner


def _tail_candidates(valley):
    """Seven interior angles of a valley as (theta, cos theta, sin theta)."""
    lo, hi = valley
    margin = (hi - lo) / 7.0
    step = (hi - lo - 2.0 * margin) / 6.0
    return tuple((th, math.cos(th), math.sin(th))
                 for th in (lo + margin + j * step for j in range(7)))


_TAIL_CANDIDATES = tuple(_tail_candidates(v) for v in VALLEY_SECTORS)
# the cubic decay rate sin(3 theta) at the j-th candidate is the same in
# every valley, and so is the truncation radius it implies
_TAIL_DECAYS = tuple(math.sin(3.0 * th) for th, _, _ in _TAIL_CANDIDATES[0])
# complex, as are the candidate radii, so that no product of the sweep
# casts an operand
_ARC_SWEEP = np.linspace(0.0, 1.0, 65).astype(complex)
_ARC_SWEEP.flags.writeable = False


def _tails(beta: complex):
    """Tail angle and truncation radius in each valley.

    Without the z0 term, Re E along k = r e^{i theta} is -A r - B r^3 with
    A = |beta| sin(theta + arg beta) and B = sin(3 theta)/12 > 0 inside
    a valley, so the crest of the outgoing ray lies at 0 when A >= 0 and
    at r* = sqrt(-A/3B), raised to 0.2, otherwise; r* < R(theta), since
    R^3 d/12 = lambda + |beta| R gives R^2 > 12|beta|/d >= 3 r*^2.  Of seven
    interior angles per valley the lowest crest + 0.02 R(theta) wins: the
    truncation radius comes from each angle's own cubic decay rate, so
    slow near-edge angles pay their real price.
    """
    # (R^3/12) d = lambda + |beta| R, times 12
    c, lam = -12.0 * _modulus(beta), 12.0 * TAIL_LAMBDA
    radii = [tail_radius(d, 0.0, c, lam, _TRUNCATION_CEILING) for d in _TAIL_DECAYS]
    re, im = beta.real, beta.imag
    out = []
    for cands in _TAIL_CANDIDATES:
        best = math.inf
        for (th, cos_th, sin_th), d, r_tr in zip(cands, _TAIL_DECAYS, radii):
            a = re * sin_th + im * cos_th
            score = 0.02 * r_tr
            if a < 0.0:  # the crest lies off the start of the ray
                r = math.sqrt(-4.0 * a / d)
                r = r if r > 0.2 else 0.2
                score += -r * (a + d * r * r / 12.0)
            if score < best:
                best, tail = score, (th, r_tr)
        out.append(tail)
    return out


def _pick_arc_radius(coeffs, th_a, th_b, candidates, margin):
    """The largest arc radius whose crest, the largest Re E over the
    angular sweep, lies within ``margin`` e-folds of the lowest crest.

    ``build_contour`` passes two e-folds for a path with a valley ray:
    needlessly small arcs push the k^(-1/2) slope onto linearly
    panelized rays, which adaptive bisection resolves slowly, and within
    one e-fold the panel next to the arc still split on many paths in a
    later round.  A path between two ends at k = 0 has no ray and gets 0:
    a larger arc only raises the float64 floor of the loop, whose value
    vanishes at zero shift.
    """
    phases = np.exp(_ARC_SWEEP * (1j * (th_b - th_a)) + 1j * th_a)
    points = np.multiply.outer(np.array(candidates, complex), phases)
    crests = exponent(coeffs, points).real.max(axis=1).tolist()
    lowest = min(crests)
    return max(r for r, m in zip(candidates, crests) if m <= lowest + margin)


def _ends(kind) -> tuple:
    """The (start, end) names of a ``ContourKind`` or of a pair of them."""
    if isinstance(kind, ContourKind):
        return _ENDS[kind]
    if (isinstance(kind, tuple) and len(kind) == 2 and kind[0] != kind[1]
            and kind[0] in _END_NAMES and kind[1] in _END_NAMES):
        return kind
    raise ValueError(f"unknown contour kind: {kind!r}")


def build_contour(kind: ContourKind | tuple, z: complex, z0: complex) -> ContourPath:
    """Construct the path of ``kind`` for the given (z, z0).

    ``kind`` is a ``ContourKind`` or a (start, end) pair of the end names
    ``V1``, ``V2``, ``V3``, ``up`` and ``low``, with start != end.  Every
    path is defined at every shift, and its ends continue analytically
    in z0.  They lie on the cut of z0, at angle 0 where b = -z0^2/4 == 0,
    and on the cut of -z0 with its sides swapped where
    |arg z0| - pi/2 > 1e-12.  Each path joins its two ends with a ray in
    from the start (or an end leg out of k = 0), one arc, and a ray out
    to the end (or an end leg into k = 0).  An end leg reaches k = 0 exactly
    (``OriginLeg``) where the exponent has no b/k term, b = -z0^2/4 == 0,
    and is a ``DecayLeg`` cut where the essential factor has fallen to
    e^{-lambda} everywhere else.  The geometry is closed-form: in each
    valley the tail angle minimizes the exact crest of Re E without the
    z0 term along its ray, the truncation radius is the positive root of
    a cubic, and the turn radius is one of the two saddle moduli
    |sqrt(z+z0) +- sqrt(z)| and a fixed floor: on a path with a valley
    end the largest whose crest of Re E along the arc lies within two
    e-folds of the lowest, and on a path between two ends at k = 0 the
    one with the lowest crest.  Raises ValueError for any other
    ``kind``, DegenerateGeometry when the required truncation
    radius exceeds the ceiling of 80, which happens beyond
    |z + z0/2| = 231.03, and NonFiniteInput for a non-finite z or z0 and
    when the coefficient z0^2/4 of the exponent overflows float64 (|z0|
    above about 1.3e154).
    """
    start, end = _ends(kind)
    z, z0 = _finite_pair("build_contour", z, z0)
    coeffs = (z + 0.5 * z0, -z0 * z0 / 4.0, 1.0)
    tails = _tails(coeffs[0])
    if not cmath.isfinite(coeffs[1]):
        raise NonFiniteInput("build_contour: z0^2/4 overflows float64")
    r_trunc = max(tails[0][1], tails[1][1], tails[2][1])

    # an end is (angle, radius): a valley's tail ray out to its truncation
    # radius, or radius 0 for k = 0 reached along the steepest descent ray
    # of the essential factor, on either side of the cut; in _END_NAMES order
    a = 0.0 if coeffs[1] == 0.0 else cmath.phase(z0)
    swap = abs(a) - _PI / 2.0 > _CUT_SWITCH_MARGIN
    theta_up = 2.0 * (cmath.phase(-z0) if swap else a) + _PI / 2.0
    sides = ((theta_up, 0.0), (theta_up - 2.0 * _PI, 0.0))
    if swap:
        # -z0's cut with its sides swapped: each end continues in z0
        sides = sides[::-1]
    ends = (*tails, *sides)
    (th_a, r_a), (th_b, r_b) = ends[_END_NAMES.index(start)], ends[_END_NAMES.index(end)]
    valley = r_a > 0.0 or r_b > 0.0
    origin = r_a == 0.0 or r_b == 0.0

    # candidate turn radii: the saddle moduli and the floor of the path
    # family; the floor keeps a usable arc when both saddles sit at k ~ 0
    outer, inner = saddles(z, z0)[:2]
    floor = 0.5 if origin else 1.0
    # r_trunc >= (12 lambda)^(1/3) ~ 7.1, so the clip keeps the floor, and
    # the floor passes the filter below: no candidate list is ever empty
    cand = [max(2e-3, min(0.85 * r_trunc, r)) for r in (abs(outer), abs(inner), floor)]
    # rays into a valley are linearly panelized and must not start in the
    # sqrt-singular region; a path from the origin crosses near the
    # essential/linear balance radius, and large radii only stretch its
    # endpoint leg
    cand = [c for c in cand if not (valley and c < 0.05 or origin and c > 3.0)]
    r_arc = (cand[0] if len(cand) == 1
             else _pick_arc_radius(coeffs, th_a, th_b, cand, 2.0 if valley else 0.0))

    if coeffs[1] == 0.0:
        # no essential factor: the integrand is finite at k = 0, where an
        # end leg arrives exactly
        end_leg = partial(OriginLeg, r_outer=r_arc)
    else:
        # run an endpoint leg until the essential factor falls below
        # e^{-lambda} along the steepest ray (|z0^2/(4k)| >= lambda); the
        # sqrt-measure criterion alone caps the stub when z0 ~ 0
        s_max = min(decay_span(4.0 * TAIL_LAMBDA * r_arc, abs(z0) ** 2),
                    2.0 * TAIL_LAMBDA + 4.0)
        end_leg = partial(DecayLeg, r_outer=r_arc, s_max=s_max)
    legs = (
        RayLeg(th_a, r_a, r_arc) if r_a > 0.0 else end_leg(th_a, outward=True),
        ArcLeg(r_arc, th_a, th_b),
        RayLeg(th_b, r_arc, r_b) if r_b > 0.0 else end_leg(th_b, outward=False),
    )
    return ContourPath(legs, coeffs)


def laplace_integral(path: ContourPath, tol: float = DEFAULT_TOL) -> QuadResult:
    """Evaluate I_C(z; z0) along a built path by adaptive quadrature of
    the exponent ``path.coeffs`` it was built for.

    ``tol`` defaults to ``quadrature.DEFAULT_TOL`` (1e-10), and
    ``integrate_legs`` rejects it outside ``quadrature.TOL_RANGE``,
    [1e-14, 1e-4] (ValueError, NaN included), as for every path integral.
    On success the GK15 error estimate met tol * max(1, |value|); the
    reported abs_err_est is at least the rounding floor 50 eps times the
    integral of |f dk|, so it may sit above that target where the integral
    cancels.  The k^(1/2) branch uses each leg's continuously tracked angle.

    Raises
    ------
    ValueError
        if ``tol`` lies outside ``quadrature.TOL_RANGE`` or is NaN.
    DegenerateGeometry
        if the integrand is finite at the inner end of an endpoint decay
        leg but does not decay toward k = 0 there (a path whose inner ray
        points outside the internal valley).
    ToleranceNotMet
        if the quadrature stops short of the target (its ``stop`` says
        why); the best estimate rides on the exception's ``result``
        attribute.
    """
    return integrate_legs(path.segments, path.coeffs, 0.5, tol)
