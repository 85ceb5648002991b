"""Integration contours and the half-line Laplace integral in the k plane.

The central object is the integral

    I_C(z; z0) = Int_C exp[i(z + z0/2)k - i z0^2/(4k) + i k^3/12] dk / k^(1/2)

whose contours C connect the three asymptotic valleys of the cubic term,

    V1 = (0, pi/3),   V2 = (-2pi/3, -pi/3),   V3 = (-4pi/3, -pi)

in continued arg-k coordinates, and/or the origin, where the essential
factor e^{-i z0^2/(4k)} decays inside the "internal valley" of angles
(2 arg z0, 2 arg z0 + pi) mod 2pi.  The branch of k^(1/2) is anchored by
arg k = 0 on the positive real axis with a cut along
arg k = pi/2 + arg z0 (for |arg z0| <= pi/2; for larger |arg z0| the cut
and the origin contours are those of -z0).  Every leg carries its angle
as a continuous lift, so crossing the cut ray while tracking the lift is
an allowed, value-neutral deformation; what is forbidden, and checked,
is a discontinuous jump of the lift.

A path is named by its pair of ends (start, end), each a valley
``V1``, ``V2``, ``V3`` or k = 0 on the ``up`` or ``low`` side of the cut.
Five such pairs have names, the contour kinds (``_ENDS``):

    L+ : V3 -> V2          L- : V1 -> V2           (valley-to-valley)
    R- : up -> V1          R+ : low -> V3          (origin-to-valley)
    O  : up -> low         (around the cut, ends on opposite sides)

An end at k = 0 is approached along the steepest-descent direction of
the essential factor (the center of the internal valley, lifted to the
"up" side of the cut, where R- and O start, or the "low" side, one turn
below, where R+ starts and O ends), which makes the endpoint integrand
decay purely exponentially with no oscillation and keeps the
construction uniformly accurate up to |arg z0| = pi/2, where the
near-cut region of the internal valley degenerates.  One builder makes
every path from its ends: a ray in from the start valley or a decay leg
out of k = 0, one arc at the turn radius, and a ray out to the end
valley or a decay leg into k = 0.

The geometry is closed-form.  With beta = z + z0/2 the exponent
E(k) = i(beta k - z0^2/(4k) + k^3/12), the coefficients
(a, b, c) = (beta, -z0^2/4, 1) of the exponent family of
``quadrature``, has the four saddles
k = +-i(sqrt(z+z0) +- sqrt(z)) (``saddles``).  Each valley's tail angle
minimizes the exact crest of Re E along its ray (the z0 term dropped),
the truncation radius is the positive root of a cubic, and each turn
radius is a saddle modulus or a fixed floor, whichever keeps the crest
of Re E along the arc lowest.

The numerics are fixed, and the tail rules are those of ``quadrature``,
which the time integral of ``greens`` shares:

* the integrand is cut where it falls to e^{-lambda} = 1e-13
  (``TAIL_LAMBDA``);
* each truncation radius is ``tail_radius`` of
  d R^3 - 12|beta| R = 12 lambda, d = sin(3 theta), capped at 80, so
  building a contour raises DegenerateGeometry beyond
  |z + z0/2| = 231.03;
* an endpoint leg spans ``decay_span`` from 4 lambda r_arc in to |z0|^2,
  where the essential factor has fallen to e^{-lambda}, clipped at
  2 lambda + 4;
* no round of panel splits starts once an integral has taken 400 000
  nodes: one ceiling for both integrals, ``_MAX_NODES`` in ``quadrature``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import cmath
import math

import numpy as np

from .errors import NonFiniteInput
from .quadrature import (TAIL_LAMBDA, ArcLeg, DecayLeg, QuadResult, RayLeg, decay_span, exponent,
                         integrate_legs, tail_radius)

__all__ = [
    "Sector",
    "ContourKind",
    "ShiftedArgs",
    "ContourPath",
    "classify_sector",
    "build_contour",
    "laplace_integral",
    "saddles",
    "VALLEY_SECTORS",
]

_PI = math.pi

#: Asymptotic valleys of e^{i k^3/12} in continued arg-k coordinates.
VALLEY_SECTORS = ((0.0, _PI / 3.0), (-2.0 * _PI / 3.0, -_PI / 3.0), (-4.0 * _PI / 3.0, -_PI))

_ZERO_SHIFT = 1e-300
_BOUNDARY_TOL = 1e-12

# no contour reaches beyond radius 80; the cut depth and the node ceiling
# are quadrature's
_TRUNCATION_CEILING = 80.0


class Sector(Enum):
    """Classification of the shift z0 by |arg z0|."""

    ZERO = "zero"
    INNER = "inner"
    BOUNDARY = "boundary"
    OUTER = "outer"


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


def classify_sector(z0: complex) -> Sector:
    """Classify z0 into Zero / Inner / Boundary / Outer.

    Boundary means |arg z0| within 1e-12 of pi/2; it is dispatched like
    Inner everywhere downstream (the representations connect there by
    continuity in z0).
    """
    z0 = complex(z0)
    if not cmath.isfinite(z0):
        raise NonFiniteInput("classify_sector: z0 must be finite")
    if abs(z0) < _ZERO_SHIFT:
        return Sector.ZERO
    a = abs(cmath.phase(z0))
    if abs(a - _PI / 2.0) <= _BOUNDARY_TOL:
        return Sector.BOUNDARY
    return Sector.INNER if a < _PI / 2.0 else Sector.OUTER


@dataclass(frozen=True)
class ShiftedArgs:
    """The pair (z, z0) with its cached shift-sector classification."""

    z: complex
    z0: complex
    z0_sector: Sector

    @classmethod
    def make(cls, z: complex, z0: complex) -> "ShiftedArgs":
        z, z0 = complex(z), complex(z0)
        if not (cmath.isfinite(z) and cmath.isfinite(z0)):
            raise NonFiniteInput("ShiftedArgs: arguments must be finite")
        return cls(z, z0, classify_sector(z0))


@dataclass(frozen=True)
class ContourPath:
    """An immutable, fully built integration path.

    ``kind`` is what the path was built from, a ``ContourKind`` or a
    (start, end) pair of end names; ``segments`` is the ordered leg
    chain; ``cut_angle`` records the branch-cut ray used to anchor the
    k^(1/2) lift; ``endpoint_scale`` is the radius at which endpoint legs
    cluster exponentially toward k = 0 (for L contours, the turn radius);
    ``coeffs`` are the (a, b, c) = (z + z0/2, -z0^2/4, 1) of the exponent
    the path was built for.
    """

    kind: ContourKind | tuple
    cut_angle: float
    segments: tuple
    truncation_radius: float
    endpoint_scale: float
    coeffs: tuple


def _effective_shift_angle(args: ShiftedArgs) -> float:
    """arg z0 for Inner/Boundary/Zero, arg(-z0) for Outer."""
    if args.z0_sector is Sector.ZERO:
        return 0.0
    if args.z0_sector is Sector.OUTER:
        return cmath.phase(-args.z0)
    return cmath.phase(args.z0)


def saddles(args: ShiftedArgs) -> tuple:
    """The four roots k = +-i(sqrt(z+z0) +- sqrt(z)) of k^4 + 4 beta k^2 + z0^2.

    That quartic is 4k^2 E'(k)/i for the exponent
    E(k) = i(beta k - z0^2/(4k) + k^3/12), beta = z + z0/2, so its
    nonzero roots are the saddles of the integrand.  At z0 = 0 the pair
    i(sqrt(z+z0) - sqrt(z)) collapses onto k = 0, which is then no saddle.
    Order: i(s+ + s), i(s+ - s), -i(s+ + s), -i(s+ - s), where s+ and s are
    the principal square roots of z + z0 and z.
    """
    s_shift, s = cmath.sqrt(args.z + args.z0), cmath.sqrt(args.z)
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
    c, lam = -12.0 * abs(beta), 12.0 * TAIL_LAMBDA
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


def _pick_arc_radius(coeffs, th_a, th_b, candidates):
    """Arc radius minimizing the largest Re E over the angular sweep.

    Among radii within one e-fold of the lowest crest the largest one
    wins: needlessly small arcs push the k^(-1/2) slope onto linearly
    panelized rays, which adaptive bisection resolves slowly.
    """
    phases = np.exp(_ARC_SWEEP * (1j * (th_b - th_a)) + 1j * th_a)
    points = np.multiply.outer(np.array(candidates, complex), phases)
    crests = exponent(coeffs, points).real.max(axis=1).tolist()
    lowest = min(crests)
    return max(r for r, m in zip(candidates, crests) if m <= lowest + 1.0)


def _ends(kind) -> tuple:
    """The (start, end) names of a ``ContourKind`` or of a pair of them."""
    if isinstance(kind, ContourKind):
        return _ENDS[kind]
    if (isinstance(kind, tuple) and len(kind) == 2 and kind[0] != kind[1]
            and kind[0] in _END_NAMES and kind[1] in _END_NAMES):
        return kind
    raise ValueError(f"unknown contour kind: {kind!r}")


def build_contour(kind: ContourKind | tuple, args: ShiftedArgs) -> ContourPath:
    """Construct the path of ``kind`` for the given (z, z0).

    ``kind`` is a ``ContourKind`` or a (start, end) pair of the end names
    ``V1``, ``V2``, ``V3``, ``up`` and ``low``, with start != end.  Every
    path is defined in every shift sector (Outer uses the cut and origin
    contours of -z0), and each joins its two ends with a ray in from the
    start (or a decay leg out of k = 0), one arc, and a ray out to the
    end (or a decay leg into k = 0).  The geometry is closed-form: in
    each valley the tail angle minimizes the exact crest of Re E without
    the z0 term along its ray, the truncation radius is the positive root
    of a cubic, and the turn radius is one of the two saddle moduli
    |sqrt(z+z0) +- sqrt(z)| or a fixed floor, whichever keeps the crest
    of Re E along the arc lowest.  Raises ValueError for any other
    ``kind``, DegenerateGeometry when the required truncation
    radius exceeds the ceiling of 80, which happens beyond
    |z + z0/2| = 231.03, and NonFiniteInput when the coefficient
    z0^2/4 of the exponent overflows float64 (|z0| above about 1.3e154).
    """
    start, end = _ends(kind)
    a = _effective_shift_angle(args)
    coeffs = (args.z + 0.5 * args.z0, -args.z0 * args.z0 / 4.0, 1.0)
    tails = _tails(coeffs[0])
    if not cmath.isfinite(coeffs[1]):
        raise NonFiniteInput("build_contour: z0^2/4 overflows float64")
    r_trunc = max(tails[0][1], tails[1][1], tails[2][1])

    # an end is (angle, radius): a valley's tail ray out to its truncation
    # radius, or radius 0 for k = 0 reached along the steepest descent ray
    # of the essential factor, on either side of the cut; in _END_NAMES order
    theta_up = 2.0 * a + _PI / 2.0
    ends = (*tails, (theta_up, 0.0), (theta_up - 2.0 * _PI, 0.0))
    (th_a, r_a), (th_b, r_b) = ends[_END_NAMES.index(start)], ends[_END_NAMES.index(end)]
    valley = r_a > 0.0 or r_b > 0.0
    origin = r_a == 0.0 or r_b == 0.0

    # candidate turn radii: the saddle moduli and the floor of the path
    # family; the floor keeps a usable arc when both saddles sit at k ~ 0
    outer, inner = saddles(args)[:2]
    floor = 0.5 if origin else 1.0
    # r_trunc >= (12 lambda)^(1/3) ~ 7.1, so the clip keeps the floor, and
    # the floor passes the filter below: no candidate list is ever empty
    cand = [max(2e-3, min(0.85 * r_trunc, r)) for r in (abs(outer), abs(inner), floor)]
    # rays into a valley are linearly panelized and must not start in the
    # sqrt-singular region; a path from the origin crosses near the
    # essential/linear balance radius, and large radii only stretch its
    # endpoint leg
    cand = [c for c in cand if not (valley and c < 0.05 or origin and c > 3.0)]
    r_arc = cand[0] if len(cand) == 1 else _pick_arc_radius(coeffs, th_a, th_b, cand)

    # run an endpoint leg until the essential factor falls below
    # e^{-lambda} along the steepest ray (|z0^2/(4k)| >= lambda); the
    # sqrt-measure criterion alone caps the stub when z0 ~ 0
    s_max = min(decay_span(4.0 * TAIL_LAMBDA * r_arc, abs(args.z0) ** 2),
                2.0 * TAIL_LAMBDA + 4.0)
    legs = (
        RayLeg(th_a, r_a, r_arc) if r_a > 0.0 else DecayLeg(th_a, r_arc, s_max, outward=True),
        ArcLeg(r_arc, th_a, th_b),
        RayLeg(th_b, r_arc, r_b) if r_b > 0.0 else DecayLeg(th_b, r_arc, s_max, outward=False),
    )
    return ContourPath(kind, _PI / 2.0 + a, legs, r_trunc, r_arc, coeffs)


def laplace_integral(path: ContourPath, tol: float = 1e-10) -> QuadResult:
    """Evaluate I_C(z; z0) along a built path by adaptive quadrature of
    the exponent ``path.coeffs`` it was built for.

    On success the GK15 error estimate met tol * max(1, |value|); the
    reported abs_err_est is at least the rounding floor 50 eps times the
    integral of |f dk|, so it may sit above that target where the integral
    cancels.  The k^(1/2) branch uses each leg's continuously tracked angle.

    Raises
    ------
    DegenerateGeometry
        if the integrand is finite at the inner end of an endpoint leg
        but does not decay toward k = 0 there (a path whose inner ray
        points outside the internal valley).
    ToleranceNotMet
        if the quadrature stops short of the target (its ``stop`` says
        why); the best estimate rides on the exception's ``result``
        attribute.
    """
    if not (1e-14 <= tol <= 1e-4):
        raise ValueError("laplace_integral: tol must lie in [1e-14, 1e-4]")
    return integrate_legs(path.segments, path.coeffs, 0.5, tol)
