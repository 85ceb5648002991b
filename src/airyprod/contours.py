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

Five contour kinds are provided:

    L+ : V3 -> V2          L- : V1 -> V2           (valley-to-valley)
    R- : 0 -> V1           R+ : 0 -> V3            (origin-to-valley)
    O  : 0 -> 0            (around the cut, ends on opposite sides)

The inner ends of R+/R-/O approach k = 0 along the steepest-descent
direction of the essential factor (the center of the internal valley,
lifted to the side of the cut each contour starts on), which makes the
endpoint integrand decay purely exponentially with no oscillation and
keeps the construction uniformly accurate up to |arg z0| = pi/2, where
the near-cut region of the internal valley degenerates.

The geometry is closed-form.  With beta = z + z0/2 the exponent
E(k) = i(beta k - z0^2/(4k) + k^3/12) has the four saddles
k = +-i(sqrt(z+z0) +- sqrt(z)) (``saddles``).  Each valley's tail angle
minimizes the exact crest of Re E along its ray (the z0 term dropped),
the truncation radius is the positive root of a cubic, and each turn
radius is a saddle modulus or a fixed floor, whichever keeps the crest
of Re E along the arc lowest.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import cmath
import math

import numpy as np

from .errors import (
    DegenerateGeometry,
    EndpointSingularity,
    InvalidKindForSector,
    NonFiniteInput,
    ToleranceNotMet,
)
from .quadrature import ArcLeg, DecayLeg, QuadResult, RayLeg, integrate_legs

__all__ = [
    "Sector",
    "ContourKind",
    "ShiftedArgs",
    "ContourConfig",
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


class Sector(Enum):
    """Classification of the shift z0 by |arg z0|."""

    ZERO = "zero"
    INNER = "inner"
    BOUNDARY = "boundary"
    OUTER = "outer"


class ContourKind(Enum):
    L_PLUS = "L+"
    L_MINUS = "L-"
    R_PLUS = "R+"
    R_MINUS = "R-"
    O = "O"


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
class ContourConfig:
    """Tunables shared by the contour builder and the quadrature.

    The geometry itself has no knobs: tail angles and turn radii follow
    from (z, z0) alone.  ``from_mapping`` ignores keys it does not know.
    """

    tail_tol: float = 1e-13          # integrand bound at truncation
    max_nodes: int = 600_000         # evaluation ceiling per integral
    truncation_ceiling: float = 80.0

    @classmethod
    def from_mapping(cls, data: dict) -> "ContourConfig":
        kwargs = {}
        for f in ("tail_tol", "truncation_ceiling"):
            if f in data:
                kwargs[f] = float(data[f])
        if "max_nodes" in data:
            kwargs["max_nodes"] = int(data["max_nodes"])
        return cls(**kwargs)


DEFAULT_CONFIG = ContourConfig()


@dataclass(frozen=True)
class ContourPath:
    """An immutable, fully built integration path.

    ``segments`` is the ordered leg chain; ``cut_angle`` records the
    branch-cut ray used to anchor the k^(1/2) lift; ``endpoint_scale``
    is the radius at which endpoint legs cluster exponentially toward
    k = 0 (for L contours, the turn radius).
    """

    kind: ContourKind
    cut_angle: float
    segments: tuple
    truncation_radius: float
    endpoint_scale: float


def _effective_shift_angle(args: ShiftedArgs) -> float:
    """arg z0 for Inner/Boundary/Zero, arg(-z0) for Outer."""
    if args.z0_sector is Sector.ZERO:
        return 0.0
    if args.z0_sector is Sector.OUTER:
        return cmath.phase(-args.z0)
    return cmath.phase(args.z0)


def _cubic_roots(p: float, q: float) -> tuple:
    """Real roots of r^3 + p r + q = 0 in ascending order (one or three)."""
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
    lo, hi = m * math.cos(phi + 2.0 * _PI / 3.0), m * math.cos(phi)
    return lo, -q / (lo * hi), hi


def _truncation_radius(beta_abs: float, config: ContourConfig, tail_decay: float) -> float:
    """Radius R with (R^3/12) * d = lambda + |beta| R, d = tail_decay.

    With lambda = -log(tail_tol), the depressed cubic R^3 + pR + q = 0
    (p = -12|beta|/d <= 0, q = -12 lambda/d < 0) has exactly one positive
    root, its largest.
    """
    lam = -math.log(config.tail_tol)
    r = _cubic_roots(-12.0 * beta_abs / tail_decay, -12.0 * lam / tail_decay)[-1]
    if r > config.truncation_ceiling:
        raise DegenerateGeometry(
            "truncation radius would exceed the configured ceiling "
            f"{config.truncation_ceiling} (|z + z0/2| = {beta_abs:.3g})"
        )
    return r


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


def _clip(x, lo, hi):
    return max(lo, min(hi, x))


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
_ARC_SWEEP = np.linspace(0.0, 1.0, 65)
_DECAY_CHECK = np.linspace(0.0, 1.0, 17)  # endpoint-decay check, fraction of s_max


def _tails(beta: complex, config: ContourConfig):
    """Tail angle and truncation radius in each valley.

    Without the z0 term, Re E along k = r e^{i theta} is -A r - B r^3 with
    A = |beta| sin(theta + arg beta) and B = sin(3 theta)/12 > 0 inside
    a valley, so the crest of the outgoing ray lies at 0 when A >= 0 and
    at r* = sqrt(-A/3B), clipped to [0.2, R(theta)], otherwise.  Of seven
    interior angles per valley the lowest crest + 0.02 R(theta) wins: the
    truncation radius comes from each angle's own cubic decay rate, so
    slow near-edge angles pay their real price.
    """
    beta_abs = abs(beta)
    radii = [_truncation_radius(beta_abs, config, d) for d in _TAIL_DECAYS]
    out = []
    for cands in _TAIL_CANDIDATES:
        best = None
        for (th, cos_th, sin_th), d, r_tr in zip(cands, _TAIL_DECAYS, radii):
            a = beta.real * sin_th + beta.imag * cos_th
            crest = 0.0
            if a < 0.0:
                r = _clip(math.sqrt(-4.0 * a / d), 0.2, r_tr)
                crest = -r * (a + d * r * r / 12.0)
            score = crest + 0.02 * r_tr
            if best is None or score < best[0]:
                best = (score, th, r_tr)
        out.append(best[1:])
    return out


def _pick_arc_radius(exponent, th_a, th_b, candidates):
    """Arc radius minimizing the largest Re E over the angular sweep.

    Among radii within one e-fold of the lowest crest the largest one
    wins: needlessly small arcs push the k^(-1/2) slope onto linearly
    panelized rays, which adaptive bisection resolves slowly.
    """
    phases = np.exp(_ARC_SWEEP * (1j * (th_b - th_a)) + 1j * th_a)
    crests = exponent(np.multiply.outer(candidates, phases)).real.max(axis=1).tolist()
    lowest = min(crests)
    return max(r for r, m in zip(candidates, crests) if m <= lowest + 1.0)


def build_contour(kind: ContourKind, args: ShiftedArgs,
                  config: ContourConfig = DEFAULT_CONFIG) -> ContourPath:
    """Construct the requested contour for the given (z, z0).

    All five kinds are defined in every shift sector (Outer uses the cut
    and origin contours of -z0).  The geometry is closed-form: in each
    valley the tail angle minimizes the exact crest of Re E without the
    z0 term along its ray, the truncation radius is the positive root of
    a cubic, and the turn radius is one of the two saddle moduli
    |sqrt(z+z0) +- sqrt(z)| or a fixed floor, whichever keeps the crest
    of Re E along the arc lowest.  Raises DegenerateGeometry when the
    required truncation radius exceeds the configured ceiling.
    """
    if not isinstance(kind, ContourKind):
        raise InvalidKindForSector(f"unknown contour kind: {kind!r}")

    a = _effective_shift_angle(args)
    cut = _PI / 2.0 + a
    beta = args.z + 0.5 * args.z0
    rho = abs(args.z0) ** 2
    lam = -math.log(config.tail_tol)
    exponent = _exponent_factory(args)

    (th1, rt1), (th2, rt2), (th3, rt3) = _tails(beta, config)
    r_trunc = max(rt1, rt2, rt3)

    # candidate turn radii: the saddle moduli and the floor of the path
    # family; the floor keeps a usable arc when both saddles sit at k ~ 0
    outer, inner = saddles(args)[:2]
    floor = 1.0 if kind in (ContourKind.L_PLUS, ContourKind.L_MINUS) else 0.5
    cand = [_clip(r, 2e-3, 0.85 * r_trunc) for r in (abs(outer), abs(inner), floor)]

    theta_up = 2.0 * a + _PI / 2.0       # steepest descent, start side of R-
    theta_low = theta_up - 2.0 * _PI     # same ray on the other side of the cut

    def s_max_for(r_outer):
        # run the endpoint leg until the essential factor falls below
        # tail_tol along the steepest ray (|z0^2/(4k)| >= lam); the
        # sqrt-measure criterion alone caps the stub when z0 ~ 0.
        if rho > 0.0:
            s_ess = math.log(max(4.0 * lam * r_outer / rho, 1.0))
        else:
            s_ess = math.inf
        return max(min(s_ess, 2.0 * lam + 4.0), 6.0)

    # legs that continue into linearly panelized rays must not start in
    # the sqrt-singular region; pure endpoint loops may go smaller
    cand_ray = [c for c in cand if c >= 0.05] or [max(cand)]

    if kind in (ContourKind.L_PLUS, ContourKind.L_MINUS):
        th_in, r_in = (th3, rt3) if kind is ContourKind.L_PLUS else (th1, rt1)
        r_arc = _pick_arc_radius(exponent, th_in, th2, cand_ray)
        legs = (
            RayLeg(th_in, r_in, r_arc),
            ArcLeg(r_arc, th_in, th2),
            RayLeg(th2, r_arc, rt2),
        )
    elif kind in (ContourKind.R_MINUS, ContourKind.R_PLUS):
        if kind is ContourKind.R_MINUS:
            th_start, th_tail, r_tail = theta_up, th1, rt1
        else:
            th_start, th_tail, r_tail = theta_low, th3, rt3
        # origin contours cross near the essential/linear balance radius,
        # never far out; large radii only stretch the endpoint leg
        cand_r = [c for c in cand_ray if c <= 3.0] or [min(cand_ray)]
        r_arc = _pick_arc_radius(exponent, th_start, th_tail, cand_r)
        legs = (
            DecayLeg(th_start, r_arc, s_max_for(r_arc), outward=True),
            ArcLeg(r_arc, th_start, th_tail),
            RayLeg(th_tail, r_arc, r_tail),
        )
    else:  # O
        cand_r = [c for c in cand if c <= 3.0] or [min(cand)]
        r_arc = _pick_arc_radius(exponent, theta_up, theta_low, cand_r)
        s_max = s_max_for(r_arc)
        legs = (
            DecayLeg(theta_up, r_arc, s_max, outward=True),
            ArcLeg(r_arc, theta_up, theta_low),
            DecayLeg(theta_low, r_arc, s_max, outward=False),
        )

    return ContourPath(kind, cut, legs, r_trunc, r_arc)


def _exponent_factory(args: ShiftedArgs):
    beta = args.z + 0.5 * args.z0
    z0sq = args.z0 * args.z0

    def exponent(k):
        if z0sq == 0.0:
            return 1j * (beta * k + k * k * k / 12.0)
        return 1j * (beta * k - z0sq / (4.0 * k) + k * k * k / 12.0)

    return exponent


def laplace_integral(path: ContourPath, args: ShiftedArgs, tol: float = 1e-10,
                     config: ContourConfig = DEFAULT_CONFIG) -> QuadResult:
    """Evaluate I_C(z; z0) along a built path by adaptive quadrature.

    On success the result satisfies abs_err_est <= tol * max(1, |value|).
    The k^(1/2) branch uses each leg's continuously tracked angle.

    Raises
    ------
    EndpointSingularity
        if an endpoint leg fails to decay toward k = 0 (a path whose
        inner ray points outside the internal valley).
    ToleranceNotMet
        if the quadrature stops short of the target (its ``stop`` says
        why); the best estimate rides on the exception's ``result``
        attribute.
    """
    if not (1e-14 <= tol <= 1e-4):
        raise ValueError("laplace_integral: tol must lie in [1e-14, 1e-4]")
    exponent = _exponent_factory(args)

    def integrand(k, theta):
        with np.errstate(over="ignore", invalid="ignore"):
            return np.exp(exponent(k) - 0.5j * theta) / np.sqrt(np.abs(k))

    decay = [leg for leg in path.segments if isinstance(leg, DecayLeg)]
    if decay:
        s_max, r_outer, theta = np.array([(leg.s_max, leg.r_outer, leg.theta)
                                          for leg in decay]).T
        s = np.multiply.outer(s_max, _DECAY_CHECK)
        pts = r_outer[:, None] * np.exp(-s) * np.exp(1j * theta)[:, None]
        # compare in the s parametrization, where dk/ds ~ k supplies
        # the decaying sqrt-measure; the inner end must sit far below
        # the leg maximum or the substitution did not regularize
        vals = np.abs(integrand(pts, theta[:, None])) * np.abs(pts)
        inner = vals[:, -1]
        peak = np.maximum(vals.max(axis=1), 1e-280)
        bad = ~np.isfinite(inner) | (inner > peak * 1e-2)
        if bad.any():
            raise EndpointSingularity(
                "endpoint substitution does not decay toward k = 0 "
                f"(leg angle {theta[bad.argmax()]:.6f}); path points outside the internal valley"
            )

    result = integrate_legs(path.segments, integrand, tol, config.max_nodes,
                            integrand_exponent=exponent)
    if not result.converged:
        raise ToleranceNotMet(
            f"laplace_integral: error {result.abs_err_est:.3g} above target after "
            f"{result.nodes} nodes (stop: {result.stop})", result=result)
    return result
