"""Outgoing-wave Green's function for an electron in a uniform static field.

Atomic units throughout (hbar = m = e = 1, energies in hartree, lengths
in bohr).  The Green's function solves

    [-(1/2) Laplacian + F.r - E] G(r, r') = delta(r - r')

with outgoing-wave boundary conditions.  Two independent evaluations are
provided:

``greens_closed``
    the closed analytic form

        G = -e^{i pi/6} / |r - r'| * d/deta [ Ai(xi+eta) Ai(e^{2i pi/3}(xi-eta)) ]

    in the scaled variables

        xi  = (F.(r+r') - 2E) / (2F)^{2/3},
        eta = F^{1/3} / 2^{2/3} * |r - r'|    (always real positive),

    with the eta-derivative taken analytically by the product rule;

``greens_time_integral``
    adaptive quadrature of the retarded-propagator Fourier integral

        e^{-i pi/4}/(2 pi)^{3/2} *
        Int_0^inf exp[iEt + i(r-r')^2/(2t) - (i/2) F.(r+r') t - (i/24) F^2 t^3] dt / t^{3/2}

    with the t -> 0 end rotated into the lower half plane (a fixed pi/8
    rotation is enough at the intended tolerances) where the essential
    factor decays, the tail rotated into a decay direction of the cubic
    term, and, when E - F.(r+r')/2 > 0, the path routed through the
    stationary point t = sqrt(8E')/F on the real axis first.  Every
    radius along the way (each tail cut, the chord from the stationary
    point, the tunnelling depth) is a root of a cubic in closed form.

The two share no code beyond the panel integrator, so their agreement is
a genuine cross-check.  The weak-field limit is the free outgoing wave
e^{ik|r-r'|}/(2 pi |r-r'|), exposed as ``greens_free``.
"""

from __future__ import annotations

from dataclasses import dataclass
import cmath
import math

import numpy as np

from .contours import _cubic_roots
from .errors import CoincidentPoints, NonFiniteInput, ToleranceNotMet, ZeroField
from .oracle import _airy_raw_batch
from .quadrature import ArcLeg, DecayLeg, RayLeg, SegmentLeg, integrate_legs

__all__ = [
    "GreensParams",
    "ScaledVars",
    "scaled_vars",
    "greens_closed",
    "greens_time_integral",
    "greens_free",
    "operator_residual",
]

_OMEGA = cmath.exp(2j * math.pi / 3.0)
_ROT = math.pi / 8.0  # fixed endpoint rotation of the time integral


@dataclass(frozen=True)
class GreensParams:
    """Physical inputs: energy (hartree), field and positions (a.u.)."""

    energy_E: float
    field_F: tuple
    r: tuple
    r_prime: tuple

    @classmethod
    def make(cls, energy_E, field_F, r, r_prime) -> "GreensParams":
        return cls(float(energy_E),
                   tuple(float(x) for x in field_F),
                   tuple(float(x) for x in r),
                   tuple(float(x) for x in r_prime))

    @property
    def separation(self) -> float:
        return float(np.linalg.norm(np.subtract(self.r, self.r_prime)))

    @property
    def field_strength(self) -> float:
        return float(np.linalg.norm(self.field_F))


@dataclass(frozen=True)
class ScaledVars:
    xi: float
    eta: float


def _check_separation(p: GreensParams) -> float:
    if not all(map(math.isfinite, (p.energy_E, *p.field_F, *p.r, *p.r_prime))):
        raise NonFiniteInput("Green's function inputs must be finite")
    d = p.separation
    if d == 0.0:
        raise CoincidentPoints("r and r' coincide; the kernel has a 1/|r-r'| pole")
    return d


def scaled_vars(p: GreensParams) -> ScaledVars:
    """Dimensionless arguments (xi, eta) of the closed form; eta > 0."""
    d = _check_separation(p)
    f = p.field_strength
    if f == 0.0:
        raise ZeroField("scaled variables are defined only for |F| > 0")
    fdot = float(np.dot(p.field_F, np.add(p.r, p.r_prime)))
    xi = (fdot - 2.0 * p.energy_E) / (2.0 * f) ** (2.0 / 3.0)
    eta = f ** (1.0 / 3.0) / 2.0 ** (2.0 / 3.0) * d
    return ScaledVars(xi, eta)


def greens_closed(p: GreensParams) -> complex:
    """Closed-form G(r, r') for |F| > 0.

    The eta-derivative is exact:

        d/deta[Ai(xi+eta) Ai(w(xi-eta))]
            = Ai'(xi+eta) Ai(w(xi-eta)) - w Ai(xi+eta) Ai'(w(xi-eta)),

    with w = e^{2i pi/3}.  In the weak-field regime |xi| grows like
    F^{-2/3}, so the Airy factors are evaluated through the internal
    large-argument machinery (both arguments lie on oscillatory rays
    where nothing overflows) rather than the enveloped public entry.
    """
    sv = scaled_vars(p)
    d = p.separation
    a1 = complex(sv.xi + sv.eta)
    a2 = _OMEGA * (sv.xi - sv.eta)
    (ai1, ai2), (aip1, aip2), _ = _airy_raw_batch(np.array([a1, a2]))
    deriv = aip1 * ai2 - _OMEGA * ai1 * aip2
    return -cmath.exp(1j * math.pi / 6.0) / d * deriv


def greens_free(p: GreensParams) -> complex:
    """Free outgoing wave e^{ik|r-r'|}/(2 pi |r-r'|), k = sqrt(2E).

    For E < 0 the outgoing branch is the exponentially decaying one,
    k = i sqrt(2|E|).
    """
    d = _check_separation(p)
    e = p.energy_E
    k = math.sqrt(2.0 * e) if e >= 0.0 else 1j * math.sqrt(-2.0 * e)
    return cmath.exp(1j * k * d) / (2.0 * math.pi * d)


def _cut_length(a: float, b: float, c: float, lam: float) -> float:
    """Positive root x of a x^3 + b x^2 + c x = lam (a > 0, b >= 0).

    ToleranceNotMet when x would exceed 1e8.  The cubic and quadratic
    terms must reach lam inside that cap on their own, without a decaying
    linear term (c > 0); this keeps the solved cubic finite.
    """
    cap = 1e8
    # the left side stays below lam short of the root and above it beyond
    if (a * cap + b) * cap * cap + min(c, 0.0) * cap < lam:
        raise ToleranceNotMet("time-integral tail radius diverged")
    s = b / (3.0 * a)  # x = y - s removes the quadratic term
    return _cubic_roots(c / a - 3.0 * s * s, (2.0 * s * s - c / a) * s - lam / a)[-1] - s


def greens_time_integral(p: GreensParams, tol: float = 1e-8) -> complex:
    """G(r, r') by direct quadrature of the half-line time integral.

    Serves as the independent numerical check on ``greens_closed``;
    valid for F = 0 as well (where it reproduces the free form).
    Tolerances below 1e-10 are outside the supported range.
    """
    if tol < 1e-10:
        raise ValueError("greens_time_integral: tol must be >= 1e-10")
    d = _check_separation(p)
    dd = d * d
    f = p.field_strength
    eprime = p.energy_E - 0.5 * float(np.dot(p.field_F, np.add(p.r, p.r_prime)))

    # truncation depth: tails are cut where the integrand is e^{-lam} of
    # its O(1) scale, but below the effective energy the VALUE itself is
    # tunneling-suppressed (~e^{-sqrt(2|E'|) d}, saturated by the field
    # barrier ~(2/3)(2|E'|)^{3/2}/F), so the cut must go deeper by that
    # many e-folds to keep the truncation bias relatively small
    suppress = 0.0
    if eprime < 0.0:
        kappa_d = math.sqrt(-2.0 * eprime) * d
        if f > 0.0:
            barrier = (2.0 / 3.0) * (-2.0 * eprime) ** 1.5 / f
            suppress = min(kappa_d, barrier)
        else:
            suppress = kappa_d
    lam = -math.log(1e-13) + 25.0 + min(suppress, 150.0)

    sin_rot = math.sin(_ROT)

    if f > 0.0:
        # t-plane: exponent iE't + i dd/(2t) - i (f^2/24) t^3, weight t^{-3/2}
        c3 = f * f / 24.0

        def exponent(t):
            return 1j * (eprime * t + dd / (2.0 * t) - c3 * t ** 3)

        power = 1.5
        t_sad = math.sqrt(dd / (-2.0 * eprime)) if eprime < 0.0 else 0.0
        r_crest = math.sqrt(-8.0 * eprime) / f if eprime < 0.0 else 0.0
        if suppress > 5.0 and t_sad <= 0.95 * r_crest:
            # tunneling regime: the value is e^{-suppress} small and any
            # path whose maximum exceeds the complex saddle value hits a
            # float64 cancellation floor.  The steepest ray theta = -pi/2
            # passes exactly through that saddle (its crest equals the
            # saddle exponent), so descend it until the depth target or
            # the field-barrier crest, then swing into the adjacent cubic
            # valley.  (For weak suppression the fixed-rotation route
            # below is both safe and cheaper, and for strong fields the
            # cubic ridge would block this ray before the saddle.)
            r_min = dd / (2.0 * lam)
            s_max = max(math.log(max(t_sad / r_min, 2.0)), 6.0)
            r_t = _cut_length(c3, 0.0, -abs(eprime), lam)
            # the ray's depth -E'r - c3 r^3 climbs to lam at the middle
            # root of c3 r^3 + E'r + lam = 0; without three real roots
            # its crest r_crest stays below lam
            roots = _cubic_roots(eprime / c3, lam / c3)
            r_x = max(t_sad, roots[1]) if len(roots) == 3 else r_crest
            legs = [
                DecayLeg(-math.pi / 2.0, t_sad, s_max, outward=True),
                RayLeg(-math.pi / 2.0, t_sad, r_x),
                ArcLeg(r_x, -math.pi / 2.0, -math.pi / 6.0),
                RayLeg(-math.pi / 6.0, r_x, max(r_t, 1.1 * r_x)),
            ]
        else:
            t_saddle = math.sqrt(8.0 * eprime) / f if eprime > 0.05 else 0.0
            r_j = math.sqrt(dd / (2.0 * max(abs(eprime), 1.0)))
            if t_saddle > 0.0:
                r_j = min(r_j, 0.5 * t_saddle)
            r_j = max(r_j, 1e-6)

            r_min = dd * sin_rot / (2.0 * lam)
            s_max = max(math.log(max(r_j / r_min, 2.0)), 6.0)
            legs = [DecayLeg(-_ROT, r_j, s_max, outward=True)]

            if t_saddle > 1.5 * r_j:
                legs.append(ArcLeg(r_j, -_ROT, 0.0))
                legs.append(RayLeg(0.0, r_j, t_saddle))
                # descend from the stationary point along t_s + L e^{-i rho}:
                # there E' = 3 c3 t_s^2 cancels the linear terms, so Re E
                # is -c3 (sin 3rho L^3 + 3 t_s sin 2rho L^2) plus the
                # i dd/(2t) term, which only lowers it; cutting where the
                # cubic reaches -lam is therefore conservative
                length = _cut_length(c3 * math.sin(3.0 * _ROT),
                                     3.0 * c3 * t_saddle * math.sin(2.0 * _ROT), 0.0, lam)
                legs.append(SegmentLeg(complex(t_saddle),
                                       t_saddle + length * cmath.exp(-1j * _ROT)))
            else:
                # along -pi/8 the term iE't decays for E' < 0 and grows
                # for E' > 0, so it enters the tail with its sign
                r_t = _cut_length(c3 * math.sin(3.0 * _ROT), 0.0,
                                  -eprime * sin_rot, lam)
                legs.append(RayLeg(-_ROT, r_j, max(r_t, 2.0 * r_j)))
    else:
        # u = 1/t: exponent iE'/u + i dd u/2, weight u^{-1/2}
        def exponent(u):
            return 1j * (eprime / u + 0.5 * dd * u)

        power = 0.5
        if suppress > 5.0:
            # the whole integrand decays on the imaginary axis and the
            # ray maximum is the (tunneling) saddle value
            u_sad = math.sqrt(-2.0 * eprime / dd)
            r_min = -eprime / lam
            s_max = max(math.log(max(u_sad / r_min, 2.0)), 6.0)
            r_t = max(2.0 * lam / dd, 2.0 * u_sad)
            legs = [DecayLeg(math.pi / 2.0, u_sad, s_max, outward=True),
                    RayLeg(math.pi / 2.0, u_sad, r_t)]
        else:
            start_angle = -_ROT if eprime >= 0.0 else _ROT
            # junction where both phase terms are O(1): below it the decay
            # leg resolves the sqrt weight, above it the linear tail is
            # smooth
            r_j = max(math.sqrt(abs(eprime) / (0.5 * dd)), 1.0 / (0.5 * dd), 1e-9)
            if eprime != 0.0:
                r_min = abs(eprime) * sin_rot / lam
                s_max = max(math.log(max(r_j / r_min, 2.0)), 6.0)
            else:
                s_max = 2.0 * lam
            r_t = max(lam / (0.5 * dd * sin_rot), 2.0 * r_j)
            legs = [DecayLeg(start_angle, r_j, s_max, outward=True)]
            if start_angle != _ROT:
                legs.append(ArcLeg(r_j, start_angle, _ROT))
            legs.append(RayLeg(_ROT, r_j, r_t))

    def integrand(k, theta):
        with np.errstate(over="ignore", invalid="ignore"):
            return np.exp(exponent(k) - 1j * power * theta) * np.abs(k) ** (-power)

    res = integrate_legs(legs, integrand, tol, 400_000, integrand_exponent=exponent)
    if not res.converged:
        raise ToleranceNotMet(
            f"greens_time_integral: error {res.abs_err_est:.3g} above target "
            f"(stop: {res.stop})",
            result=res)
    pref = cmath.exp(-1j * math.pi / 4.0) / (2.0 * math.pi) ** 1.5
    return pref * res.value


def operator_residual(p: GreensParams, h: float = 1e-3) -> float:
    """Residual of [-(1/2) Lap + F.r - E] G at r, by 7-point stencil.

    Uses the closed form at the six displaced points; the result is
    normalized by |G| / |r - r'|^2, the natural curvature scale of the
    kernel away from its pole.  Meaningful only off the singularity
    (|r - r'| comfortably larger than h); h must lie in (0, |r - r'|).
    """
    d = _check_separation(p)
    if not 0.0 < h < d:
        raise ValueError("operator_residual: h must lie in (0, |r - r'|)")
    g0 = greens_closed(p)
    lap = 0.0 + 0.0j
    for axis in range(3):
        for sgn in (+1.0, -1.0):
            r_shift = list(p.r)
            r_shift[axis] += sgn * h
            lap += greens_closed(GreensParams.make(p.energy_E, p.field_F,
                                                   r_shift, p.r_prime))
        lap -= 2.0 * g0
    lap /= h * h
    potential = float(np.dot(p.field_F, p.r))
    resid = -0.5 * lap + (potential - p.energy_E) * g0
    scale = abs(g0) / (d * d)
    return abs(resid) / max(scale, 1e-300)
