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

The two share no code: the closed form reads only the Airy evaluator and
the time integral only ``quadrature``, whose panel integrator and tail
rules the contour integrals use too, so their agreement is a genuine
cross-check.  The weak-field limit is the free outgoing wave
e^{ik|r-r'|}/(2 pi |r-r'|), exposed as ``greens_free``.
"""

from __future__ import annotations

from dataclasses import dataclass
import cmath
import math

import numpy as np

from .errors import CoincidentPoints, NonFiniteInput, ZeroField
from .oracle import _airy_raw_batch
from .quadrature import (DEFAULT_TOL, TAIL_LAMBDA, ArcLeg, DecayLeg, RayLeg, SegmentLeg,
                         _cubic_roots, check_reach, decay_span, integrate_legs, tail_radius)

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
_T_MAX = 1e8  # the cap of every time-integral tail radius
_STEP = 1e-3  # finite-difference step of operator_residual


def _three(name: str, v) -> tuple:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must have exactly three components, got shape {v.shape}")
    return tuple(v.tolist())


@dataclass(frozen=True)
class GreensParams:
    """Physical inputs: energy (hartree), field and positions (a.u.)."""

    energy_E: float
    field_F: tuple
    r: tuple
    r_prime: tuple

    @classmethod
    def make(cls, energy_E, field_F, r, r_prime) -> "GreensParams":
        """ValueError unless each of field_F, r and r_prime has exactly
        three components."""
        return cls(float(energy_E), _three("field_F", field_F), _three("r", r),
                   _three("r_prime", r_prime))

    @property
    def separation(self) -> float:
        diff = np.subtract(self.r, self.r_prime)
        m = float(np.max(np.abs(diff)))
        if 0.0 < m < 1.5e-154:  # the squares would leave normal float64: scale first
            return m * float(np.linalg.norm(diff / m))
        return float(np.linalg.norm(diff))

    @property
    def field_strength(self) -> float:
        return float(np.linalg.norm(self.field_F))


@dataclass(frozen=True)
class ScaledVars:
    xi: float
    eta: float


def _finite(message: str, *values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise NonFiniteInput(message)


def _checked(p: GreensParams) -> tuple[float, float, float]:
    """|r - r'|, |F| and F.(r + r'): finite, with r != r'.

    Finite inputs can overflow in these sums and squares; that raises
    NonFiniteInput, not a RuntimeWarning.
    """
    _finite("Green's function inputs must be finite",
            p.energy_E, *p.field_F, *p.r, *p.r_prime)
    with np.errstate(over="ignore", invalid="ignore"):
        d, f = p.separation, p.field_strength
        fdot = float(np.dot(p.field_F, np.add(p.r, p.r_prime)))
    _finite("|r - r'|, |F| or F.(r + r') overflows float64", d, f, fdot)
    if d == 0.0:
        raise CoincidentPoints("r and r' coincide; the kernel has a 1/|r-r'| pole")
    _finite("1/|r - r'| overflows float64", 1.0 / d)
    return d, f, fdot


def scaled_vars(p: GreensParams) -> ScaledVars:
    """Dimensionless arguments (xi, eta) of the closed form; eta > 0."""
    d, f, fdot = _checked(p)
    if f == 0.0:
        raise ZeroField("scaled variables are defined only for |F| > 0")
    xi = (fdot - 2.0 * p.energy_E) / (2.0 * f) ** (2.0 / 3.0)
    eta = f ** (1.0 / 3.0) / 2.0 ** (2.0 / 3.0) * d
    _finite("scaled variable xi or eta overflows float64", xi, eta)
    return ScaledVars(xi, eta)


def greens_closed(p: GreensParams) -> complex:
    """Closed-form G(r, r') for |F| > 0.

    The eta-derivative is exact:

        d/deta[Ai(xi+eta) Ai(w(xi-eta))]
            = Ai'(xi+eta) Ai(w(xi-eta)) - w Ai(xi+eta) Ai'(w(xi-eta)),

    with w = e^{2i pi/3}.  In the weak-field regime |xi| grows like
    F^{-2/3}, so the Airy factors are evaluated through the internal
    large-argument machinery rather than the enveloped public entry.
    Below the effective energy (xi > 0) one factor decays and the other
    grows; past |argument| ~ 103 one alone leaves float64 although G is
    finite, and EnvelopeExceeded is raised (e.g. E = -0.3, F = 1e-4 z^,
    r = x^, r' = 0: xi = 175).
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
    d = _checked(p)[0]
    e = p.energy_E
    k = math.sqrt(2.0 * e) if e >= 0.0 else 1j * math.sqrt(-2.0 * e)
    _finite("free-wave phase k|r - r'| overflows float64", abs(k) * d)
    return cmath.exp(1j * k * d) / (2.0 * math.pi * d)


def _time_path(p: GreensParams):
    """(legs, coeffs, power) for ``integrate_legs``: the path of
    ``greens_time_integral``, in the one of the five families its
    docstring lists that p selects."""
    d, f, fdot = _checked(p)
    dd = d * d
    eprime = p.energy_E - 0.5 * fdot
    # the coefficients E', |r - r'|^2/2 and F^2/2, with E' as large as the
    # path geometry raises it: 8 E' and (2|E'|)^{3/2}; and 1/|r - r'|^2,
    # which overflows where |r - r'|^2 leaves the normal float64 range
    _finite("time-integral coefficients overflow float64",
            8.0 * abs(eprime) * math.sqrt(abs(eprime)), dd, 1.0 / d / d, f * f)

    # truncation depth: tails are cut where the integrand is e^{-lam} of
    # its O(1) scale, but below the effective energy the VALUE itself is
    # tunneling-suppressed (~e^{-sqrt(2|E'|) d}, saturated by the field
    # barrier ~(2/3)(2|E'|)^{3/2}/F), so the cut must go deeper by that
    # many e-folds to keep the truncation bias relatively small
    suppress = 0.0
    if eprime < 0.0:
        suppress = math.sqrt(-2.0 * eprime) * d
        if f > 0.0:  # saturated by the field barrier
            suppress = min(suppress, (2.0 / 3.0) * (-2.0 * eprime) ** 1.5 / f)
    lam = TAIL_LAMBDA + 25.0 + min(suppress, 150.0)

    sin_rot = math.sin(_ROT)

    if f == 0.0:
        # u = 1/t: exponent iE'/u + i dd u/2, weight u^{-1/2}
        coeffs, power = (0.5 * dd, eprime, 0.0), 0.5
        if suppress > 5.0:
            # the whole integrand decays on the imaginary axis and the
            # ray maximum is the (tunneling) saddle value
            u_sad = math.sqrt(-2.0 * eprime / dd)
            r_t = max(2.0 * lam / dd, 2.0 * u_sad)
            return [DecayLeg(math.pi / 2.0, u_sad, decay_span(u_sad, -eprime / lam)),
                    RayLeg(math.pi / 2.0, u_sad, r_t)], coeffs, power
        # junction where both phase terms are O(1): below it the decay
        # leg resolves the sqrt weight, above it the linear tail is
        # smooth
        r_j = max(math.sqrt(abs(eprime) / (0.5 * dd)), 1.0 / (0.5 * dd), 1e-9)
        # the sqrt weight has fallen by e^{-lam} at the span 2 lam, which
        # caps it; at E' = 0, or where r_j / r_min overflows, the cap alone
        # sets it
        s_max = min(decay_span(r_j, abs(eprime) * sin_rot / lam), 2.0 * lam)
        if eprime >= 0.0:
            legs = [DecayLeg(-_ROT, r_j, s_max), ArcLeg(r_j, -_ROT, _ROT)]
        else:
            legs = [DecayLeg(_ROT, r_j, s_max)]
        r_t = max(lam / (0.5 * dd * sin_rot), 2.0 * r_j)
        return [*legs, RayLeg(_ROT, r_j, r_t)], coeffs, power

    # t-plane: exponent iE't + i dd/(2t) - i (f^2/24) t^3, weight t^{-3/2}
    c3 = f * f / 24.0
    coeffs, power = (eprime, 0.5 * dd, -0.5 * f * f), 1.5
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
        r_t = tail_radius(c3, 0.0, -abs(eprime), lam, _T_MAX)
        # the ray's depth -E'r - c3 r^3 climbs to lam at the middle
        # root of c3 r^3 + E'r + lam = 0; without three real roots
        # its crest r_crest stays below lam
        roots = _cubic_roots(eprime / c3, lam / c3)
        r_x = max(t_sad, roots[1]) if len(roots) == 3 else r_crest
        return [DecayLeg(-math.pi / 2.0, t_sad, decay_span(t_sad, dd / (2.0 * lam))),
                RayLeg(-math.pi / 2.0, t_sad, r_x),
                ArcLeg(r_x, -math.pi / 2.0, -math.pi / 6.0),
                RayLeg(-math.pi / 6.0, r_x, max(r_t, 1.1 * r_x))], coeffs, power

    # junction radius: the ray past it is panelized evenly, so at small
    # separations a junction near d/sqrt(2) would leave the steep fall of
    # t^{-3/2} to the ray, where bisection stalls; the floor hands that
    # fall to the decay leg's geometric spacing
    r_j = math.sqrt(dd / (2.0 * max(abs(eprime), 1.0)))
    r_min = dd * sin_rot / (2.0 * lam)
    if eprime > 0.05:
        t_saddle = math.sqrt(8.0 * eprime) / f
        r_j = max(min(r_j, 0.5 * t_saddle), min(0.5, 0.25 * t_saddle))
        # descend from the stationary point along t_s + L e^{-i rho}:
        # there E' = 3 c3 t_s^2 cancels the linear terms, so Re E is
        # -c3 (sin 3rho L^3 + 3 t_s sin 2rho L^2) plus the i dd/(2t)
        # term, which only lowers it; cutting where the cubic reaches
        # -lam is therefore conservative
        length = tail_radius(c3 * math.sin(3.0 * _ROT),
                             3.0 * c3 * t_saddle * math.sin(2.0 * _ROT), 0.0, lam, _T_MAX)
        legs = [DecayLeg(-_ROT, r_j, decay_span(r_j, r_min)), ArcLeg(r_j, -_ROT, 0.0),
                RayLeg(0.0, r_j, t_saddle),
                SegmentLeg(complex(t_saddle), t_saddle + length * cmath.exp(-1j * _ROT))]
        # the stationary point is held to the cap of the tails
        check_reach(t_saddle, _T_MAX, legs, coeffs, power)
        return legs, coeffs, power
    r_j = max(r_j, min(0.5, 1.0 / max(abs(eprime), 1.0)))
    # along -pi/8 the term iE't decays for E' < 0 and grows for E' > 0,
    # so it enters the tail with its sign
    r_t = tail_radius(c3 * math.sin(3.0 * _ROT), 0.0, -eprime * sin_rot, lam, _T_MAX)
    return [DecayLeg(-_ROT, r_j, decay_span(r_j, r_min)),
            RayLeg(-_ROT, r_j, max(r_t, 2.0 * r_j))], coeffs, power


def greens_time_integral(p: GreensParams, tol: float = DEFAULT_TOL) -> complex:
    """G(r, r') by direct quadrature of the half-line time integral.

    Serves as the independent numerical check on ``greens_closed``;
    valid for F = 0 as well (where it reproduces the free form).  ``tol``
    defaults to ``quadrature.DEFAULT_TOL`` (1e-10), and ``integrate_legs``
    rejects it outside ``quadrature.TOL_RANGE``, [1e-14, 1e-4]
    (ValueError, NaN included), as for ``laplace_integral``; ``p`` is
    checked first, as the path is built.  It is used as given: it bounds
    the GK15 estimate by tol * max(1, |I|) for the integral I before the
    prefactor e^{-i pi/4}/(2 pi)^{3/2}, so it is absolute below |I| = 1.
    The path is one of five families, each chosen by one condition on
    the effective energy E' = E - F.(r+r')/2 and the tunnelling
    suppression (in e-folds):

    - F > 0, suppression > 5 and the real saddle |r - r'|/sqrt(-2E')
      within 0.95 of the barrier crest sqrt(-8E')/F: the steepest
      tunnelling ray;
    - F > 0, otherwise E' > 0.05: the real axis to the stationary point
      sqrt(8E')/F, then a chord down from it;
    - F > 0 otherwise: a ray rotated by -pi/8;
    - F = 0 (in u = 1/t), suppression > 5: the tunnelling ray;
    - F = 0 otherwise: a ray rotated by pi/8, entered by an arc when
      E' >= 0.

    The path takes the contours' tail rules from ``quadrature``: the
    cut depth TAIL_LAMBDA (here deepened by the tunnelling suppression),
    ``tail_radius`` with cap t = 1e8 and ``decay_span``.  Both failures
    come from there: DegenerateGeometry when no usable path exists (a
    tail or the stationary point past t = 1e8, or an endpoint leg whose
    finite integrand does not decay), and ToleranceNotMet when the
    quadrature stops short of ``tol``, including on a value that leaves
    float64 along the path (after 0 nodes when e^{E} already leaves it
    on a node of the quadrature's first round).
    """
    pref = cmath.exp(-1j * math.pi / 4.0) / (2.0 * math.pi) ** 1.5
    return pref * integrate_legs(*_time_path(p), tol).value


def operator_residual(p: GreensParams) -> float:
    """Residual of [-(1/2) Lap + F.r - E] G at r, by 7-point stencil.

    Uses the closed form at the six points displaced by h = 1e-3; the
    result is normalized by |G| / |r - r'|^2, the natural curvature scale
    of the kernel away from its pole.  Meaningful only off the
    singularity (|r - r'| comfortably larger than h); ValueError unless
    |r - r'| > h.
    """
    d = _checked(p)[0]
    h = _STEP
    if not h < d:
        raise ValueError("operator_residual: |r - r'| must exceed the step 1e-3")
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
