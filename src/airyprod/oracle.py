"""Reference evaluator for Ai(z) and Ai'(z) at complex argument.

This module is the ground truth the rest of the package is tested against,
so it is built from first principles only: the Maclaurin series of the
Airy equation's recessive solution for moderate |z|, and the standard
exponential asymptotic expansion (DLMF 9.7) with connection rotations for
large |z|.  No external special-function library is used.

Accuracy strategy
-----------------
The Maclaurin series of Ai suffers catastrophic cancellation along the
rays where Ai decays (condition number ~ exp(2 Re zeta), with
zeta = (2/3) z^(3/2)).  Plain float64 summation loses ~8 digits at
|z| = 6 on the positive axis, so the series is summed in double-double
arithmetic (~31 significant digits), which keeps the worst-case error
below 1e-13 out to the crossover radius |z| = 9.  Beyond the crossover
the asymptotic expansion truncated at its smallest term is itself
accurate to better than 1e-13.

The series is written as Ai = A(z^3) - z B(z^3), Ai' = z^2 C(z^3) - D(z^3):
Ai(0), -Ai'(0) and the integer divisors are folded into four tables of
double-double coefficients, built exactly in rationals at import, so the
four sums share the powers (z^3)^k and each term costs one complex
double-double multiply and four multiply-adds.  The kernel uses plain
arithmetic operators only: ``airy_batch`` runs it on float arrays, and a
scalar ``airy`` call inside the crossover radius runs the same code on
python floats, with bit-identical results.

For arguments outside |arg z| <= 2*pi/3 the expansion is applied to the
rotated points exp(+-2i*pi/3) z and recombined through the standard
connection identity

    Ai(z) + w Ai(w z) + w" Ai(w" z) = 0,      w = exp(2i*pi/3), w" = 1/w,

which keeps every expansion inside its well-conditioned sector.
Conjugate symmetry Ai(conj z) = conj(Ai(z)) is enforced structurally by
evaluating in the upper half plane only, so it holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import cmath
import math

import numpy as np

from .errors import EnvelopeExceeded, NonFiniteInput

__all__ = ["AiryValue", "airy", "airy_batch", "airy_ode_residual", "ENVELOPE_RADIUS"]

#: Documented accuracy envelope of the public evaluator.
ENVELOPE_RADIUS = 50.0

#: Series/asymptotic crossover radius.  Chosen so that both branches meet
#: the est_rel_err <= 1e-12 target on the overlap annulus: the
#: double-double series degrades past ~|z| = 10.7, the smallest-term
#: asymptotic error crosses 1e-13 near |z| = 8.
CROSSOVER_RADIUS = 9.0

_TWO_PI_3 = 2.0 * math.pi / 3.0
_OMEGA = cmath.exp(2j * math.pi / 3.0)  # e^{2i pi/3}
_OMEGA_C = _OMEGA.conjugate()

# Ai(0) = 3^(-2/3)/Gamma(2/3) and -Ai'(0) = 3^(-1/3)/Gamma(1/3) as
# double-double (hi, lo) pairs; lo parts precomputed at 50 digits.
_C1_HI, _C1_LO = 0.3550280538878172, 2.05233632436212e-17
_C2_HI, _C2_LO = 0.2588194037928068, -2.522243111610832e-17

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitter
_EPS_DD = 2.0 ** -104
_EPS = 2.0 ** -52  # float64 machine epsilon


@dataclass(frozen=True)
class AiryValue:
    """Ai and Ai' at one point together with an a-priori error bound.

    ``est_rel_err`` is conservative and relative to the natural magnitude
    scale of the result (the modulus of the dominant asymptotic envelope),
    not to the possibly vanishing value itself.  It stays below 1e-12
    throughout |z| <= 20.  For real z the imaginary parts are exactly zero.
    """

    ai: complex
    ai_prime: complex
    est_rel_err: float


# ----------------------------------------------------------------------
# double-double primitives from plain operators: they run unchanged on
# python floats and on numpy float arrays
# ----------------------------------------------------------------------

def _two_sum(a, b):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def _fast_two_sum(a, b):
    # requires |a| >= |b| componentwise (true at all call sites)
    s = a + b
    err = b - (s - a)
    return s, err


def _two_prod(a, b):
    p = a * b
    ca = _SPLIT * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLIT * b
    bhi = cb - (cb - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


def _dd_add(ah, al, bh, bl):
    sh, sl = _two_sum(ah, bh)
    sl = sl + (al + bl)
    return _fast_two_sum(sh, sl)


def _dd_mul(ah, al, bh, bl):
    ph, pl = _two_prod(ah, bh)
    pl = pl + (ah * bl + al * bh)
    return _fast_two_sum(ph, pl)


# complex double-double: 4-tuple (re_hi, re_lo, im_hi, im_lo)

def _cdd_add(a, b):
    rh, rl = _dd_add(a[0], a[1], b[0], b[1])
    ih, il = _dd_add(a[2], a[3], b[2], b[3])
    return (rh, rl, ih, il)


def _cdd_mul(a, b):
    p1h, p1l = _dd_mul(a[0], a[1], b[0], b[1])
    p2h, p2l = _dd_mul(a[2], a[3], b[2], b[3])
    rh, rl = _dd_add(p1h, p1l, -p2h, -p2l)
    q1h, q1l = _dd_mul(a[0], a[1], b[2], b[3])
    q2h, q2l = _dd_mul(a[2], a[3], b[0], b[1])
    ih, il = _dd_add(q1h, q1l, q2h, q2l)
    return (rh, rl, ih, il)


def _cdd_collapse(a):
    return (a[0] + a[1]) + 1j * (a[2] + a[3])


# ----------------------------------------------------------------------
# Maclaurin series branch (|z| <= CROSSOVER_RADIUS)
# ----------------------------------------------------------------------

def _series_tables(count):
    """Double-double coefficients (A_k, B_k, C_k, D_k) for k < count.

    With f = sum a_k z^(3k) and g = sum b_k z^(3k+1) the Airy-equation
    power series (a_0 = b_0 = 1, a_{k+1} = a_k / ((3k+2)(3k+3)),
    b_{k+1} = b_k / ((3k+3)(3k+4))) and Ai = c1 f - c2 g,

        A_k = c1 a_k              B_k = c2 b_k
        C_k = c1 3(k+1) a_{k+1}   D_k = c2 (3k+1) b_k

    so that Ai = A(z^3) - z B(z^3) and Ai' = z^2 C(z^3) - D(z^3).  Each
    product is formed exactly in rationals and rounded once.
    """
    c1 = Fraction(_C1_HI) + Fraction(_C1_LO)
    c2 = Fraction(_C2_HI) + Fraction(_C2_LO)

    def dd(x):
        hi = float(x)
        return hi, float(x - Fraction(hi))

    rows, a, b = [], Fraction(1), Fraction(1)
    for k in range(count):
        a_next = a / ((3 * k + 2) * (3 * k + 3))
        rows.append((dd(c1 * a), dd(c2 * b), dd(c1 * 3 * (k + 1) * a_next),
                     dd(c2 * (3 * k + 1) * b)))
        a, b = a_next, b / ((3 * k + 3) * (3 * k + 4))
    return tuple(rows)


# 64 powers: |z| = 9 needs 48 and |z| = 12 needs 59 (see _series_terms)
_SERIES = _series_tables(64)


def _series_terms(r):
    """Last power of z^3 the series needs for |z| <= r.

    Term magnitudes depend on |z| only; the sum stops at the first power
    whose four terms all fall below 1e-35 of the larger of 1 and the
    largest term, well under the double-double rounding of that term.
    """
    r3, power, peak = r * r * r, 1.0, 1.0
    for k, (a, b, c, d) in enumerate(_SERIES):
        term = power * max(a[0], b[0] * r, c[0] * r * r, d[0])
        peak = max(peak, term)
        if k and term < 1e-35 * peak:
            return k
        power *= r3
    return len(_SERIES) - 1


def _series_core(x, y, n):
    """Ai, Ai' at z = x + iy from the Maclaurin series through (z^3)^n.

    The four sums A, B, C, D (see ``_series_tables``) share the powers
    P_k = (z^3)^k, so each term costs one complex double-double multiply
    and four real-by-complex multiply-adds.  Plain operators only: x, y
    are python floats or float arrays alike, with bit-identical results.
    """
    z = (x, 0.0, y, 0.0)
    z2 = _cdd_mul(z, z)
    z3 = _cdd_mul(z2, z)
    sums = [(ch, cl, 0.0, 0.0) for ch, cl in _SERIES[0]]
    p = z3
    for k in range(1, n + 1):
        for j, (ch, cl) in enumerate(_SERIES[k]):
            term = _dd_mul(p[0], p[1], ch, cl) + _dd_mul(p[2], p[3], ch, cl)
            sums[j] = _cdd_add(sums[j], term)
        if k < n:
            p = _cdd_mul(p, z3)
    a, b, c, d = sums
    zb = _cdd_mul(z, b)
    ai = _cdd_add(a, (-zb[0], -zb[1], -zb[2], -zb[3]))
    aip = _cdd_add(_cdd_mul(z2, c), (-d[0], -d[1], -d[2], -d[3]))
    return _cdd_collapse(ai), _cdd_collapse(aip)


def _series_err(z, n):
    """A-priori bound: rounding at double-double precision amplified by
    the cancellation condition number exp(2 max(Re zeta, 0))."""
    zeta_re = np.real((2.0 / 3.0) * z * np.sqrt(z))
    cond = np.exp(2.0 * np.maximum(zeta_re, 0.0))
    return 20.0 * n * _EPS_DD * cond + 5e-16


def _series_batch(z):
    """Ai, Ai', est_rel_err arrays by ``_series_core`` on the array z."""
    z = np.asarray(z, dtype=complex)
    n = _series_terms(float(np.max(np.abs(z), initial=0.0)))
    ai, aip = _series_core(z.real, z.imag, n)
    return ai, aip, _series_err(z, n)


# ----------------------------------------------------------------------
# asymptotic branch (|z| > CROSSOVER_RADIUS)
# ----------------------------------------------------------------------

def _asym_core(w):
    """One-series asymptotics of Ai, Ai' for |arg w| <= 2*pi/3.

    Truncates each expansion at its smallest term; the returned relative
    error estimate is the smallest-term magnitude with a sector safety
    factor, plus the float64 rounding of zeta, which exp(-zeta) turns
    into a relative error of a few |zeta| eps.
    """
    sq = np.sqrt(w)
    zeta = (2.0 / 3.0) * w * sq
    w4 = np.sqrt(sq)
    izeta = 1.0 / zeta

    A = np.ones_like(w)
    B = np.ones_like(w)
    T = np.ones_like(w)
    active = np.ones(w.shape, dtype=bool)
    prev_mag = np.ones(w.shape)
    est = np.full(w.shape, np.nan)

    for k in range(1, 61):
        ratio = (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * k * (2 * k - 1))
        T = T * (-ratio) * izeta
        mag = np.abs(T)
        # stop before adding once terms grow (divergent tail)
        grown = active & (mag >= prev_mag)
        est[grown] = prev_mag[grown]
        active &= ~grown
        vfac = (6 * k + 1) / (1.0 - 6 * k)
        A = np.where(active, A + T, A)
        B = np.where(active, B + T * vfac, B)
        tiny = active & (mag < 1e-18)
        est[tiny] = mag[tiny]
        active &= ~tiny
        prev_mag = mag
        if not active.any():
            break
    est[np.isnan(est)] = prev_mag[np.isnan(est)]
    est = 3.0 * np.sqrt(60.0) * est + 5e-16 + 4.0 * _EPS * np.abs(zeta)

    pref = np.exp(-zeta) / (2.0 * math.sqrt(math.pi))
    ai = pref * A / w4
    aip = -pref * B * w4
    return ai, aip, est


def _asym_batch(w):
    """Asymptotic evaluation for any argument, imag(w) >= 0 assumed."""
    ai = np.empty_like(w)
    aip = np.empty_like(w)
    est = np.empty(w.shape)

    arg = np.angle(w)
    direct = arg <= _TWO_PI_3
    realneg = (w.imag == 0.0) & (w.real < 0.0)
    direct &= ~realneg
    conn = ~(direct | realneg)

    if direct.any():
        a, ap, e = _asym_core(w[direct])
        ai[direct], aip[direct], est[direct] = a, ap, e

    if realneg.any():
        # build from a single rotated evaluation so the result is real by
        # construction (the mirror term is the exact conjugate)
        am, apm, e = _asym_core(w[realneg] * _OMEGA_C)
        ai[realneg] = -2.0 * np.real(_OMEGA_C * am) + 0.0j
        aip[realneg] = -2.0 * np.real(_OMEGA * apm) + 0.0j
        est[realneg] = 2.0 * e

    if conn.any():
        wc = w[conn]
        ap_, app, ep = _asym_core(wc * _OMEGA)
        am_, apm, em = _asym_core(wc * _OMEGA_C)
        val = -_OMEGA * ap_ - _OMEGA_C * am_
        dval = -_OMEGA_C * app - _OMEGA * apm
        ai[conn] = val
        aip[conn] = dval
        scale = 0.5 * (np.abs(ap_) + np.abs(am_))
        est[conn] = (np.abs(ap_) * ep + np.abs(am_) * em) / np.maximum(
            np.abs(val), np.maximum(scale, 1e-300)
        )
    return ai, aip, est


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------

def _airy_raw_batch(z):
    """Core evaluator without the envelope gate (arrays in, arrays out)."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if not np.all(np.isfinite(z)):
        raise NonFiniteInput("airy: argument must be finite")

    ai = np.empty_like(z)
    aip = np.empty_like(z)
    est = np.empty(z.shape)

    flip = z.imag < 0.0
    zz = np.where(flip, np.conj(z), z)

    small = np.abs(zz) <= CROSSOVER_RADIUS
    if small.any():
        a, ap, e = _series_batch(zz[small])
        ai[small], aip[small], est[small] = a, ap, e
    big = ~small
    if big.any():
        if np.any(np.abs(np.real((2.0 / 3.0) * zz[big] * np.sqrt(zz[big]))) > 700.0):
            raise EnvelopeExceeded("airy: exponential scale overflows float64")
        a, ap, e = _asym_batch(zz[big])
        ai[big], aip[big], est[big] = a, ap, e

    ai = np.where(flip, np.conj(ai), ai)
    aip = np.where(flip, np.conj(aip), aip)
    return ai, aip, est


def _check_envelope(finite, radius):
    if not finite:
        raise NonFiniteInput("airy: argument must be finite")
    if radius > ENVELOPE_RADIUS:
        raise EnvelopeExceeded(
            f"airy: |z| exceeds the supported envelope {ENVELOPE_RADIUS}"
        )


def airy_batch(z):
    """Vectorized ``airy``: returns (ai, ai_prime, est_rel_err) arrays."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    _check_envelope(np.all(np.isfinite(z)), np.max(np.abs(z), initial=0.0))
    return _airy_raw_batch(z)


def airy(z: complex) -> AiryValue:
    """Evaluate Ai(z), Ai'(z) for complex z with |z| <= 50.

    Raises
    ------
    NonFiniteInput
        if z is NaN or infinite.
    EnvelopeExceeded
        if |z| > 50 (the documented accuracy envelope).
    """
    z = complex(z)
    r = abs(z)
    _check_envelope(cmath.isfinite(z), r)
    if r > CROSSOVER_RADIUS:
        ai, aip, est = _airy_raw_batch(np.array([z]))
        return AiryValue(complex(ai[0]), complex(aip[0]), float(est[0]))
    # the series kernel on python floats, in the upper half plane like
    # _airy_raw_batch, so both entry points agree bit for bit
    flip = z.imag < 0.0
    zz = z.conjugate() if flip else z
    n = _series_terms(r)
    ai, aip = _series_core(zz.real, zz.imag, n)
    if flip:
        ai, aip = ai.conjugate(), aip.conjugate()
    return AiryValue(ai, aip, float(_series_err(np.array([zz]), n)[0]))


def airy_ode_residual(z: complex, h: float = 1e-3) -> float:
    """Centered-difference check that the evaluator solves v'' = z v.

    Returns |FD2[Ai](z) - z Ai(z)| / max(1, |Ai(z)|) with a second-order
    stencil of step h.  Step restricted to 1e-4 <= h <= 1e-1: larger
    steps leave the O(h^2) regime, smaller ones amplify rounding.
    """
    z = complex(z)
    h = float(h)
    if not (1e-4 <= h <= 1e-1):
        raise ValueError("airy_ode_residual: h must lie in [1e-4, 1e-1]")
    a0, ap_, am = airy_batch(np.array([z, z + h, z - h]))[0]
    fd2 = (ap_ - 2.0 * a0 + am) / (h * h)
    return abs(fd2 - z * a0) / max(1.0, abs(a0))
