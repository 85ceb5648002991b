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
double-double multiply and four multiply-adds.  The step is fused: the
Dekker halves of every coefficient are split at import, those of z^3
once per call and those of each power once per term, and the multiply-
adds are written out in the loop body, in exactly the operations and
order of the double-double primitives.  The kernel uses plain arithmetic
operators only: ``airy_batch`` runs it on float arrays, and a scalar
``airy`` call inside the crossover radius runs the same code on python
floats, with bit-identical results.

For arguments outside |arg z| <= 2*pi/3 the expansion is applied to the
rotated points exp(+-2i*pi/3) z and recombined through the standard
connection identity

    Ai(z) + w Ai(w z) + w" Ai(w" z) = 0,      w = exp(2i*pi/3), w" = 1/w,

which keeps every expansion inside its well-conditioned sector.  The
asymptotic branch is written in real arithmetic too: real and imaginary
parts with plain operators, and one numpy call each for the complex
square roots and the exponential.  So a scalar call beyond the crossover
also runs on python floats, bit-identical to ``airy_batch``; and since
numpy may fuse a complex multiply into FMA instructions on hosts that
have them while real +, -, * and / are always single IEEE roundings, the
values of both branches do not depend on the host's FMA support.

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

_SQRT3 = math.sqrt(3.0)
_SQRT3_2 = 0.5 * _SQRT3  # Im e^{2i pi/3}; its real part is -1/2
_TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)

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


def _split(a):
    """Dekker halves (hi, lo) of a, with hi + lo == a exactly."""
    ca = _SPLIT * a
    hi = ca - (ca - a)
    return hi, a - hi


def _dd_add(ah, al, bh, bl):
    sh, sl = _two_sum(ah, bh)
    sl = sl + (al + bl)
    return _fast_two_sum(sh, sl)


def _dd_mul_split(ah, al, a0, a1, bh, bl, b0, b1):
    """(ah, al) * (bh, bl), given the halves a0, a1 of ah and b0, b1 of bh."""
    p = ah * bh
    err = ((a0 * b0 - p) + a0 * b1 + a1 * b0) + a1 * b1
    return _fast_two_sum(p, err + (ah * bl + al * bh))


def _dd_mul(ah, al, bh, bl):
    return _dd_mul_split(ah, al, *_split(ah), bh, bl, *_split(bh))


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


def _parts(c):
    """Real and imaginary parts of a numpy complex result: arrays for an
    array, python floats for a scalar, so scalar work stays on floats."""
    if isinstance(c, np.ndarray):
        return c.real, c.imag
    c = complex(c)
    return c.real, c.imag


# ----------------------------------------------------------------------
# Maclaurin series branch (|z| <= CROSSOVER_RADIUS)
# ----------------------------------------------------------------------

def _series_tables(count):
    """Double-double coefficients (A_k, B_k, C_k, D_k) for k < count.

    Each coefficient is a 4-tuple (hi, lo, hi0, hi1): the double-double
    pair and the Dekker halves of hi, so that the series step never
    splits a coefficient.

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
        return (hi, float(x - Fraction(hi))) + _split(hi)

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
    and four real-by-complex multiply-adds.  The step is fused: the
    Dekker halves of the coefficients are split at import, those of z^3
    once per call and those of P_k once per term, and each multiply-add
    is written out in the loop body, with exactly the operations of
    ``_dd_mul`` and ``_cdd_add`` in their order.  Plain operators only:
    x, y are python floats or float arrays alike, with bit-identical
    results.
    """
    z = (x, 0.0, y, 0.0)
    z2 = _cdd_mul(z, z)
    z3 = _cdd_mul(z2, z)
    zrh, zrl, zih, zil = z3
    zr0, zr1 = _split(zrh)
    zi0, zi1 = _split(zih)
    sums = [(ch, cl, 0.0, 0.0) for ch, cl, _, _ in _SERIES[0]]
    prh, prl, pih, pil = z3
    for k in range(1, n + 1):
        pr0, pr1 = _split(prh)
        pi0, pi1 = _split(pih)
        for j, (ch, cl, c0, c1) in enumerate(_SERIES[k]):
            # (rh, rl), (ih, il) = _dd_mul(P_re, c), _dd_mul(P_im, c)
            rh = prh * ch
            rl = (((pr0 * c0 - rh) + pr0 * c1 + pr1 * c0) + pr1 * c1
                  + (prh * cl + prl * ch))
            t = rh + rl
            rl = rl - (t - rh)
            rh = t
            ih = pih * ch
            il = (((pi0 * c0 - ih) + pi0 * c1 + pi1 * c0) + pi1 * c1
                  + (pih * cl + pil * ch))
            t = ih + il
            il = il - (t - ih)
            ih = t
            # sums[j] = _cdd_add(sums[j], (rh, rl, ih, il))
            sh, sl, sih, sil = sums[j]
            s = sh + rh
            bb = s - sh
            e = ((sh - (s - bb)) + (rh - bb)) + (sl + rl)
            sh = s + e
            sl = e - (sh - s)
            s = sih + ih
            bb = s - sih
            e = ((sih - (s - bb)) + (ih - bb)) + (sil + il)
            sih = s + e
            sil = e - (sih - s)
            sums[j] = (sh, sl, sih, sil)
        if k < n:
            # P_{k+1} = _cdd_mul(P_k, z^3)
            p1h, p1l = _dd_mul_split(prh, prl, pr0, pr1, zrh, zrl, zr0, zr1)
            p2h, p2l = _dd_mul_split(pih, pil, pi0, pi1, zih, zil, zi0, zi1)
            q1h, q1l = _dd_mul_split(prh, prl, pr0, pr1, zih, zil, zi0, zi1)
            q2h, q2l = _dd_mul_split(pih, pil, pi0, pi1, zrh, zrl, zr0, zr1)
            prh, prl = _dd_add(p1h, p1l, -p2h, -p2l)
            pih, pil = _dd_add(q1h, q1l, q2h, q2l)
    a, b, c, d = sums
    zb = _cdd_mul(z, b)
    ai = _cdd_add(a, (-zb[0], -zb[1], -zb[2], -zb[3]))
    aip = _cdd_add(_cdd_mul(z2, c), (-d[0], -d[1], -d[2], -d[3]))
    return _cdd_collapse(ai), _cdd_collapse(aip)


def _series_err(x, y, n):
    """A-priori bound at z = x + iy, for python floats or float arrays as
    in ``_asym_core``: rounding at double-double precision amplified by
    the cancellation condition number exp(2 max(Re zeta, 0))."""
    sr, si = _parts(np.sqrt(x + 1j * y))
    zeta_re = (2.0 / 3.0) * x * sr - (2.0 / 3.0) * y * si
    cond = np.exp(2.0 * np.maximum(zeta_re, 0.0))
    return 20.0 * n * _EPS_DD * cond + 5e-16


def _series_batch(z):
    """Ai, Ai', est_rel_err arrays by ``_series_core`` on the array z."""
    z = np.asarray(z, dtype=complex)
    n = _series_terms(float(np.max(np.abs(z), initial=0.0)))
    ai, aip = _series_core(z.real, z.imag, n)
    return ai, aip, _series_err(z.real, z.imag, n)


# ----------------------------------------------------------------------
# asymptotic branch (|z| > CROSSOVER_RADIUS)
# ----------------------------------------------------------------------

def _asym_table(count):
    """(-r_k, r_k^2, v_k) for k = 1..count: the expansion's term ratio
    T_k / T_{k-1} = -r_k / zeta, and the factor v_k that turns the k-th
    term of Ai's series into that of Ai' (DLMF 9.7.5-6)."""
    rows = []
    for k in range(1, count + 1):
        r = (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * k * (2 * k - 1))
        rows.append((-r, r * r, (6 * k + 1) / (1.0 - 6 * k)))
    return tuple(rows)


_ASYM = _asym_table(60)


def _asym_core(x, y):
    """One-series asymptotics of Ai, Ai' at z = x + iy, |arg z| <= 2*pi/3.

    Returns (Re Ai, Im Ai, Re Ai', Im Ai', est).  Each expansion is
    truncated at its smallest term; the relative error estimate is that
    term's modulus with a sector safety factor, plus the float64 rounding
    of zeta, which exp(-zeta) turns into a relative error of a few
    |zeta| eps.  Real plain operators throughout, except one numpy call
    each for the complex square roots and exponential, so x, y may be
    python floats or float arrays, with bit-identical results.
    """
    sr, si = _parts(np.sqrt(x + 1j * y))
    qr, qi = _parts(np.sqrt(sr + 1j * si))  # z^(1/4)
    wr, wi = (2.0 / 3.0) * x, (2.0 / 3.0) * y
    zr, zi = wr * sr - wi * si, wr * si + wi * sr  # zeta
    rho2 = zr * zr + zi * zi
    ir, ii = zr / rho2, -zi / rho2  # 1/zeta

    # A, B: the sums for Ai and Ai'; T: the current term, set to zero for
    # good once the point stops; m2: |last term added|^2, from the ratios
    ar, ai, br, bi, tr, ti = 1.0, 0.0, 1.0, 0.0, 1.0, 0.0
    m2 = 1.0
    for c, r2, v in _ASYM:
        # stop before a term that grows or after one below 1e-18; the
        # sum ends when every point has stopped
        keep = (r2 < rho2) & (m2 >= 1e-36)
        if not (keep.any() if isinstance(keep, np.ndarray) else keep):
            break
        ck = c * keep
        tr, ti = (tr * ir - ti * ii) * ck, (tr * ii + ti * ir) * ck
        ar += tr
        ai += ti
        br += v * tr
        bi += v * ti
        m2 = m2 * (r2 / rho2 * keep + (1.0 - keep))
    est = 3.0 * math.sqrt(60.0) * np.sqrt(m2) + 5e-16 + 4.0 * _EPS * np.sqrt(rho2)

    # exp(-zeta) / (2 sqrt(pi)) times A / z^(1/4) and -B z^(1/4)
    er, ei = _parts(np.exp(-zr - 1j * zi))
    er, ei = er / _TWO_SQRT_PI, ei / _TWO_SQRT_PI
    nr, ni = er * ar - ei * ai, er * ai + ei * ar
    q2 = qr * qr + qi * qi
    dr, di = er * br - ei * bi, er * bi + ei * br
    # 0 - (...) keeps the zero imaginary part on the real axis positive
    return ((nr * qr + ni * qi) / q2, (ni * qr - nr * qi) / q2,
            di * qi - dr * qr, 0.0 - (dr * qi + di * qr), est)


def _rotations(x, y):
    """Real and imaginary parts of w z and w" z, z = x + iy."""
    hx, hy, sx, sy = 0.5 * x, 0.5 * y, _SQRT3_2 * x, _SQRT3_2 * y
    return (-hx - sy, sx - hy), (sy - hx, -sx - hy)


def _connect(p, m):
    """Ai, Ai' at z, 2*pi/3 < arg z <= pi, from the expansions ``p`` at
    w z and ``m`` at w" z, by the connection identity
    Ai(z) = -w Ai(w z) - w" Ai(w" z) and its derivative
    Ai'(z) = -w" Ai'(w z) - w Ai'(w" z) (w = e^{2i pi/3}, w" = 1/w).  On
    the negative axis the two expansions are exact conjugates (the kernel
    is conjugate-symmetric operation by operation), so the result is real
    by construction."""
    ar1, ai1, dr1, di1, est1 = p
    ar2, ai2, dr2, di2, est2 = m
    ar = 0.5 * (ar1 + ar2) + _SQRT3_2 * (ai1 - ai2)
    ai = 0.5 * (ai1 + ai2) - _SQRT3_2 * (ar1 - ar2)
    dr = 0.5 * (dr1 + dr2) - _SQRT3_2 * (di1 - di2)
    di = 0.5 * (di1 + di2) + _SQRT3_2 * (dr1 - dr2)
    m1, m2 = np.hypot(ar1, ai1), np.hypot(ar2, ai2)
    scale = np.maximum(np.hypot(ar, ai), np.maximum(0.5 * (m1 + m2), 1e-300))
    return ar, ai, dr, di, (m1 * est1 + m2 * est2) / scale


def _asym(x, y):
    """Asymptotics at one point z = x + iy, y >= 0, on python floats: the
    expansion itself for arg z <= 2*pi/3, the connection identity beyond."""
    if y + _SQRT3 * x >= 0.0:
        return _asym_core(x, y)
    p, m = _rotations(x, y)
    return _connect(_asym_core(*p), _asym_core(*m))


def _asym_batch(z):
    """``_asym`` for an array z, imag(z) >= 0, in one ``_asym_core`` call
    on the points of the direct sector and both rotations of the rest."""
    x, y = z.real, z.imag
    direct = y + _SQRT3 * x >= 0.0
    conn = ~direct
    (px, py), (mx, my) = _rotations(x[conn], y[conn])
    core = _asym_core(np.concatenate([x[direct], px, mx]),
                      np.concatenate([y[direct], py, my]))
    nd, nc = len(z) - len(px), len(px)
    out = np.empty((5,) + z.shape)
    parts = _connect([c[nd:nd + nc] for c in core], [c[nd + nc:] for c in core])
    for row, c, part in zip(out, core, parts):
        row[direct], row[conn] = c[:nd], part
    return _complex(out[0], out[1]), _complex(out[2], out[3]), out[4]


def _complex(re, im):
    """Complex array with these parts exactly, signed zeros included."""
    c = np.empty(re.shape, dtype=complex)
    c.real, c.imag = re, im
    return c


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
    # python floats on both branches, in the upper half plane like
    # _airy_raw_batch, so both entry points agree bit for bit
    flip = z.imag < 0.0
    zz = z.conjugate() if flip else z
    x, y = zz.real, zz.imag
    if r > CROSSOVER_RADIUS:
        ar, ai, dr, di, est = _asym(x, y)
        ai, aip = complex(ar, ai), complex(dr, di)
    else:
        n = _series_terms(r)
        ai, aip = _series_core(x, y, n)
        est = _series_err(x, y, n)
    if flip:
        ai, aip = ai.conjugate(), aip.conjugate()
    return AiryValue(ai, aip, float(est))


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
