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
four sums share the powers (z^3)^k and each term costs four real-by-
complex multiply-adds and one complex double-double multiply.  The loop
body is one straight line: every Dekker split, exact product and two-sum
(Dekker, Numer. Math. 18, 1971) is written out with the sums in local
variables, so a term makes no helper call.  The number of terms depends
on |z| alone and is looked up in a table of radii: the sum stops where its
terms fall below 1e-22 over the largest term, at most about 1e-20 of the
smallest envelope of Ai on the circle |z| = r, so a longer sum gives Ai
and Ai' the same float64 bits.  The kernel uses plain
arithmetic operators only: ``airy_batch`` runs it on float arrays, and a
scalar ``airy`` call inside the crossover radius runs the same code on
python floats, with bit-identical results.

For arguments outside |arg z| <= 2*pi/3 the expansion is applied to the
rotated points exp(+-2i*pi/3) z and recombined through the standard
connection identity

    Ai(z) + w Ai(w z) + w" Ai(w" z) = 0,      w = exp(2i*pi/3), w" = 1/w,

which keeps every expansion inside its well-conditioned sector.  The
asymptotic branch is written in real arithmetic too: real and imaginary
parts with plain operators, and one numpy call each for the complex
square roots and the exponential.  So a scalar call beyond the crossover
also runs on python floats, bit-identical to ``airy_batch``.  Both entry
points pick the branch by x*x + y*y <= 81 and take the series term count
from its correctly rounded square root.  Real +, -, * and / are single
IEEE roundings, so Ai and Ai' do not change with the SIMD loops numpy
picks for the host; ``est_rel_err`` does in its last bits, through
numpy's float64 exp.

Conjugate symmetry Ai(conj z) = conj(Ai(z)) is enforced structurally by
evaluating in the upper half plane only, so it holds exactly.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
import cmath
import math

import numpy as np

from .errors import EnvelopeExceeded, NonFiniteInput

__all__ = ["AiryValue", "airy", "airy_batch", "ENVELOPE_RADIUS"]

#: Documented accuracy envelope of the public evaluator.
ENVELOPE_RADIUS = 50.0

#: Series/asymptotic crossover radius.  Chosen so that both branches meet
#: the est_rel_err <= 1e-12 target on the overlap annulus: the
#: double-double series degrades past ~|z| = 10.7, the smallest-term
#: asymptotic error crosses 1e-13 near |z| = 8.
CROSSOVER_RADIUS = 9.0
_CROSSOVER_R2 = CROSSOVER_RADIUS * CROSSOVER_RADIUS  # 81, exactly

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
    throughout the envelope |z| <= 50 (4.19e-13 at most, on the negative
    real axis near x = -50).  For real z the imaginary parts are exactly
    zero.
    """

    ai: complex
    ai_prime: complex
    est_rel_err: float


# ----------------------------------------------------------------------
# complex double-double products and differences, as 4-tuples
# (re_hi, re_lo, im_hi, im_lo) of python floats or float arrays alike.
# Dekker's splits, exact products and sums (Numer. Math. 18, 1971) are
# written out with plain operators, so no helper calls nest.
# ----------------------------------------------------------------------

def _split(a):
    """Dekker halves (hi, lo) of a, with hi + lo == a exactly."""
    ca = _SPLIT * a
    hi = ca - (ca - a)
    return hi, a - hi


def _cdd_mul(a, b):
    """a * b: the four real double-double products of the parts, then
    Re a Re b - Im a Im b and Re a Im b + Im a Re b."""
    arh, arl, aih, ail = a
    brh, brl, bih, bil = b
    t = _SPLIT * arh
    ar0 = t - (t - arh)
    ar1 = arh - ar0
    t = _SPLIT * aih
    ai0 = t - (t - aih)
    ai1 = aih - ai0
    t = _SPLIT * brh
    br0 = t - (t - brh)
    br1 = brh - br0
    t = _SPLIT * bih
    bi0 = t - (t - bih)
    bi1 = bih - bi0
    # Re a * Re b and Im a * Im b
    p = arh * brh
    e = (((ar0 * br0 - p) + ar0 * br1 + ar1 * br0) + ar1 * br1
         + (arh * brl + arl * brh))
    p1h = p + e
    p1l = e - (p1h - p)
    p = aih * bih
    e = (((ai0 * bi0 - p) + ai0 * bi1 + ai1 * bi0) + ai1 * bi1
         + (aih * bil + ail * bih))
    p2h = p + e
    p2l = e - (p2h - p)
    # Re a * Im b and Im a * Re b
    p = arh * bih
    e = (((ar0 * bi0 - p) + ar0 * bi1 + ar1 * bi0) + ar1 * bi1
         + (arh * bil + arl * bih))
    q1h = p + e
    q1l = e - (q1h - p)
    p = aih * brh
    e = (((ai0 * br0 - p) + ai0 * br1 + ai1 * br0) + ai1 * br1
         + (aih * brl + ail * brh))
    q2h = p + e
    q2l = e - (q2h - p)
    s = p1h - p2h
    bb = s - p1h
    e = ((p1h - (s - bb)) + (-p2h - bb)) + (p1l - p2l)
    rh = s + e
    rl = e - (rh - s)
    s = q1h + q2h
    bb = s - q1h
    e = ((q1h - (s - bb)) + (q2h - bb)) + (q1l + q2l)
    ih = s + e
    return rh, rl, ih, e - (ih - s)


def _cdd_sub(a, b):
    """a - b, part by part: an exact two-sum of the high words, the low
    words added to its error, and a renormalizing fast two-sum."""
    arh, arl, aih, ail = a
    brh, brl, bih, bil = b
    s = arh - brh
    bb = s - arh
    e = ((arh - (s - bb)) + (-brh - bb)) + (arl - brl)
    rh = s + e
    rl = e - (rh - s)
    s = aih - bih
    bb = s - aih
    e = ((aih - (s - bb)) + (-bih - bb)) + (ail - bil)
    ih = s + e
    return rh, rl, ih, e - (ih - s)


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


#: Term counts by radius.  The series stops at the first power k >= 1 of
#: z^3 whose four terms at |z| = r all fall below 1e-22 over the larger of
#: 1 and the largest term so far (term * peak < 1e-22: multiplications
#: only, so the table is the same on every host).  For r <= 9 the envelope
#: e^zeta, zeta = (2/3) r^(3/2), is at most 19 times the largest term, so
#: the last kept term is below 2e-21 e^-zeta, about 1.2e-20 of Ai's
#: smallest envelope e^-zeta / (2 sqrt(pi) r^(1/4)) on |z| = r: far under
#: half an ulp of Ai and Ai', whose bits equal those of a sum through the
#: last row.  Term magnitudes depend on |z| only, so the count is a step
#: function of r: _TERM_RADII[k - 2] is the smallest float r whose count is
#: at least k, for k = 2..48.  The radii come from bisection over float64
#: bit patterns on that rule, which the tests keep as its definition.
_TERM_RADII = (
    1.0504486020137624e-07, 0.0005504560009454646, 0.010643271355019857,
    0.04938231608434268, 0.12809321852474326, 0.24711818052890705,
    0.4013178253193143, 0.5841111197934536, 0.7892770047187949,
    1.0115386494354472, 1.246630881137754, 1.491184669645178,
    1.7425678119501933, 1.9987336812579062, 2.258093689645253,
    2.5035660304461906, 2.748234487837181, 2.986595628630556,
    3.2253358629266304, 3.4614102470670103, 3.69623039355349,
    3.927532149029806, 4.154977154188166, 4.381044674341568, 4.604354632064996,
    4.825984028366359, 5.042731214043552, 5.258466037414692, 5.471356869586818,
    5.683030827471047, 5.890191272741286, 6.096392285326237, 6.30008611290396,
    6.502528812797199, 6.701225766857603, 6.898898371915492, 7.094510933965084,
    7.288651512923043, 7.4798853128086265, 7.669986729892266,
    7.858477403121113, 8.04521365644385, 8.229840197929365, 8.413214711349989,
    8.595393090921041, 8.775526080355434, 8.954268933398922,
)

# rows k = 0..48: the most terms any radius up to the crossover needs
_SERIES = _series_tables(len(_TERM_RADII) + 2)


def _series_terms(r):
    """Last power of z^3 the series needs for |z| <= r (48 beyond the
    crossover radius)."""
    return 1 + bisect_right(_TERM_RADII, r)


def _series_core(x, y, n):
    """Ai, Ai' at z = x + iy from the Maclaurin series through (z^3)^n.

    The four sums A, B, C, D (see ``_series_tables``) share the powers
    P_k = (z^3)^k.  Each term adds P_k times the row's four real
    coefficients to the four complex double-double sums, and then forms
    P_{k+1} = P_k z^3.  The loop body is one straight line of plain
    operators: every Dekker split, exact product and two-sum is written
    out, and the sums live in local variables.  The Dekker halves of the
    coefficients are split at import, those of z^3 once per call and
    those of P_k once per term.  x, y are python floats or float arrays
    alike, with bit-identical results.
    """
    z = (x, 0.0, y, 0.0)
    z2 = _cdd_mul(z, z)
    zrh, zrl, zih, zil = prh, prl, pih, pil = _cdd_mul(z2, z)
    t = _SPLIT * zrh
    zr0 = t - (t - zrh)
    zr1 = zrh - zr0
    t = _SPLIT * zih
    zi0 = t - (t - zih)
    zi1 = zih - zi0
    # the sums A, B, C, D as (re_hi, re_lo, im_hi, im_lo), from row k = 0;
    # the coefficients of row k are (hi, lo, hi0, hi1) as (ah, al, a0, a1)
    (arh, arl, _, _), (brh, brl, _, _), (crh, crl, _, _), (drh, drl, _, _) = (
        _SERIES[0])
    aih = ail = bih = bil = cih = cil = dih = dil = 0.0
    for k, ((ah, al, a0, a1), (bh, bl, b0, b1), (ch, cl, c0, c1),
            (dh, dl, d0, d1)) in enumerate(_SERIES[1:n + 1], 1):
        t = _SPLIT * prh
        pr0 = t - (t - prh)
        pr1 = prh - pr0
        t = _SPLIT * pih
        pi0 = t - (t - pih)
        pi1 = pih - pi0
        # A: P_re A_k and P_im A_k as double-doubles (t, tl), each added
        # to its part of the sum; then the same for B, C and D
        th = prh * ah
        tl = (((pr0 * a0 - th) + pr0 * a1 + pr1 * a0) + pr1 * a1
              + (prh * al + prl * ah))
        t = th + tl
        tl = tl - (t - th)
        s = arh + t
        bb = s - arh
        e = ((arh - (s - bb)) + (t - bb)) + (arl + tl)
        arh = s + e
        arl = e - (arh - s)
        th = pih * ah
        tl = (((pi0 * a0 - th) + pi0 * a1 + pi1 * a0) + pi1 * a1
              + (pih * al + pil * ah))
        t = th + tl
        tl = tl - (t - th)
        s = aih + t
        bb = s - aih
        e = ((aih - (s - bb)) + (t - bb)) + (ail + tl)
        aih = s + e
        ail = e - (aih - s)
        # B
        th = prh * bh
        tl = (((pr0 * b0 - th) + pr0 * b1 + pr1 * b0) + pr1 * b1
              + (prh * bl + prl * bh))
        t = th + tl
        tl = tl - (t - th)
        s = brh + t
        bb = s - brh
        e = ((brh - (s - bb)) + (t - bb)) + (brl + tl)
        brh = s + e
        brl = e - (brh - s)
        th = pih * bh
        tl = (((pi0 * b0 - th) + pi0 * b1 + pi1 * b0) + pi1 * b1
              + (pih * bl + pil * bh))
        t = th + tl
        tl = tl - (t - th)
        s = bih + t
        bb = s - bih
        e = ((bih - (s - bb)) + (t - bb)) + (bil + tl)
        bih = s + e
        bil = e - (bih - s)
        # C
        th = prh * ch
        tl = (((pr0 * c0 - th) + pr0 * c1 + pr1 * c0) + pr1 * c1
              + (prh * cl + prl * ch))
        t = th + tl
        tl = tl - (t - th)
        s = crh + t
        bb = s - crh
        e = ((crh - (s - bb)) + (t - bb)) + (crl + tl)
        crh = s + e
        crl = e - (crh - s)
        th = pih * ch
        tl = (((pi0 * c0 - th) + pi0 * c1 + pi1 * c0) + pi1 * c1
              + (pih * cl + pil * ch))
        t = th + tl
        tl = tl - (t - th)
        s = cih + t
        bb = s - cih
        e = ((cih - (s - bb)) + (t - bb)) + (cil + tl)
        cih = s + e
        cil = e - (cih - s)
        # D
        th = prh * dh
        tl = (((pr0 * d0 - th) + pr0 * d1 + pr1 * d0) + pr1 * d1
              + (prh * dl + prl * dh))
        t = th + tl
        tl = tl - (t - th)
        s = drh + t
        bb = s - drh
        e = ((drh - (s - bb)) + (t - bb)) + (drl + tl)
        drh = s + e
        drl = e - (drh - s)
        th = pih * dh
        tl = (((pi0 * d0 - th) + pi0 * d1 + pi1 * d0) + pi1 * d1
              + (pih * dl + pil * dh))
        t = th + tl
        tl = tl - (t - th)
        s = dih + t
        bb = s - dih
        e = ((dih - (s - bb)) + (t - bb)) + (dil + tl)
        dih = s + e
        dil = e - (dih - s)
        if k == n:
            break
        # P_{k+1} = P_k z^3: P_re zr - P_im zi and P_re zi + P_im zr
        p = prh * zrh
        e = (((pr0 * zr0 - p) + pr0 * zr1 + pr1 * zr0) + pr1 * zr1
             + (prh * zrl + prl * zrh))
        p1h = p + e
        p1l = e - (p1h - p)
        p = pih * zih
        e = (((pi0 * zi0 - p) + pi0 * zi1 + pi1 * zi0) + pi1 * zi1
             + (pih * zil + pil * zih))
        p2h = p + e
        p2l = e - (p2h - p)
        p = prh * zih
        e = (((pr0 * zi0 - p) + pr0 * zi1 + pr1 * zi0) + pr1 * zi1
             + (prh * zil + prl * zih))
        q1h = p + e
        q1l = e - (q1h - p)
        p = pih * zrh
        e = (((pi0 * zr0 - p) + pi0 * zr1 + pi1 * zr0) + pi1 * zr1
             + (pih * zrl + pil * zrh))
        q2h = p + e
        q2l = e - (q2h - p)
        s = p1h - p2h
        bb = s - p1h
        e = ((p1h - (s - bb)) + (-p2h - bb)) + (p1l - p2l)
        prh = s + e
        prl = e - (prh - s)
        s = q1h + q2h
        bb = s - q1h
        e = ((q1h - (s - bb)) + (q2h - bb)) + (q1l + q2l)
        pih = s + e
        pil = e - (pih - s)
    # Ai = A - z B, Ai' = z^2 C - D
    ai = _cdd_sub((arh, arl, aih, ail), _cdd_mul(z, (brh, brl, bih, bil)))
    aip = _cdd_sub(_cdd_mul(z2, (crh, crl, cih, cil)), (drh, drl, dih, dil))
    return ((ai[0] + ai[1]) + 1j * (ai[2] + ai[3]),
            (aip[0] + aip[1]) + 1j * (aip[2] + aip[3]))


def _series_err(x, y, n):
    """A-priori bound at z = x + iy, for python floats or float arrays as
    in ``_asym_core``: rounding at double-double precision amplified by
    the cancellation condition number exp(2 max(Re zeta, 0)).  The
    truncation after n terms, at most about 1e-20 relative (see
    ``_TERM_RADII``), sits under the 5e-16 floor."""
    sr, si = _parts(np.sqrt(x + 1j * y))
    zeta_re = (2.0 / 3.0) * x * sr - (2.0 / 3.0) * y * si
    cond = np.exp(2.0 * np.maximum(zeta_re, 0.0))
    return 20.0 * n * _EPS_DD * cond + 5e-16


def _series_batch(z):
    """Ai, Ai', est_rel_err arrays by ``_series_core`` on the array z."""
    z = np.asarray(z, dtype=complex)
    x, y = z.real, z.imag
    n = _series_terms(math.sqrt(float(np.max(x * x + y * y, initial=0.0))))
    ai, aip = _series_core(x, y, n)
    return ai, aip, _series_err(x, y, n)


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
    """Core evaluator without the envelope gate (arrays in, arrays out).

    EnvelopeExceeded where e^{-zeta}, zeta = (2/3) z^(3/2), could leave
    float64: where |Re zeta| + 8 eps |zeta| > 700.  The eps term bounds
    the rounding of Re zeta at the rotated points of the connection
    formula; it gates |zeta| > 3.9e17 (|z| > 7e11) even on the negative
    real axis, where Re zeta = 0.  A point that is not finite, or whose
    zeta overflows, fails the same test.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    ai = np.empty_like(z)
    aip = np.empty_like(z)
    est = np.empty(z.shape)

    flip = z.imag < 0.0
    zz = np.where(flip, np.conj(z), z)

    # |z|^2 and zeta overflow, or turn NaN, only at points the gate rejects
    with np.errstate(over="ignore", invalid="ignore"):
        small = zz.real * zz.real + zz.imag * zz.imag <= _CROSSOVER_R2
        big = ~small
        zeta = (2.0 / 3.0) * zz[big] * np.sqrt(zz[big])
        if not np.all(np.abs(zeta.real) + 8.0 * _EPS * np.abs(zeta) <= 700.0):
            raise EnvelopeExceeded("airy: exponential scale overflows float64")
    if small.any():
        a, ap, e = _series_batch(zz[small])
        ai[small], aip[small], est[small] = a, ap, e
    if big.any():
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
    try:
        radius = abs(z)
    except OverflowError:  # finite parts whose modulus leaves float64
        radius = math.inf
    _check_envelope(cmath.isfinite(z), radius)
    # python floats on both branches, in the upper half plane and with
    # the branch rule of _airy_raw_batch, so both entry points agree bit
    # for bit
    flip = z.imag < 0.0
    zz = z.conjugate() if flip else z
    x, y = zz.real, zz.imag
    r2 = x * x + y * y
    if r2 > _CROSSOVER_R2:
        ar, ai, dr, di, est = _asym(x, y)
        ai, aip = complex(ar, ai), complex(dr, di)
    else:
        n = _series_terms(math.sqrt(r2))
        ai, aip = _series_core(x, y, n)
        est = _series_err(x, y, n)
    if flip:
        ai, aip = ai.conjugate(), aip.conjugate()
    return AiryValue(ai, aip, float(est))
