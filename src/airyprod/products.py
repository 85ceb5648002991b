"""Products of two Airy-equation solutions with shifted arguments.

For solutions v1, v2 of v'' = z v, the product w(z; z0) = v1(z+z0) v2(z)
satisfies the fourth-order equation

    w'''' - (4z + 2 z0) w'' - 6 w' + z0^2 w = 0.

With v drawn from {Ai(z), Ai(e^{+2i pi/3} z), Ai(e^{-2i pi/3} z)} there
are nine products; a convenient independent basis is

    U+-(z; z0) = Ai(e^{+-2i pi/3}(z+z0)) Ai(e^{+-2i pi/3} z)
    W+-(z; z0) = Ai(z+z0) Ai(e^{+-2i pi/3} z)

and every product is one of these or a fixed linear combination.  Each
value is computable two ways:

* route ``DIRECT``   -- evaluations of the Airy reference evaluator
                        multiplied together (the default; fast, and the
                        ground truth the contour route is tested against);
* route ``CONTOUR``  -- one half-line Laplace integral I_C of
                        ``contours`` over a path between two ends,

      e^{i pi/4 + i m pi/3} / (4 pi^{3/2}) * I_C.

  An end is a valley V1, V2, V3 or k = 0 on one side of the cut.  Let
  "near" be the side where R+- starts (low for +, up for -), "far" the
  other side, and V = V3 for + and V1 for -.  The rows are

      value          m     |arg z0| <= pi/2     |arg z0| > pi/2
      U+-           -+1    V -> V2              V -> V2
      W+-           +-1    near -> V            far -> V
      diff+-        +-1    far -> near          near -> far
      (+-, 0)       +-1    far -> V             near -> V
      (+-, -+)       0     far -> V2            near -> V2

  The ends change with the sector because for |arg z0| > pi/2 the cut
  and the origin ends are those of -z0.  The mixed products are the
  combinations

      Ai(e^{+-}(z+z0)) Ai(z)         = U-+ + e^{-+i pi/3} (U+- - W-+)
      Ai(e^{+-}(z+z0)) Ai(e^{-+} z)  = e^{-+i pi/3} U-+ + e^{+-i pi/3} W-+

  whose integrals chain end to start, so each is the integral over one
  path.  Only Ai(z+z0) Ai(z) = e^{-i pi/3} W+ + e^{+i pi/3} W- takes two
  integrals, over R+ and R-, whose paths share no end; its real-axis
  cosine form ``aiai_real`` is twice the real part of the R- term.

Both routes read one table, one row per value: ``_DIRECT`` lists the
evaluator products to add or subtract and ``_CONTOUR`` the prefactor and
the path of each sector, for the nine products (U+- and W+- among
them), the antisymmetric ``difference_identity`` (the origin loop, one
way round or the other) and ``aiai_real``.  The sector dispatch lives
in the table, not in the contour engine, because the formula choice is
a property of the representation rather than of path geometry.

``w_pm_real`` (shift >= 0 only) is the W+- row on real arguments, where
it is the half-line formula of the real axis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import reduce
import cmath
import math

from .contours import (
    Sector,
    ShiftedArgs,
    build_contour,
    laplace_integral,
)
import numpy as np

from .errors import NegativeShift
from .oracle import airy, airy_batch

__all__ = [
    "Route",
    "ProductValue",
    "Rotation",
    "u_pm",
    "w_pm",
    "product",
    "difference_identity",
    "w_pm_real",
    "aiai_real",
    "ode_residual_w_batch",
    "ode_residual_reduced_batch",
]

_OMEGA = cmath.exp(2j * math.pi / 3.0)
_PREF_NORM = 4.0 * math.pi ** 1.5
_DEFAULT_TOL = 1e-10
_EPS = 2.0 ** -52  # float64 machine epsilon


class Route(Enum):
    DIRECT = "direct"
    CONTOUR = "contour"
    REAL_AXIS = "real-axis"


class Rotation(Enum):
    """Which Airy-equation solution a factor uses: Ai(e^{r 2i pi/3} z)."""

    NONE = 0
    PLUS = 1
    MINUS = -1

    @property
    def factor(self) -> complex:
        if self is Rotation.NONE:
            return 1.0 + 0.0j
        return _OMEGA if self is Rotation.PLUS else _OMEGA.conjugate()


@dataclass(frozen=True)
class ProductValue:
    value: complex
    route: Route
    abs_err_est: float


def _pref(m: int) -> complex:
    """e^{i pi/4 + i m pi/3} / (4 pi^{3/2}), the prefactor of a contour row."""
    return cmath.exp(1j * (math.pi / 4.0 + m * math.pi / 3.0)) / _PREF_NORM


def _rows(s: int):
    """The rows of the values that come in +- pairs, for the sign s.

    ``_DIRECT`` terms are (c, f1, f2) for c Ai(f1 (z+z0)) Ai(f2 z), where
    f = None takes the argument as it is.  ``_CONTOUR`` rows are a
    prefactor and the paths for |arg z0| <= pi/2 and for |arg z0| > pi/2,
    each a tuple of (start, end) pairs whose integrals are added.  U+-
    is the row (rot, rot) and W+- the row (NONE, rot).
    """
    rot = Rotation(s)
    w = rot.factor
    near, far = ("low", "up") if s > 0 else ("up", "low")
    v = "V3" if s > 0 else "V1"
    direct = {("diff", s): ((1, w, None), (-1, None, w))}
    contour = {("diff", s): (_pref(s), ((far, near),), ((near, far),)),
               (rot, rot): (_pref(-s), ((v, "V2"),), ((v, "V2"),)),
               (Rotation.NONE, rot): (_pref(s), ((near, v),), ((far, v),)),
               (rot, Rotation.NONE): (_pref(s), ((far, v),), ((near, v),)),
               (rot, Rotation(-s)): (_pref(0), ((far, "V2"),), ((near, "V2"),))}
    return direct, contour


def _direct_factor(rot: Rotation):
    """The ``_DIRECT`` factor of ``rot``: None, the argument as it is, for NONE."""
    return None if rot is Rotation.NONE else rot.factor


# R+ and R-: the origin loops of e^{-i pi/3} W+ + e^{+i pi/3} W- cancel
# in every sector
_R_PAIR = (("low", "V3"), ("up", "V1"))
_DIRECT = {(r1, r2): ((1, _direct_factor(r1), _direct_factor(r2)),)
           for r1 in Rotation for r2 in Rotation}
_CONTOUR = {
    (Rotation.NONE, Rotation.NONE): (_pref(0), _R_PAIR, _R_PAIR),
    # the row above on the real axis, where its two terms are complex
    # conjugates: twice the real part of the R- term
    "aiai": (2.0 * _pref(0), _R_PAIR[1:], _R_PAIR[1:]),
}
for _s in (+1, -1):
    _d, _c = _rows(_s)
    _DIRECT.update(_d)
    _CONTOUR.update(_c)
del _s, _d, _c


def _check_sign(sign: int) -> int:
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    return sign


def _direct_product(f1: complex, f2: complex) -> tuple[complex, float]:
    """Ai(f1) Ai(f2) and its error bound: both evaluator bounds, the final
    rounding, and the rounding of the arguments themselves.  Forming f
    from z, z0 and a rotation errs by up to about 2 eps relative, and a
    relative change d of f moves Ai(f) by f Ai'(f) d."""
    a1 = airy(f1)
    a2 = airy(f2)
    v = a1.ai * a2.ai
    args = abs(f1 * a1.ai_prime * a2.ai) + abs(f2 * a2.ai_prime * a1.ai)
    return v, ((a1.est_rel_err + a2.est_rel_err + 4e-16) * max(abs(v), 1e-300)
               + 2.0 * _EPS * args)


def _contour_value(ends: tuple, args: ShiftedArgs, tol):
    """I_C over the path between ``ends`` and its error estimate."""
    res = laplace_integral(build_contour(ends, args), tol)
    return res.value, res.abs_err_est


def _signed_sum(terms) -> tuple[complex, float]:
    """Sum of c v and of e over (c, (v, e)) terms with c = +-1.

    Every row's first term has c = +1 and is taken as it is, and v is
    added or subtracted, so a single term comes back unchanged, signed
    zeros included.
    """
    (_, (val, err)), *rest = terms
    for c, (v, e) in rest:
        val = val + v if c > 0 else val - v
        err = err + e
    return val, err


def _evaluate(key, z, z0, route: Route, tol) -> ProductValue:
    """The value of one table row along ``route``.

    The contour route integrates over the row's path for the sector of
    z0 (over both paths of Ai(z+z0) Ai(z)), and bounds the error by
    |prefactor| times the estimate.
    """
    z, z0 = complex(z), complex(z0)
    if route is Route.DIRECT:
        zs = z + z0
        val, err = _signed_sum(
            (c, _direct_product(zs if f1 is None else f1 * zs, z if f2 is None else f2 * z))
            for c, f1, f2 in _DIRECT[key])
        return ProductValue(val, route, err)
    if route is not Route.CONTOUR:
        raise ValueError(f"products support the DIRECT and CONTOUR routes, not {route}")
    args = ShiftedArgs.make(z, z0)
    pref, *paths = _CONTOUR[key]
    paths = paths[args.z0_sector is Sector.OUTER]
    val, err = (_contour_value(paths[0], args, tol) if len(paths) == 1
                else _signed_sum((1, _contour_value(ends, args, tol)) for ends in paths))
    return ProductValue(pref * val, route, abs(pref) * err)


def u_pm(sign: int, z: complex, z0: complex, route: Route = Route.DIRECT,
         tol: float = _DEFAULT_TOL) -> ProductValue:
    """U+-(z; z0) = Ai(e^{+-2i pi/3}(z+z0)) Ai(e^{+-2i pi/3} z)."""
    return _evaluate((Rotation(_check_sign(sign)),) * 2, z, z0, route, tol)


def w_pm(sign: int, z: complex, z0: complex, route: Route = Route.DIRECT,
         tol: float = _DEFAULT_TOL) -> ProductValue:
    """W+-(z; z0) = Ai(z+z0) Ai(e^{+-2i pi/3} z).

    On the contour route this is the integral over R+- for
    |arg z0| <= pi/2 (and z0 = 0); beyond, the path starts at k = 0 on
    the other side of the cut, which adds the origin loop +-I_O.
    """
    return _evaluate((Rotation.NONE, Rotation(_check_sign(sign))), z, z0, route, tol)


def product(rot1: Rotation, rot2: Rotation, z: complex, z0: complex,
            route: Route = Route.DIRECT, tol: float = _DEFAULT_TOL) -> ProductValue:
    """Any of the nine products v1(z+z0) v2(z).

    ``rot1``/``rot2`` select the solutions: v(z) = Ai(e^{r 2i pi/3} z).
    The direct route multiplies two evaluator calls; the contour route
    integrates the U/W basis combinations

        Ai(z+z0) Ai(z)                   = e^{-i pi/3} W+ + e^{+i pi/3} W-
        Ai(e^{+-}(z+z0)) Ai(z)           = U-+ + e^{-+i pi/3} (U+- - W-+)
        Ai(e^{+-}(z+z0)) Ai(e^{-+} z)    = e^{-+i pi/3} U-+ + e^{+-i pi/3} W-+

    each over one path between two ends, except the first, which is the
    two integrals over R+ and R-.
    """
    return _evaluate((Rotation(rot1), Rotation(rot2)), z, z0, route, tol)


def difference_identity(sign: int, z: complex, z0: complex,
                        route: Route = Route.CONTOUR, tol: float = _DEFAULT_TOL) -> ProductValue:
    """Ai(e^{+-2i pi/3}(z+z0)) Ai(z) - Ai(z+z0) Ai(e^{+-2i pi/3} z).

    This antisymmetric combination is proportional to the origin-loop
    integral alone, taken in the direction that gives the sign below,

        +- e^{i pi/4 +- i pi/3} / (4 pi^{3/2}) * I_O    (|arg z0| <= pi/2)
        -+ e^{i pi/4 +- i pi/3} / (4 pi^{3/2}) * I_O    (|arg z0| >  pi/2)

    and vanishes identically at z0 = 0.  Default route is the loop
    integral (the quantity this operation exists to expose); the direct
    route forms the same difference from the reference evaluator.
    """
    return _evaluate(("diff", _check_sign(sign)), z, z0, route, tol)


def w_pm_real(sign: int, x: float, x0: float, tol: float = _DEFAULT_TOL) -> ProductValue:
    """W+-(x; x0) for real x and real shift x0 >= 0 via the half-line form

        e^{+-i pi/12}/(4 pi^{3/2}) *
            Int_0^inf exp[-+ik(x+x0/2) +- ix0^2/(4k) -+ ik^3/12] dk/sqrt(k).

    The oscillatory half-line integral is evaluated through its
    regularized contour equivalent (the origin contour placed against
    the real axis, endpoints rotated into the adjacent decay regions).
    No such single-integral formula exists for x0 < 0, which raises
    NegativeShift.
    """
    _check_sign(sign)
    x, x0 = float(x), float(x0)
    if x0 < 0.0:
        raise NegativeShift("w_pm_real requires x0 >= 0; use aiai_real or w_pm instead")
    # x0 >= 0 never lies in the outer sector, so this is the single R+- integral
    pv = w_pm(sign, x, x0, Route.CONTOUR, tol)
    return replace(pv, route=Route.REAL_AXIS)


def aiai_real(x: float, x0: float, tol: float = _DEFAULT_TOL) -> ProductValue:
    """Ai(x+x0) Ai(x) for any real x, x0 via the cosine half-line form

        (1/(2 pi^{3/2})) *
            Int_0^inf cos[k(x+x0/2) - x0^2/(4k) + k^3/12 + pi/4] dk/sqrt(k).

    Valid for x0 < 0 as well (the origin-loop contributions of the two
    underlying W terms cancel in this symmetric combination); the result
    carries zero imaginary part by construction.
    """
    pv = _evaluate("aiai", float(x), float(x0), Route.CONTOUR, tol)
    return ProductValue(complex(pv.value.real, 0.0), Route.REAL_AXIS, pv.abs_err_est)


def _derivative_stack(zz, rot: complex):
    """(p, p', p'', p''', p'''') for p(z) = Ai(rot z) at the array zz, from
    one ``airy_batch`` call.

    Every rotated Ai solves p'' = z p in the unrotated variable (rot^3
    is 1), so higher derivatives reduce to p and p'.
    """
    ai, aip, _ = airy_batch(rot * zz)
    dp = rot * aip
    return ai, dp, zz * ai, ai + zz * dp, 2.0 * dp + zz * zz * ai


def _leibniz_terms(p, q):
    """w, w', ..., w'''' of w = p q from the derivatives of p and q."""
    w0 = p[0] * q[0]
    w1 = p[1] * q[0] + p[0] * q[1]
    w2 = p[2] * q[0] + 2.0 * p[1] * q[1] + p[0] * q[2]
    w3 = p[3] * q[0] + 3.0 * p[2] * q[1] + 3.0 * p[1] * q[2] + p[0] * q[3]
    w4 = (p[4] * q[0] + 4.0 * p[3] * q[1] + 6.0 * p[2] * q[2]
          + 4.0 * p[1] * q[3] + p[0] * q[4])
    return w0, w1, w2, w3, w4


def _residual_w(z, z0, p, q):
    """Residual of w'''' - (4z + 2 z0) w'' - 6 w' + z0^2 w for w = p q,
    over the largest magnitude among its four terms (floored at 1)."""
    w0, w1, w2, _, w4 = _leibniz_terms(p, q)
    terms = (w4, (4.0 * z + 2.0 * z0) * w2, 6.0 * w1, z0 * z0 * w0)
    resid = terms[0] - terms[1] - terms[2] + terms[3]
    return abs(resid) / reduce(np.maximum, map(abs, terms), 1.0)


def _residual_reduced(z, p, q):
    """Residual of w''' - 4z w' - 2w for w = p q, scaled as ``_residual_w``."""
    w0, w1, _, w3, _ = _leibniz_terms(p, q)
    terms = (w3, 4.0 * z * w1, 2.0 * w0)
    resid = terms[0] - terms[1] - terms[2]
    return abs(resid) / reduce(np.maximum, map(abs, terms), 1.0)


def ode_residual_w_batch(z, z0):
    """Normalized residual of the fourth-order product equation, per point
    the maximum over all nine products v1(z+z0) v2(z).

    Derivatives of each w are formed analytically from the Airy
    recurrence v'' = z v (no finite differences), combined by the Leibniz
    rule, and inserted into

        w'''' - (4z + 2 z0) w'' - 6 w' + z0^2 w.

    Each residual is normalized by the largest magnitude among the four
    operator terms (floored at 1), so it measures cancellation quality
    relative to the natural scale of the identity.  The six Airy
    evaluations a point needs are shared by the nine rotation pairs, and
    a scalar is a one-point array.
    """
    z = np.atleast_1d(np.asarray(z, complex))
    z0 = np.atleast_1d(np.asarray(z0, complex))
    ps = [_derivative_stack(z + z0, r.factor) for r in Rotation]
    qs = [_derivative_stack(z, r.factor) for r in Rotation]
    return reduce(np.maximum, (_residual_w(z, z0, p, q) for p in ps for q in qs))


def ode_residual_reduced_batch(z):
    """Residual of the third-order zero-shift equation w''' = 4z w' + 2w,
    per point the maximum over all nine products v1(z) v2(z).

    Any product of two Airy-equation solutions with equal arguments
    satisfies it; derivatives and scale are as in ``ode_residual_w_batch``.
    """
    z = np.atleast_1d(np.asarray(z, complex))
    stacks = [_derivative_stack(z, r.factor) for r in Rotation]
    return reduce(np.maximum, (_residual_reduced(z, p, q) for p in stacks for q in stacks))
