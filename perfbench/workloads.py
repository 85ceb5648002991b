"""The benchmark workloads: seeded inputs, one operation (op) each, and its check.

Every workload draws its inputs from ``--seed`` in blocks of ops, so a
time-bounded run consumes a deterministic prefix of one endless seeded
list.  The library sees only the generated inputs.  Each workload
object provides

* ``make_block(api, seed)``: the next block of op inputs, with any
  reference values computed there, outside the timed region;
* ``run(api, op)``: the timed library calls of one op;
* ``deviations(op, out)``: ``(got, want, scale)`` triples; the op passes
  when every ``|got - want| / scale`` is at most ``tol``;
* ``keys(op)``: the op's inputs as hashable values, used to prove that
  no timed input repeats and none was seen during warm-up.

The calls ``run`` makes, and the grid calls of ``make_block``, go
through ``api``, a namespace of public functions that the traced run
replaces with timed wrappers; reference values are computed directly.
"""

from __future__ import annotations

import cmath
import math
from types import SimpleNamespace

import numpy as np

from airyprod import grids, greens, products
from airyprod.greens import GreensParams
from airyprod.oracle import CROSSOVER_RADIUS, airy_batch
from airyprod.products import Rotation, Route

OMEGA = cmath.exp(2j * math.pi / 3.0)
THIRD = cmath.exp(1j * math.pi / 3.0)

#: Seed streams: timed inputs, warm-up inputs and the traced wide probe
#: never share a generator, so warm-up cannot fill a cache a timed op hits.
TIMED, WARMUP, PROBE = 0, 1, 2

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def plain_api():
    """The public library functions the workloads call."""
    return SimpleNamespace(
        u_pm=products.u_pm,
        w_pm=products.w_pm,
        product=products.product,
        difference_identity=products.difference_identity,
        ode_residual_w_batch=products.ode_residual_w_batch,
        ode_residual_reduced_batch=products.ode_residual_reduced_batch,
        greens_closed=greens.greens_closed,
        greens_time_integral=greens.greens_time_integral,
        shifted_grid=grids.shifted_grid,
    )


def derive_seed(seed: int, workload: str, stream: int, block: int) -> int:
    """Independent 32-bit seed for one block of one stream of a workload."""
    tag = int.from_bytes(workload.encode(), "little")
    ss = np.random.SeedSequence([seed, tag, stream, block])
    return int(ss.generate_state(1)[0])


def _stratified_grid(api, n, seed, **radii):
    """``shifted_grid`` pairs reordered so that every prefix is a stratified
    sample of them.

    An op's cost depends on |z| and |z + z0|.  On the direct route a
    scalar oracle call at argument x costs about 3 + |x| units while it
    sums its series (|x| up to the crossover radius) and a small fraction
    of that beyond; on the contour route cost also grows with the sizes.
    Visiting the pairs sorted by that estimate, in golden-ratio order,
    spreads any prefix evenly over it, so a time-bounded run sees nearly
    the same cost mix whatever the seed.
    """
    z, z0 = api.shifted_grid(n, seed, **radii)
    cost = sum(np.where(r <= CROSSOVER_RADIUS, 3.0 + r, 0.0)
               for r in (np.abs(z), np.abs(z + z0)))
    by_cost = np.argsort(cost, kind="stable")
    order = by_cost[np.argsort((np.arange(n) * _GOLDEN) % 1.0, kind="stable")]
    return z[order], z0[order]


def _point_mix(api, seed, n_narrow, n_wide):
    """Sector-mixed (z, z0) pairs: |z| <= 4, |z0| <= 3, every fourth one wide.

    The wide pairs (|z| <= 12, |z0| <= 6) are interleaved at a fixed
    stride, so any prefix of a block holds the same share of them.
    """
    z, z0 = _stratified_grid(api, n_narrow, seed)
    zw, z0w = _stratified_grid(api, n_wide, seed ^ 0x5A5A5A5A,
                               z_radius=12.0, z0_radius=6.0)
    out = []
    stride = n_narrow // n_wide
    for j in range(n_wide):
        out.extend(zip(z[j * stride:(j + 1) * stride].tolist(),
                       z0[j * stride:(j + 1) * stride].tolist()))
        out.append((complex(zw[j]), complex(z0w[j])))
    return out


class ContourSweep:
    """u_pm(+-1), w_pm(+-1) at tol 1e-8 and difference_identity(+-1), by contour.

    References are products of ``airy_batch`` values, computed per block
    outside the timed region.  The difference identity is scaled by the
    larger of its two products because the difference cancels.
    """

    name = "contour-sweep"
    tol = 1e-7
    warmup_ops = 8
    block = 512

    def make_block(self, api, seed):
        z, z0 = _stratified_grid(api, self.block, seed)
        zs = z + z0
        a_z, a_s = airy_batch(z)[0], airy_batch(zs)[0]
        ops = []
        refs = {}
        for sign, rot in ((+1, OMEGA), (-1, OMEGA.conjugate())):
            a_rz, a_rs = airy_batch(rot * z)[0], airy_batch(rot * zs)[0]
            left, right = a_rs * a_z, a_s * a_rz
            refs[sign] = (a_rs * a_rz, right, left - right,
                          np.maximum.reduce([np.ones(z.shape), np.abs(left), np.abs(right)]))
        for i in range(self.block):
            want = []
            for sign in (+1, -1):
                u, w, d, dscale = (r[i] for r in refs[sign])
                want += [(complex(u), max(1.0, abs(u))), (complex(w), max(1.0, abs(w))),
                         (complex(d), float(dscale))]
            ops.append((complex(z[i]), complex(z0[i]), tuple(want)))
        return ops

    def run(self, api, op):
        z, z0, _ = op
        out = []
        for sign in (+1, -1):
            out.append(api.u_pm(sign, z, z0, route=Route.CONTOUR, tol=1e-8).value)
            out.append(api.w_pm(sign, z, z0, route=Route.CONTOUR, tol=1e-8).value)
            out.append(api.difference_identity(sign, z, z0, route=Route.CONTOUR).value)
        return tuple(out)

    def deviations(self, op, out):
        return [(got, want, scale) for got, (want, scale) in zip(out, op[2])]

    def keys(self, op):
        return [(op[0], op[1])]


class DirectScalar:
    """u_pm(+-1), w_pm(+-1), product(+,-) and product(-,+) by the direct route.

    Twelve scalar ``airy`` calls per op.  The check is the pair of basis
    identities product(s, -s) = third^-s U[-s] + third^s W[-s], scaled by
    the largest term, as ``airyprod verify identities`` scales them.
    """

    name = "direct-scalar"
    tol = 1e-10
    warmup_ops = 2
    block = 256

    def make_block(self, api, seed):
        return _point_mix(api, seed, 3 * self.block // 4, self.block // 4)

    def run(self, api, op):
        z, z0 = op
        d = Route.DIRECT
        return (
            api.u_pm(+1, z, z0, route=d).value, api.u_pm(-1, z, z0, route=d).value,
            api.w_pm(+1, z, z0, route=d).value, api.w_pm(-1, z, z0, route=d).value,
            api.product(Rotation.PLUS, Rotation.MINUS, z, z0, route=d).value,
            api.product(Rotation.MINUS, Rotation.PLUS, z, z0, route=d).value,
        )

    def deviations(self, op, out):
        up, um, wp, wm, ppm, pmp = out
        rows = []
        for lhs, u, w, s in ((ppm, um, wm, +1), (pmp, up, wp, -1)):
            rhs = THIRD ** (-s) * u + THIRD ** s * w
            rows.append((lhs, rhs, max(1.0, abs(u), abs(w), abs(lhs))))
        return rows

    def keys(self, op):
        return [op]


class BatchGrid:
    """``ode_residual_w_batch`` on a 256-point grid chunk, plus the reduced
    residual on its z0 = 0 subset (acceptance criterion 1 at chunk size)."""

    name = "batch-grid"
    tol = 1e-10
    warmup_ops = 1
    block = 8
    chunk = 256

    def make_block(self, api, seed):
        ops = []
        for chunk_seed in np.random.SeedSequence(seed).generate_state(self.block):
            z, z0 = api.shifted_grid(self.chunk, int(chunk_seed))
            ops.append((z, z0, z[z0 == 0.0]))
        return ops

    def run(self, api, op):
        z, z0, z_zero = op
        return api.ode_residual_w_batch(z, z0), api.ode_residual_reduced_batch(z_zero)

    def deviations(self, op, out):
        return [(float(np.max(r)), 0.0, 1.0) for r in out]

    def keys(self, op):
        return list(zip(op[0].tolist(), op[1].tolist()))


class GreensField:
    """One acceptance-criterion-6 configuration: ``greens_closed`` against
    ``greens_time_integral`` at tol 1e-8, relative gap at most 1e-6."""

    name = "greens-field"
    tol = 1e-6
    warmup_ops = 8
    block = 256

    def make_block(self, api, seed):
        rng = np.random.default_rng(seed)
        n = self.block
        energy = rng.uniform(-1.0, 1.0, n)
        field = 10.0 ** rng.uniform(-2.0, 0.0, n)
        eta = rng.uniform(0.1, 5.0, n)
        direction = rng.normal(size=(n, 3))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        shift = rng.normal(size=(n, 3)) * 0.5
        sep = 2.0 ** (2.0 / 3.0) * eta / field ** (1.0 / 3.0)
        ops = []
        for i in range(n):
            half = direction[i] * sep[i] / 2.0
            ops.append(GreensParams.make(energy[i], (0.0, 0.0, field[i]),
                                         half + shift[i], -half + shift[i]))
        return ops

    def run(self, api, op):
        return api.greens_closed(op), api.greens_time_integral(op, 1e-8)

    def deviations(self, op, out):
        closed, integral = out
        return [(integral, closed, max(abs(closed), 1e-300))]

    def keys(self, op):
        return [(op.energy_E, op.field_F, op.r, op.r_prime)]


WORKLOADS = {w.name: w for w in (ContourSweep(), DirectScalar(), BatchGrid(), GreensField())}


class OpStream:
    """The endless seeded op list of one stream, generated a block at a time."""

    def __init__(self, workload, api, seed: int, stream: int):
        self.workload, self.api = workload, api
        self.seed, self.stream = seed, stream
        self._ops, self._block = [], 0

    def __getitem__(self, i):
        while i >= len(self._ops):
            seed = derive_seed(self.seed, self.workload.name, self.stream, self._block)
            self._ops.extend(self.workload.make_block(self.api, seed))
            self._block += 1
        return self._ops[i]


def failed_check(workload, op, out) -> bool:
    """True when any deviation of the op's outputs exceeds the workload tol."""
    return any(not (abs(got - want) / scale <= workload.tol)
               for got, want, scale in workload.deviations(op, out))


def wide_probe_points(seed: int, n: int):
    """(z, z0) pairs with |z| <= 12, |z0| <= 6, where the contour route is
    known to miss its tolerance on a fraction of a percent of calls."""
    return grids.shifted_grid(n, derive_seed(seed, "wide-probe", PROBE, 0),
                              z_radius=12.0, z0_radius=6.0)
