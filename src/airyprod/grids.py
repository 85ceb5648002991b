"""Deterministic pseudo-random sample grids for verification runs.

The identity and route checks need (z, z0) samples that cover all four
shift sectors (inner / outer / boundary / zero) with controlled radii,
and the Green's-function checks need field configurations over a range
of scaled separations.  Given the same seed the grids are bit-identical,
which keeps report files byte-stable.
"""

from __future__ import annotations

import numpy as np

from .greens import GreensParams

__all__ = ["shifted_grid", "greens_samples", "real_grid"]


def _disk(rng, n, radius):
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    th = rng.uniform(-np.pi, np.pi, n)
    return r * np.exp(1j * th)


def shifted_grid(n: int, seed: int, z_radius: float = 4.0, z0_radius: float = 3.0,
                 quotas=(0.4, 0.3, 0.15, 0.15)):
    """(z, z0) arrays with sector quotas (inner, outer, boundary, zero).

    z is uniform over the disk |z| <= z_radius; z0 magnitudes are uniform
    in [0.05, z0_radius) with arguments drawn per sector.  Boundary points
    sit within 1e-13 of |arg z0| = pi/2; zero points have z0 = 0 exactly.
    """
    rng = np.random.default_rng(seed)
    z = _disk(rng, n, z_radius)
    n_inner = int(quotas[0] * n)
    n_outer = int(quotas[1] * n)
    n_bound = int(quotas[2] * n)
    n_zero = n - n_inner - n_outer - n_bound

    mag = rng.uniform(0.05, z0_radius, n)
    arg = np.empty(n)
    arg[:n_inner] = rng.uniform(-np.pi / 2 + 1e-3, np.pi / 2 - 1e-3, n_inner)
    sl = slice(n_inner, n_inner + n_outer)
    arg[sl] = (rng.uniform(np.pi / 2 + 1e-3, np.pi, n_outer)
               * rng.choice([-1.0, 1.0], n_outer))
    sl = slice(n_inner + n_outer, n_inner + n_outer + n_bound)
    arg[sl] = (np.pi / 2 + rng.uniform(-1e-13, 1e-13, n_bound)) \
        * rng.choice([-1.0, 1.0], n_bound)
    z0 = mag * np.exp(1j * arg)
    z0[n - n_zero:] = 0.0
    return z, z0


def greens_samples(n: int, seed):
    """Yield n pairs (eta, GreensParams) with E in [-1, 1], F = 10^U(-2, 0) z^.

    Each sample draws, in this order, E, F, eta in [0.1, 5], a random
    direction and a shift of the midpoint; r and r' sit symmetrically
    about it at the separation whose scaled value is eta.  ``seed`` may
    be a ``numpy.random.Generator``, which is drawn from and advanced.
    """
    rng = np.random.default_rng(seed)
    for _ in range(n):
        e = rng.uniform(-1.0, 1.0)
        f0 = 10.0 ** rng.uniform(-2.0, 0.0)
        eta = rng.uniform(0.1, 5.0)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        half = direction * (2.0 ** (2.0 / 3.0) * eta / f0 ** (1.0 / 3.0)) / 2
        shift = rng.normal(size=3) * 0.5
        yield eta, GreensParams.make(e, (0.0, 0.0, f0), half + shift, -half + shift)


def real_grid(n_x: int, n_x0: int, x_range, x0_range):
    """Tensor grid of real (x, x0) pairs, flattened row-major."""
    xs = np.linspace(*x_range, n_x)
    x0s = np.linspace(*x0_range, n_x0)
    gx, gx0 = np.meshgrid(xs, x0s, indexing="ij")
    return gx.ravel(), gx0.ravel()
