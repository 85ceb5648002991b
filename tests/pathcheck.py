"""Helpers shared by the test modules: path checks for the contour and
quadrature tests, and the key of the bit and digest pins."""

import math

import numpy as np


def path_is_connected(legs, rtol=1e-9):
    """Check junction continuity of both position and tracked angle."""
    ends = [leg.map([0.0, 1.0]) for leg in legs]
    for (k_prev, _, th_prev), (k_next, _, th_next) in zip(ends[:-1], ends[1:]):
        k_end, k_start = k_prev[1], k_next[0]
        scale = max(abs(k_end), abs(k_start), 1e-30)
        if abs(k_end - k_start) > rtol * scale:
            return False
        if abs(th_prev[1] - th_next[0]) > 1e-12:
            return False
    return True


def r_inner(leg):
    """The radius at which a ``DecayLeg`` stops short of k = 0."""
    return leg.r_outer * math.exp(-leg.s_max)


def float_kernels():
    """numpy's minor version and the SIMD targets of its float64 exp and power."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy < 2.0
        return None
    info = opt_func_info(func_name="exp|power", signature="float64")
    return (np.__version__.rsplit(".", 1)[0], info["exp"]["dd"]["current"],
            info["power"]["ddd"]["current"])
