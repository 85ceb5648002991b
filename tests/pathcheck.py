"""Path checks shared by the contour and quadrature tests."""

import math


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
