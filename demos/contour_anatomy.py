"""Anatomy of the integration contours and the five-integral relation.

Builds all five contours for one (z, z0), prints the four exact saddles
k = +-i(sqrt(z+z0) +- sqrt(z)) of the exponent that place them, each
contour's leg structure, turn radius and reach into its valleys (the
continuously tracked angles are the branch lift of k^(1/2)), and
verifies the linear relation

    I_O = I_R- + I_L- - I_L+ - I_R+

to combined quadrature error.  At z0 = 0 the loop integral collapses to
zero, which is also shown, along a loop whose ends reach k = 0 exactly.

Run:  python demos/contour_anatomy.py
"""

from airyprod import (
    ContourKind,
    ShiftedArgs,
    build_contour,
    laplace_integral,
    saddles,
)


def describe(path):
    parts = []
    for leg in path.segments:
        name = type(leg).__name__
        if name == "RayLeg":
            parts.append(f"ray(theta={leg.theta:+.3f}, r={leg.r_start:.3g}->{leg.r_end:.3g})")
        elif name == "ArcLeg":
            parts.append(f"arc(r={leg.radius:.3g}, theta={leg.theta_start:+.3f}->{leg.theta_end:+.3f})")
        elif name == "DecayLeg":
            parts.append(f"decay(theta={leg.theta:+.3f}, r<={leg.r_outer:.3g}, s_max={leg.s_max:.1f})")
        else:
            parts.append(f"origin(theta={leg.theta:+.3f}, 0<=r<={leg.r_outer:.3g})")
    return "  +  ".join(parts)


def reach(path):
    """How far the path runs out into its valleys: the largest end radius
    of its rays; O joins k = 0 to itself and has none."""
    radii = [max(leg.r_start, leg.r_end) for leg in path.segments
             if type(leg).__name__ == "RayLeg"]
    return f"reaches |k| = {max(radii):.2f}" if radii else "no valley tail"


def main():
    z, z0 = 1 + 0.3j, 0.7
    args = ShiftedArgs.make(z, z0)
    print(f"z = {z}, z0 = {z0}  (sector: {args.z0_sector.value})")
    print("saddles of the exponent: "
          + ", ".join(f"{k:.4g}" for k in saddles(args)))

    vals, err = {}, 0.0
    for kind in ContourKind:
        path = build_contour(kind, args)
        res = laplace_integral(path, 1e-11)
        vals[kind] = res.value
        err += res.abs_err_est
        print(f"\n{kind.value:3s} turn radius {path.segments[1].radius:.3g}, "
              f"{reach(path)}, "
              f"{res.nodes} nodes")
        print("    ", describe(path))
        print(f"     I = {res.value:.12g}")

    lhs = vals[ContourKind.O]
    rhs = (vals[ContourKind.R_MINUS] + vals[ContourKind.L_MINUS]
           - vals[ContourKind.L_PLUS] - vals[ContourKind.R_PLUS])
    print(f"\nlinear relation residual |I_O - (I_R- + I_L- - I_L+ - I_R+)| "
          f"= {abs(lhs - rhs):.2e}  (combined err budget {err:.2e})")

    args0 = ShiftedArgs.make(z, 0.0)
    loop = build_contour(ContourKind.O, args0)
    res = laplace_integral(loop, 1e-12)
    print(f"\nloop integral at z0 = 0: |I_O| = {abs(res.value):.2e} "
          "(contractible, vanishes)")
    # no essential factor at z0 = 0: both ends reach k = 0 exactly
    print("    ", describe(loop))


if __name__ == "__main__":
    main()
