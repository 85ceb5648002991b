"""Tour: every basis product evaluated along its two independent routes.

Walks one (z, z0) pair per shift sector through the four basis functions,
computing each value twice: directly from the Airy evaluator, and from
its half-line contour representation.  The two agree far below the
documented 1e-7 verification tolerance everywhere, including the outer
sector, where the W+- path starts on the other side of the cut.

Run:  python demos/two_routes_tour.py
"""

from airyprod import Route, classify_sector, u_pm, w_pm

POINTS = [
    ("inner", 0.8 - 0.3j, 1.1 + 0.4j),
    ("outer", 0.8 - 0.3j, -1.1 + 0.4j),
    ("boundary", 0.8 - 0.3j, 1.3j),
    ("zero", 0.8 - 0.3j, 0.0),
]


def main():
    print(f"{'sector':10s} {'function':9s} {'direct':>28s} {'contour':>28s} {'scaled diff':>12s}")
    for label, z, z0 in POINTS:
        assert classify_sector(z0).value == label
        for name, fn, sign in [("U+", u_pm, +1), ("U-", u_pm, -1),
                               ("W+", w_pm, +1), ("W-", w_pm, -1)]:
            d = fn(sign, z, z0).value
            c = fn(sign, z, z0, Route.CONTOUR).value
            diff = abs(c - d) / max(1.0, abs(d))
            print(f"{label:10s} {name:9s} {d:28.16g} {c:28.16g} {diff:12.2e}")
        print()
    print("z =", POINTS[0][1], " with z0 cycling through the four sectors")


if __name__ == "__main__":
    main()
