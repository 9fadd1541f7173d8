#!/usr/bin/env python3
"""Double cones under the standard Laplacian: complement closure, the
order-mod-4 characterization, and the connected-cone negative result.
"""

import math

from lapwalk import (
    complement,
    complement_closure_check,
    complete,
    connected_double_cone_refutation,
    disjoint_union,
    double_cone_characterization,
    empty,
    join_necessary_condition,
    standard_laplacian,
    verify_pst,
)
from lapwalk.pst import DOUBLE_CONE_T_MAX, SCAN_T_MAX


def main():
    # Complement closure: K2 plus six isolated vertices transfers at pi/2
    # (only the edge does anything), and 8 * pi/2 = 4pi is a multiple of
    # 2pi, so the complement transfers too. That complement is exactly the
    # double cone over K6. At pi/3 the condition fails and so does the
    # identity; one call checks both times from one eigensolve per Laplacian.
    g = disjoint_union(complete(2), empty(6))
    t = math.pi / 2
    checks = complement_closure_check(g, (t, math.pi / 3))
    for label, (condition, deviation) in zip(("pi/2", "pi/3"), checks):
        print(f"t = {label}: closure condition nt in 2piZ: {condition}, "
              f"identity deviation {deviation:.2e}")
    before = verify_pst(standard_laplacian(g), (0, 1), t)
    after = verify_pst(standard_laplacian(complement(g)), (0, 1), t)
    print(f"K2 + isolated vertices at pi/2: {before.magnitude:.9f}")
    print(f"its complement (double cone over K6):  {after.magnitude:.9f}")

    # A necessary condition for transfer inside any join: t(m+n) in 2piZ.
    print("\njoin necessary condition at t=pi/2:")
    for n in (2, 4, 6):
        print(f"  |H| = {n}: {join_necessary_condition(2, n, t)}")

    # The full characterization: the double cone over any base of order n
    # transfers iff n = 2 (mod 4), independent of which base is used.
    print(f"\ndouble-cone characterization (search up to t={DOUBLE_CONE_T_MAX:g}):")
    for res in double_cone_characterization(range(1, 11)):
        note = "transfer at pi/2" if res.has_pst else f"best magnitude {res.certificate.magnitude:.6f}"
        print(f"  n = {res.n:2d}  (n mod 4 = {res.n % 4}): {note}")

    # Making the two apexes adjacent kills the effect entirely.
    print(f"\nconnected double cones K2 + G (apexes adjacent), scan to t={SCAN_T_MAX:g}:")
    for label, base in [("K2", complete(2)), ("2 isolated", empty(2))]:
        best = connected_double_cone_refutation(base)
        print(f"  base {label}: max apex-pair magnitude {best.magnitude:.6f}")


if __name__ == "__main__":
    main()
