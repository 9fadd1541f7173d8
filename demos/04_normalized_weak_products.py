#!/usr/bin/env python3
"""Normalized-Laplacian walks: weak products as a closure operation, the
spectra that make the arithmetic work, and the path/even-cycle reduction
behind the negative result for paths.
"""

import math

import numpy as np

from lapwalk import (
    complete,
    cycle_pst_screen,
    eigendecompose,
    hypercube,
    normalized_laplacian,
    normalized_weak_product_walk_check,
    path,
    path_cycle_correspondence,
    search_pst,
    verify_pst,
    weak_product,
    weak_product_closure_1,
)
from lapwalk.pst import SCAN_T_MAX


def main():
    # The normalized Laplacian of a weak product is not a Kronecker sum;
    # it picks up a cross term: L(GxH) = L(G)(x)I + I(x)L(H) - L(G)(x)L(H).
    checks = normalized_weak_product_walk_check(path(3), complete(4), (math.pi, 3 * math.pi))
    print("P3 x K4:")
    print(f"  operator identity deviation {checks[0].operator_deviation:.2e}")
    for label, chk in zip(("pi", "3pi"), checks):
        print(f"  spectral walk formula deviation at t = {label}: {chk.walk_deviation:.2e}")

    # Closure: P3 transfers at pi; multiplying by a graph H keeps transfer
    # at time t whenever t * mu * (lambda - 1) is a multiple of 2pi for all
    # eigenvalue pairs. Even cliques and odd cubes fit at t = (2m-1)pi.
    spec_p3 = eigendecompose(normalized_laplacian(path(3))).values
    print("\nclosure arithmetic and certified transfer:")
    for label, h, t in [
        ("K4", complete(4), 3 * math.pi),
        ("Q3", hypercube(3), 3 * math.pi),
        ("K2", complete(2), math.pi),
    ]:
        spec_h = eigendecompose(normalized_laplacian(h)).values
        cond = weak_product_closure_1(spec_p3, spec_h, t)
        prod = weak_product(path(3), h)
        res = verify_pst(normalized_laplacian(prod), (0, 2 * h.n), t)
        print(f"  P3 x {label:2s} at t = {t/math.pi:.0f}pi: condition {cond}, "
              f"magnitude {res.magnitude:.12f}")

    # The n-cube transfers at n*pi/2 rather than pi/2: the normalized walk
    # sees the growing diameter.
    print("\nhypercube transfer times under the normalized Laplacian:")
    for n in (1, 2, 3):
        q = hypercube(n)
        res = verify_pst(normalized_laplacian(q), (0, 2**n - 1), n * math.pi / 2)
        print(f"  Q{n} at {n}pi/2: magnitude {res.magnitude:.12f}")

    # Paths reduce to even cycles: the folding partition of C_2m is
    # equitable, and its count matrix B satisfies diag(deg P_n) B = 2 A(P_n),
    # so |exp(-itL(P_n))[n-1, 0]| = |exp(-i(t/2)A(C_2m))[m, 0]|: time dilates
    # by a factor of two between the two walks. Both identities are checked
    # in integer arithmetic, for every t at once.
    print("\npath <-> even-cycle correspondence:")
    for n in (3, 4, 5):
        print(f"  n = {n}: {path_cycle_correspondence(n)}")

    # The integrality screen on the cycle spectrum rules out transfer for
    # n >= 5 outright; C6 (n = 4) has integer spectrum and needs the known
    # theorem instead of the screen.
    print("\ncycle screen verdicts:")
    for n in (2, 3, 4, 5, 6):
        s = cycle_pst_screen(n)
        extra = f", witness eigenvalue {s.witness:.4f}" if s.witness is not None else ""
        print(f"  n = {n} (cycle C{s.cycle_order}): possible={s.possible} via {s.reason}{extra}")

    # Scan evidence for the antipodal negative result on P4 and P5.
    print(f"\nantipodal scans under the normalized Laplacian (t <= {SCAN_T_MAX:g}):")
    for n in (4, 5):
        cert = search_pst(normalized_laplacian(path(n)), (0, n - 1), SCAN_T_MAX)
        print(f"  P{n}: max magnitude {cert.magnitude:.6f}")


if __name__ == "__main__":
    main()
