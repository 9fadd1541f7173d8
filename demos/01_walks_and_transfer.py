#!/usr/bin/env python3
"""Tour of the walk machinery: building graphs, evaluating exp(-itM), and
checking the three smallest perfect-state-transfer examples.
"""

import math

import numpy as np

from lapwalk import (
    complete,
    disjoint_union,
    eigendecompose,
    empty,
    join,
    normalized_laplacian,
    path,
    signless_laplacian,
    standard_laplacian,
    verify_pst,
)


def main():
    # A two-vertex graph transfers under the standard Laplacian at pi/2:
    # the (0,1) entry of exp(-itL(K2)) has magnitude |sin t|.
    k2 = complete(2)
    dec = eigendecompose(standard_laplacian(k2))
    print("|U(t)_{10}| for L(K2):")
    ts = np.linspace(0, math.pi, 5)
    for t, amp in zip(ts, dec.amplitude(0, 1, ts)):
        print(f"  t = {t:5.3f}   magnitude = {abs(amp):.6f}   (sin t = {math.sin(t):.6f})")

    # The walk operator itself, read from the same decomposition, is unitary
    # and is the identity at t = 0.
    u = dec.matrix_at(0.8)
    print("\nunitarity check at t=0.8:", np.abs(u @ u.conj().T - np.eye(2)).max())

    # Three small graphs with transfer, each under a different operator.
    examples = [
        ("P3 under the normalized Laplacian at pi",
         normalized_laplacian(path(3)), (0, 2), math.pi),
        ("double cone over K2 under the standard Laplacian at pi/2",
         standard_laplacian(join(empty(2), complete(2))), (0, 1), math.pi / 2),
        ("double cone over 2K2 under the signless Laplacian at pi/sqrt(8)",
         signless_laplacian(join(empty(2), disjoint_union(complete(2), complete(2)))),
         (0, 1), math.pi / math.sqrt(8)),
    ]
    print()
    for label, ham, pair, t in examples:
        res = verify_pst(ham, pair, t)
        print(f"{label}:")
        print(f"  certified = {res.certifies()}, "
              f"magnitude = {res.magnitude:.12f}")

    # P3 does *not* transfer under the standard Laplacian: same pair, same
    # time, magnitude well below one.
    res = verify_pst(standard_laplacian(path(3)), (0, 2), math.pi)
    print(f"\nP3 under the standard Laplacian at pi: magnitude = {res.magnitude:.6f} (refuted)")


if __name__ == "__main__":
    main()
