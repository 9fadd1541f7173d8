#!/usr/bin/env python3
"""Controllability with exact arithmetic: walk matrices, the mod-3 pattern
on the cone over P4 with a pendant path, and why floating point is not an
option here.
"""

import numpy as np

from lapwalk import (
    cone_p4_with_pendant,
    eigenvector_chase_check,
    exact_rank,
    is_controllable,
    spectral_controllability_count,
    walk_matrix,
)


def main():
    # The walk matrix [e_u | A e_u | ... | A^{n-1} e_u] is integral; its rank
    # decides controllability of the vertex.
    pc = cone_p4_with_pendant(3)
    w = walk_matrix(pc.graph, (pc.probe,))
    print("walk matrix of the probe vertex (m = 3):")
    for row in w.rows:
        print("  ", row)
    print("exact rank:", exact_rank(w), "of", pc.graph.n)

    # Entries grow like lambda_max^(n-1); once they pass ~1e12 the columns
    # look nearly parallel in floating point and a numeric rank collapses,
    # while the exact rank (a certified Krylov relation) does not.
    for m_big in (11, 23, 29):
        pcb = cone_p4_with_pendant(m_big)
        wb = walk_matrix(pcb.graph, (pcb.probe,))
        exact = exact_rank(wb)
        numeric = np.linalg.matrix_rank(np.array(wb.rows, dtype=float))
        largest = max(max(abs(x) for x in row) for row in wb.rows)
        print(f"\nm = {m_big}: exact rank {exact}, numpy matrix_rank says {numeric} "
              f"(largest entry {largest:.2e})")

    # The pattern: the probe vertex is controllable exactly when the pendant
    # length m is not 2 mod 3. A vanishing eigenvector at the probe is the
    # matching spectral obstruction.
    print("\nm  controllable  vanishing-eigenvector  spectral-count/n")
    for m in range(12):
        pc = cone_p4_with_pendant(m)
        ctl = is_controllable(pc.graph, (pc.probe,))
        chase = eigenvector_chase_check(m)
        count = spectral_controllability_count(pc.graph, pc.probe)
        print(f"{m:2d}  {str(ctl):5s}        {str(chase):5s}                 "
              f"{count}/{pc.graph.n}")


if __name__ == "__main__":
    main()
