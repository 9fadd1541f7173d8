#!/usr/bin/env python3
"""Controllability with exact arithmetic: walk matrices, the mod-3 pattern
on the cone over P4 with a pendant path, and why floating point is not an
option here.
"""

import numpy as np

from lapwalk import cone_p4_with_pendant, exact_rank, walk_matrix


def float_counts(adj):
    """For every vertex u, the eigenvalue clusters of a float eigensolve
    whose projected weight sqrt(E[u, u]) is at least 1e-8: the walk-matrix
    rank in exact arithmetic, read off rounded eigenvectors here."""
    evals, evecs = np.linalg.eigh(adj)
    starts = np.concatenate(([0], np.flatnonzero(np.diff(evals) > 1e-8 * (evals[-1] - evals[0])) + 1))
    weights = np.add.reduceat(evecs * evecs, starts, axis=1)  # (vertex, cluster)
    return np.count_nonzero(np.sqrt(np.maximum(weights, 0.0)) >= 1e-8, axis=1)


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
    # length m is not 2 mod 3. Otherwise some eigenvector vanishes at the probe,
    # and the rank falls one short of n.
    print("\nm  controllable  rank/n")
    for m in range(12):
        pc = cone_p4_with_pendant(m)
        rank = exact_rank(walk_matrix(pc.graph, (pc.probe,)))
        print(f"{m:2d}  {str(rank == pc.graph.n):5s}        {rank}/{pc.graph.n}")

    # The rank is also the number of eigenvalues whose eigenspace e_u is not
    # orthogonal to. Counted from a float eigensolve, a true weight below
    # 1e-16 reads as zero, and the count goes wrong as the pendant grows.
    for m in (19, 30, 50):
        g = cone_p4_with_pendant(m).graph
        ranks = [exact_rank(walk_matrix(g, (u,))) for u in range(g.n)]
        counts = float_counts(g.adjacency())
        wrong = [u for u in range(g.n) if counts[u] != ranks[u]]
        u = wrong[0]
        print(f"\nm = {m}: the float count is wrong at {len(wrong)} of {g.n} vertices; "
              f"at vertex {u} it reads {counts[u]}, the exact rank {ranks[u]}")

if __name__ == "__main__":
    main()
