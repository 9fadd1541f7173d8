#!/usr/bin/env python3
"""The signless Laplacian story: densely regular double cones built from
circulants, the incidence-matrix bridge to line graphs, and the resulting
negative results for paths and odd unicyclic graphs.
"""

import math

import numpy as np

from lapwalk import (
    circulant_family,
    empty,
    incidence,
    intertwine_check,
    join,
    line_graph,
    odd_unicyclic,
    path,
    path_signless_refutation,
    search_pst,
    signless_laplacian,
    unicyclic_no_pst_pipeline,
    verify_pst,
)


def main():
    # (2m, m-1)-regular circulant bases give signless-Laplacian transfer on
    # the double cone at time pi / (2 sqrt(m)).
    print("signless double cones over the circulant family:")
    for m in (2, 3, 4):
        g = join(empty(2), circulant_family(m))
        t = math.pi / (2 * math.sqrt(m))
        res = verify_pst(signless_laplacian(g), (0, 1), t)
        print(f"  m = {m}: |V(H)| = {2*m}, t = pi/(2*sqrt({m})), magnitude = {res.magnitude:.12f}")

    # The normalized incidence matrix ties Q(G) to the line graph:
    # B B^T = Q/2 and B^T B = A(line)/2 + I.
    u2, endpoints = odd_unicyclic(2)
    b = incidence(u2).matrix
    lg, edge_order = line_graph(u2)
    q = signless_laplacian(u2).matrix
    print("\nincidence identities on the 7-vertex odd unicyclic graph:")
    print("  ||B B^T - Q/2||        =", np.abs(b @ b.T - q / 2).max())
    print("  ||B^T B - A(l)/2 - I|| =", np.abs(b.T @ b - lg.adjacency() / 2 - np.eye(lg.n)).max())

    # The same bridge intertwines the walks themselves.
    devs = intertwine_check(u2, 1.7)
    print("  walk intertwining deviations at t=1.7:", [f"{d:.2e}" for d in devs])

    # Consequence one: no endpoint transfer on paths with >= 5 vertices
    # (their line graphs are shorter paths, already known not to transfer).
    print("\nendpoint scans on paths under the signless Laplacian (t <= 200):")
    for n, best in path_signless_refutation((5, 6, 7)).items():
        print(f"  P{n}: max magnitude {best.magnitude:.6f} at t = {best.time:.2f}")

    # Consequence two: the odd unicyclic family. For m not divisible by 3
    # the line graph's pendant endpoints are controllable (exact integer
    # rank), which rules transfer out; the scan agrees.
    print("\nodd unicyclic pipeline:")
    for m in (1, 2, 3, 4):
        rep = unicyclic_no_pst_pipeline(m, t_max=100.0)
        print(
            f"  m = {m}: verdict {rep.verdict:13s} ranks {rep.ranks[0]},{rep.ranks[1]} of "
            f"{rep.line_order}, scan max {rep.scan.magnitude:.6f}"
        )


if __name__ == "__main__":
    main()
