"""Intertwining between the signless-Laplacian walk on a graph and the
adjacency walk on its line graph, plus the transfer tooling built on it.

With the normalized incidence matrix B (entries 1/sqrt(2) on incidences) the
products satisfy B B^T = Q/2 and B^T B = A(line)/2 + I, which gives

    B^T exp(-itQ) = exp(-2it) exp(-itA(line)) B^T

and its two companions. Edge i of ``g.edges`` is column i of the incidence
matrix and vertex i of the line graph. ``line_identity`` proves the product
identity exactly on the edge arrays; ``intertwine_check`` compares the walks
in floating point at given times.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Graph, _vertices, line_graph
from .operators import adjacency, incidence, signless_laplacian
from .pst import IdentityReport, PstCertificate, _identities, verify_pst
from .spectral import eigendecompose, per_time

__all__ = [
    "line_identity",
    "intertwine_check",
    "pst_transfer_to_line",
    "LineTransferReport",
]


def line_identity(g: Graph, line: Graph) -> IdentityReport:
    """Whether ``line`` is the line graph of g, vertex i standing for edge i
    of ``g.edges``: N^T N = A(L) + 2I for the 0/1 vertex-edge incidence N,
    checked on the edge arrays in int64. (N^T N)[i, j] counts the vertices
    edges i and j share: 2 on the diagonal and at most 1 off it, as two
    distinct edges of a simple graph share at most one vertex. So N^T N - 2I
    is the 0/1 matrix of the pairs of edges that meet, and it is A(L) when

    - L has one vertex per edge of G, and every edge ij of L joins edges i
      and j that share a vertex;
    - |E(L)| = sum_v C(d_v, 2), the number of pairs of edges of G that
      meet: each pair meets at one vertex, so it is counted once there.

    L's edges are then distinct meeting pairs, as many as there are. Beside
    it, N N^T = D + A = Q(G) for every graph: entry (u, v) counts the edges
    on both u and v.

    The walk consequence, at every t: N^T Q = N^T N N^T = (A(L) + 2I) N^T,
    so N^T Q^k = (A(L) + 2I)^k N^T for every k, and summing the series,

        N^T e^{-itQ} = e^{-it(A(L) + 2I)} N^T = e^{-2it} e^{-itA(L)} N^T.

    Transposing gives e^{-itQ} N = e^{-2it} N e^{-itA(L)}, and multiplying
    the first by N on the right gives N^T e^{-itQ} N = e^{-2it} e^{-itA(L)}
    N^T N. The normalized incidence N / sqrt 2 satisfies all three, the
    identities ``intertwine_check`` samples."""

    def edges_meet() -> bool:
        if line.n != g.edge_count:
            return False
        (a, b), (c, d) = g.ends[line.ends[:, 0]].T, g.ends[line.ends[:, 1]].T
        return bool(((a == c) | (a == d) | (b == c) | (b == d)).all())

    def count_pairs() -> bool:
        # d <= |E(G)|, and the edges are held in an array, so d (d - 1) fits in int64
        degree = np.bincount(g.ends.ravel(), minlength=g.n)
        return line.edge_count == int((degree * (degree - 1) // 2).sum())

    return _identities(
        [
            ("edges of L(G) meet in G", edges_meet),
            ("|E(L(G))| = sum_v C(d_v, 2)", count_pairs),
        ]
    )


def intertwine_check(
    g: Graph, times: float | Sequence[float]
) -> tuple[float, float, float] | list[tuple[float, float, float]]:
    """Max-norm deviations of the three intertwining identities at each time
    (see ``spectral.per_time``). The signless Laplacian and the line graph's
    adjacency matrix are each decomposed once per call."""
    b = incidence(g)
    btb = b.T @ b
    dq = eigendecompose(signless_laplacian(g))
    da = eigendecompose(adjacency(line_graph(g)))

    def check(t: float) -> tuple[float, float, float]:
        uq, ua = dq.matrix_at(t), da.matrix_at(t)
        phase = cmath.exp(-2j * t)
        dev_a = float(np.abs(b.T @ uq - phase * ua @ b.T).max(initial=0.0))
        dev_b = float(np.abs(uq @ b - phase * b @ ua).max(initial=0.0))
        dev_c = float(np.abs(b.T @ uq @ b - phase * ua @ btb).max(initial=0.0))
        return dev_a, dev_b, dev_c

    return per_time(times, check)


@dataclass(frozen=True)
class LineTransferReport:
    """Both sides of the endpoint-transfer correspondence: the signless walk
    between two vertices and, when that certifies, the adjacency walk
    between their pendant edges (``line.pair``)."""

    source: PstCertificate
    line: PstCertificate | None


def _pendant_edge_index(g: Graph, u: int) -> int:
    hits = np.flatnonzero((g.ends == u).any(axis=1))
    if len(hits) != 1:
        raise ValueError(f"vertex {u} has degree {len(hits)}, expected 1")
    return int(hits[0])


def pst_transfer_to_line(g: Graph, u1: int, u2: int, t: float) -> LineTransferReport:
    """Check transfer from a degree-one vertex u1 to u2 under the signless
    Laplacian and, when it certifies, confirm that u2 also has degree one and
    that the line graph transfers between the two pendant edges at the same
    time under the adjacency matrix.

    A vertex outside 0..n-1 raises ValueError, as ``pst.walk_entries``
    raises it, before anything is read. Single-edge graphs are rejected:
    their line graph is a single vertex and the statement degenerates. So
    are targets on u1's own pendant edge of degree one (u1 itself, or the
    far end of an isolated edge): both ends would be the same line-graph
    vertex.

    The certified branch (the pendant check on u2 and the line-graph
    verification) has no known non-degenerate input, and no test exercises
    it: every input known to certify is one of the degenerate cases above.
    """
    _vertices(g.n, (u1, u2))
    if g.edge_count < 2:
        raise ValueError("transfer to the line graph needs at least two edges")
    degs = g.degrees()
    if degs[u1] != 1:
        raise ValueError(f"vertex {u1} must have degree one")
    e1 = _pendant_edge_index(g, u1)
    if u2 in g.ends[e1] and degs[u2] == 1:
        raise ValueError(f"vertex {u2} ends the same pendant edge as vertex {u1}")
    source = verify_pst(signless_laplacian(g), (u1, u2), t)
    if not source.certifies():
        return LineTransferReport(source, None)
    if degs[u2] != 1:
        raise RuntimeError(
            f"certified transfer into vertex {u2} of degree {int(degs[u2])}; "
            "the target of endpoint transfer must be pendant"
        )
    e2 = _pendant_edge_index(g, u2)
    return LineTransferReport(source, verify_pst(adjacency(line_graph(g)), (e1, e2), t))
