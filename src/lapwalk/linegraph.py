"""Intertwining between the signless-Laplacian walk on a graph and the
adjacency walk on its line graph, plus the transfer and refutation tooling
built on it.

With the normalized incidence matrix B (entries 1/sqrt(2) on incidences) the
products satisfy B B^T = Q/2 and B^T B = A(line)/2 + I, which gives

    B^T exp(-itQ) = exp(-2it) exp(-itA(line)) B^T

and its two companions. Edge i of ``g.edges`` is column i of the incidence
matrix and vertex i of the line graph.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graphs import Graph, line_graph, path
from .operators import adjacency, incidence, signless_laplacian
from .pst import PstCertificate, search_pst, verify_pst
from .spectral import walk

__all__ = [
    "intertwine_check",
    "pst_transfer_to_line",
    "LineTransferReport",
    "path_signless_refutation",
]


def intertwine_check(g: Graph, t: float) -> tuple[float, float, float]:
    """Max-norm deviations of the three intertwining identities at time t."""
    b = incidence(g)
    lg = line_graph(g)
    uq = walk(signless_laplacian(g), t)
    ua = walk(adjacency(lg), t)
    phase = cmath.exp(-2j * t)
    dev_a = float(np.abs(b.T @ uq - phase * ua @ b.T).max(initial=0.0))
    dev_b = float(np.abs(uq @ b - phase * b @ ua).max(initial=0.0))
    dev_c = float(np.abs(b.T @ uq @ b - phase * ua @ (b.T @ b)).max(initial=0.0))
    return dev_a, dev_b, dev_c


@dataclass(frozen=True)
class LineTransferReport:
    """Both sides of the endpoint-transfer correspondence: the signless walk
    between two vertices and, when that certifies, the adjacency walk
    between their pendant edges (``line.pair``)."""

    source: PstCertificate
    line: PstCertificate | None


def _pendant_edge_index(g: Graph, u: int) -> int:
    hits = np.flatnonzero((g._arrays[0] == u).any(axis=1))
    if len(hits) != 1:
        raise ValueError(f"vertex {u} has degree {len(hits)}, expected 1")
    return int(hits[0])


def pst_transfer_to_line(g: Graph, u1: int, u2: int, t: float) -> LineTransferReport:
    """Check transfer from a degree-one vertex u1 to u2 under the signless
    Laplacian and, when it certifies, confirm that u2 also has degree one and
    that the line graph transfers between the two pendant edges at the same
    time under the adjacency matrix.

    Single-edge graphs are rejected: their line graph is a single vertex and
    the statement degenerates. So are targets on u1's own pendant edge of
    degree one (u1 itself, or the far end of an isolated edge): both ends
    would be the same line-graph vertex.
    """
    if g.edge_count < 2:
        raise ValueError("transfer to the line graph needs at least two edges")
    degs = g.degrees()
    if degs[u1] != 1:
        raise ValueError(f"vertex {u1} must have degree one")
    e1 = _pendant_edge_index(g, u1)
    if u2 in g._arrays[0][e1] and degs[u2] == 1:
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


def path_signless_refutation(
    ns: Iterable[int], t_max: float = 200.0
) -> dict[int, PstCertificate]:
    """The best endpoint-to-endpoint signless walk entry on each path P_n,
    by n; the known negative result starts at five vertices, so smaller n is
    rejected before any scan."""
    ns = list(ns)
    if min(ns, default=5) < 5:
        raise ValueError("the endpoint refutation applies to paths on >= 5 vertices")
    return {n: search_pst(signless_laplacian(path(n)), (0, n - 1), t_max) for n in ns}
