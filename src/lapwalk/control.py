"""Walk matrices, exact integer rank, vertex controllability, and the
pipeline refuting endpoint transfer on the odd unicyclic family.

Rank is computed over the integers with fraction-free elimination. Walk
matrix entries grow like lambda_max^(n-1), so floating-point rank would be
hopelessly ill-conditioned exactly where the mod-3 controllability pattern
matters; Python integers make the elimination exact at any size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graphs import Graph, cone_p4_with_pendant, line_graph, odd_unicyclic
from .linegraph import _pendant_edge_index
from .operators import adjacency, signless_laplacian
from .pst import REFUTE_THRESHOLD, search_pst
from .spectral import eigendecompose

__all__ = [
    "WalkMatrix",
    "walk_matrix",
    "exact_rank",
    "is_controllable",
    "spectral_controllability_count",
    "eigenvector_chase_check",
    "unicyclic_no_pst_pipeline",
    "UnicyclicReport",
]


@dataclass(frozen=True)
class WalkMatrix:
    """Columns e_S, A e_S, ..., A^{n-1} e_S as exact integers (rows indexed by
    vertex, columns by power)."""

    rows: tuple[tuple[int, ...], ...]
    subset: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.rows)


def walk_matrix(g: Graph, subset: Iterable[int]) -> WalkMatrix:
    if not g.is_unweighted:
        raise ValueError("walk matrices are defined on unweighted, loop-free graphs")
    s = tuple(sorted({int(v) for v in subset}))
    for v in s:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    n = g.n
    current = [1 if v in s else 0 for v in range(n)]
    columns = [current]
    for _ in range(n - 1):
        nxt = [sum(current[w] for w in g.neighbors[v]) for v in range(n)]
        columns.append(nxt)
        current = nxt
    rows = tuple(tuple(col[v] for col in columns) for v in range(n))
    return WalkMatrix(rows, s)


def exact_rank(w: WalkMatrix | Sequence[Sequence[int]]) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination.

    All divisions are exact integer divisions by the previous pivot, so no
    tolerance enters anywhere.
    """
    rows = w.rows if isinstance(w, WalkMatrix) else w
    m = [[int(x) for x in row] for row in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    prev_pivot = 1
    for col in range(n_cols):
        pivot_row = next((r for r in range(rank, n_rows) if m[r][col] != 0), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        for r in range(rank + 1, n_rows):
            factor = m[r][col]
            for c in range(col + 1, n_cols):
                m[r][c] = (pivot * m[r][c] - factor * m[rank][c]) // prev_pivot
            m[r][col] = 0
        prev_pivot = pivot
        rank += 1
        if rank == n_rows:
            break
    return rank


def is_controllable(g: Graph, subset: Iterable[int]) -> bool:
    return exact_rank(walk_matrix(g, subset)) == g.n


def spectral_controllability_count(g: Graph, u: int, tol: float = 1e-8) -> int:
    """Number of eigenvalue clusters whose eigenspace is not orthogonal to
    e_u; equals the exact walk-matrix rank (the projection of e_u onto a
    cluster has squared norm E[u, u])."""
    dec = eigendecompose(adjacency(g))
    return sum(1 for w in dec.pair_weights(u, u) if np.sqrt(max(w, 0.0)) > tol)


def eigenvector_chase_check(m: int, tol: float = 1e-8) -> bool:
    """True when the cone-over-P4 with an m-edge pendant path admits an
    eigenvector vanishing at the probe vertex.

    A repeated eigenvalue always admits such an eigenvector (one linear
    condition inside a >= 2 dimensional eigenspace), so clusters are checked
    by multiplicity first and by the projected weight sqrt(E[u, u]) otherwise.
    The expected pattern is m = 2 (mod 3).
    """
    g, probe, _ = cone_p4_with_pendant(m)
    dec = eigendecompose(adjacency(g))
    for mult, weight in zip(dec.multiplicities, dec.pair_weights(probe, probe)):
        if mult >= 2:
            return True
        if np.sqrt(max(weight, 0.0)) < tol:
            return True
    return False


@dataclass(frozen=True)
class UnicyclicReport:
    """Outcome of the endpoint-transfer refutation on the triangle with two
    m-edge pendant paths."""

    m: int
    verdict: str  # "no-pst" | "inconclusive"
    line_pair: tuple[int, int]
    ranks: tuple[int, int]
    line_order: int
    endpoints_controllable: tuple[bool, bool]
    scan_magnitude: float
    scan_time: float
    scan_below_threshold: bool


def unicyclic_no_pst_pipeline(m: int, t_max: float = 200.0) -> UnicyclicReport:
    """Refute endpoint transfer on the odd unicyclic graph via line-graph
    controllability, cross-checked by a bounded scan of the signless walk.

    The controllability route works whenever m is not divisible by 3; the
    m = 0 (mod 3) cases are reported as inconclusive (scan evidence only),
    since there the probe vertices do admit vanishing eigenvectors.
    """
    if m < 1:
        raise ValueError("pendant paths need at least one edge")
    u_graph, (end1, end2) = odd_unicyclic(m)
    lg, _ = line_graph(u_graph)
    e1, e2 = _pendant_edge_index(u_graph, end1), _pendant_edge_index(u_graph, end2)
    r1 = exact_rank(walk_matrix(lg, (e1,)))
    r2 = exact_rank(walk_matrix(lg, (e2,)))
    controllable = (r1 == lg.n, r2 == lg.n)

    cert = search_pst(signless_laplacian(u_graph), (end1, end2), t_max)
    below = cert.magnitude < REFUTE_THRESHOLD

    if m % 3 == 0:
        verdict = "inconclusive"
    else:
        if not all(controllable):
            raise RuntimeError(
                f"expected both pendant edges of the line graph controllable for m={m}, "
                f"got ranks {r1},{r2} of {lg.n}"
            )
        verdict = "no-pst"
    return UnicyclicReport(
        m=m,
        verdict=verdict,
        line_pair=(e1, e2),
        ranks=(r1, r2),
        line_order=lg.n,
        endpoints_controllable=controllable,
        scan_magnitude=cert.magnitude,
        scan_time=cert.time,
        scan_below_threshold=below,
    )
