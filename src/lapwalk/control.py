"""Walk matrices, exact integer rank, vertex controllability, and the
pipeline refuting endpoint transfer on the odd unicyclic family.

Walk matrix entries grow like lambda_max^(n-1), so floating-point rank would
be hopelessly ill-conditioned exactly where the mod-3 controllability
pattern matters; rank is therefore exact, in two steps. A screen first
eliminates the matrix modulo the prime ``RANK_PRIME`` in int64. The rank mod
a prime never exceeds the rank over the rationals, which never exceeds
min(rows, cols), so a full rank mod the prime is the exact answer. Only when
the screen falls short (the matrix is rank deficient, or the prime divides
every maximal minor) does fraction-free (Bareiss) elimination over Python
integers decide, exact at any size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graphs import Graph, _require_unweighted, cone_p4_with_pendant, line_graph, odd_unicyclic
from .linegraph import _pendant_edge_index
from .operators import adjacency, signless_laplacian
from .pst import PstCertificate, search_pst
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

# a cluster's projected weight sqrt(E[u, u]) below this counts as vanishing
VANISH_TOL = 1e-8


def _vanishing(weights: np.ndarray) -> np.ndarray:
    """Which clusters' projected weights sqrt(E[u, u]) vanish."""
    return np.sqrt(np.maximum(weights, 0.0)) < VANISH_TOL


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
    _require_unweighted(g, "walk_matrix")
    s = tuple(sorted({int(v) for v in subset}))
    for v in s:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    src, dst = g._arrays[0].T
    columns = np.zeros((g.n, g.n), dtype=object)  # Python ints: no overflow
    columns[list(s), :1] = 1  # e_S; a slice, so that n = 0 works too
    for k in range(1, g.n):
        # (A x)[v] sums x over the neighbours of v: both ends of every edge
        np.add.at(columns[:, k], src, columns[dst, k - 1])
        np.add.at(columns[:, k], dst, columns[src, k - 1])
    return WalkMatrix(tuple(map(tuple, columns.tolist())), s)


# below 2^31, so a product of two residues stays inside int64
RANK_PRIME = 2**31 - 19


def _rank_mod_prime(block: np.ndarray) -> int:
    """Rank of an integer object array modulo RANK_PRIME: one whole-array
    update of the remaining block per pivot."""
    block = (block % RANK_PRIME).astype(np.int64)
    rank = 0
    while block.size:
        nonzero = np.flatnonzero(block[:, 0])
        if nonzero.size:
            top = nonzero[0]
            block[[0, top]] = block[[top, 0]]
            pivot_row = block[0, 1:] * pow(int(block[0, 0]), -1, RANK_PRIME) % RANK_PRIME
            block = (block[1:, 1:] - block[1:, :1] * pivot_row % RANK_PRIME) % RANK_PRIME
            rank += 1
        else:
            block = block[:, 1:]
    return rank


def _bareiss_rank(block: np.ndarray) -> int:
    """Rank over the rationals of an integer object array by fraction-free
    (Bareiss) elimination. All divisions are exact integer divisions by the
    previous pivot, so no tolerance enters anywhere."""
    # the block still to eliminate: the rows below the pivots found so far and
    # the columns right of the last pivot
    rank, prev_pivot = 0, 1
    while block.size:
        nonzero = np.flatnonzero(block[:, 0])
        if nonzero.size:
            top = nonzero[0]
            block[[0, top]] = block[[top, 0]]
            pivot = block[0, 0]
            rest = pivot * block[1:, 1:]  # updated in place: one temporary less
            rest -= block[1:, :1] * block[0, 1:]
            rest //= prev_pivot
            block, prev_pivot = rest, pivot
            rank += 1
        else:
            block = block[:, 1:]
    return rank


def exact_rank(w: WalkMatrix | Sequence[Sequence[int]]) -> int:
    """Rank over the rationals: the rank modulo RANK_PRIME when that is
    already min(rows, cols), Bareiss elimination otherwise.

    Entries become Python ints first, so fixed-width integer input cannot
    overflow.
    """
    rows = w.rows if isinstance(w, WalkMatrix) else w
    block = np.frompyfunc(int, 1, 1)(np.array(rows, dtype=object))
    if block.ndim == 2 and _rank_mod_prime(block) == min(block.shape):
        return min(block.shape)
    return _bareiss_rank(block)


def is_controllable(g: Graph, subset: Iterable[int]) -> bool:
    return exact_rank(walk_matrix(g, subset)) == g.n


def spectral_controllability_count(g: Graph, u: int) -> int:
    """Number of eigenvalue clusters whose eigenspace is not orthogonal to
    e_u (the projection of e_u onto a cluster has squared norm E[u, u]).
    In exact arithmetic this is the walk-matrix rank; in floating point a
    true weight below VANISH_TOL**2 = 1e-16 counts as zero. The first miss
    over the vertices of ``cone_p4_with_pendant(m)`` is m = 19, vertex 23,
    whose smallest weight is about 2e-17: the count reads 23 where
    ``exact_rank`` reads 24."""
    dec = eigendecompose(adjacency(g))
    return int(np.count_nonzero(~_vanishing(dec.pair_weights(u, u))))


def eigenvector_chase_check(m: int) -> bool:
    """True when the cone-over-P4 with an m-edge pendant path admits an
    eigenvector vanishing at the probe vertex.

    A repeated eigenvalue always admits such an eigenvector (one linear
    condition inside a >= 2 dimensional eigenspace), so clusters are checked
    by multiplicity first and by the projected weight sqrt(E[u, u]) otherwise.
    The expected pattern is m = 2 (mod 3).
    """
    g, probe, _ = cone_p4_with_pendant(m)
    dec = eigendecompose(adjacency(g))
    repeated = np.array(dec.multiplicities) >= 2
    return bool((repeated | _vanishing(dec.pair_weights(probe, probe))).any())


@dataclass(frozen=True)
class UnicyclicReport:
    """Outcome of the endpoint-transfer refutation on the triangle with two
    m-edge pendant paths."""

    m: int
    verdict: str  # "no-pst" | "inconclusive"
    line_pair: tuple[int, int]
    ranks: tuple[int, int]
    line_order: int  # a rank equal to it means that pendant edge is controllable
    scan: PstCertificate  # best signless walk entry between the endpoints


def unicyclic_no_pst_pipeline(m: int, t_max: float = 200.0) -> UnicyclicReport:
    """Refute endpoint transfer on the odd unicyclic graph via line-graph
    controllability, cross-checked by a bounded scan of the signless walk.

    The controllability route works whenever m is not divisible by 3, and
    the pipeline raises if it fails there; the m = 0 (mod 3) cases are
    reported as inconclusive (scan evidence only), since there the probe
    vertices do admit vanishing eigenvectors. A report therefore stands
    exactly when ``scan.refutes()`` holds.
    """
    if m < 1:
        raise ValueError("pendant paths need at least one edge")
    u_graph, (end1, end2) = odd_unicyclic(m)
    lg = line_graph(u_graph)
    e1, e2 = _pendant_edge_index(u_graph, end1), _pendant_edge_index(u_graph, end2)
    r1 = exact_rank(walk_matrix(lg, (e1,)))
    r2 = exact_rank(walk_matrix(lg, (e2,)))

    scan = search_pst(signless_laplacian(u_graph), (end1, end2), t_max)

    if m % 3 == 0:
        verdict = "inconclusive"
    else:
        if r1 != lg.n or r2 != lg.n:
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
        scan=scan,
    )
