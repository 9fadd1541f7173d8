"""Equitable and almost-equitable vertex partitions, the normalized partition
matrix, quotient operators, and walk lifting between a graph and its quotient.

A partition is equitable when every vertex of cell j has the same number
d[j,k] of neighbors in cell k, for all j and k; almost equitable only
requires this for j != k. Quotient matrices follow the displayed formulas
for each operator kind; the sign of the off-diagonal entries is fixed by the
kind (negative square roots for the standard Laplacian, positive otherwise)
and never inferred from data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .graphs import Graph, cycle, path
from .operators import OperatorKind, normalized_laplacian, operator
from .spectral import eigendecompose, walk

__all__ = [
    "Partition",
    "QuotientMatrix",
    "NotEquitableError",
    "NotAlmostEquitableError",
    "check_equitable",
    "check_almost_equitable",
    "coarsest_equitable_refinement",
    "partition_matrix",
    "quotient",
    "lift_check",
    "path_cycle_correspondence",
    "PathCycleReport",
]


class NotEquitableError(ValueError):
    """Carries the first witness (vertex, cell) that breaks the count."""

    def __init__(self, vertex: int, cell: int, message: str):
        self.vertex = vertex
        self.cell = cell
        super().__init__(message)


class NotAlmostEquitableError(NotEquitableError):
    pass


@dataclass(frozen=True)
class Partition:
    """Ordered disjoint cells covering 0..n-1 plus the verified neighbor
    counts. ``degree_counts[j, k]`` is d[j,k]; the diagonal is NaN when only
    the almost-equitable condition was verified."""

    n: int
    cells: tuple[tuple[int, ...], ...]
    degree_counts: np.ndarray

    @property
    def size(self) -> int:
        return len(self.cells)

    @property
    def is_equitable(self) -> bool:
        return not np.isnan(np.diag(self.degree_counts)).any()

    @cached_property
    def cell_of(self) -> tuple[int, ...]:
        owner = [-1] * self.n
        for k, cell in enumerate(self.cells):
            for v in cell:
                owner[v] = k
        return tuple(owner)

    @classmethod
    def from_cells(cls, n: int, cells: Sequence[Iterable[int]]) -> "Partition":
        """Plain partition with no equitability claim (all counts NaN); good
        enough for the partition matrix, not for quotients."""
        tup = _validated_cells(n, cells)
        return cls(n, tup, np.full((len(tup), len(tup)), np.nan))


def _validated_cells(n: int, cells: Sequence[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    out = []
    seen: set[int] = set()
    for cell in cells:
        tup = tuple(sorted(int(v) for v in cell))
        if not tup:
            raise ValueError("cells must be nonempty")
        for v in tup:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range")
            if v in seen:
                raise ValueError(f"vertex {v} appears in two cells")
            seen.add(v)
        out.append(tup)
    if len(seen) != n:
        raise ValueError("cells must cover every vertex")
    return tuple(out)


def _membership(n: int, cells) -> np.ndarray:
    """n x m 0/1 matrix with a one on (vertex, its cell)."""
    out = np.zeros((n, len(cells)))
    for k, cell in enumerate(cells):
        out[list(cell), k] = 1.0
    return out


def _neighbor_counts(adj: np.ndarray, cells) -> np.ndarray:
    """counts[u, k] = number of neighbors of u inside cell k, for the 0/1
    adjacency matrix ``adj``."""
    return (adj @ _membership(len(adj), cells)).astype(int)


def _check(g: Graph, cells, require_diagonal: bool) -> Partition:
    if not g.is_unweighted:
        raise ValueError("partitions are defined on unweighted, loop-free graphs")
    tup = _validated_cells(g.n, cells)
    counts = _neighbor_counts(g.adjacency(), tup)
    m = len(tup)
    d = np.full((m, m), np.nan)
    err = NotEquitableError if require_diagonal else NotAlmostEquitableError
    for j, cell in enumerate(tup):
        ref = counts[cell[0]]
        for u in cell[1:]:
            for k in range(m):
                if j == k and not require_diagonal:
                    continue
                if counts[u, k] != ref[k]:
                    raise err(
                        u,
                        k,
                        f"vertex {u} has {counts[u, k]} neighbors in cell {k}, "
                        f"expected {ref[k]}",
                    )
        for k in range(m):
            if j == k and not require_diagonal:
                continue
            d[j, k] = ref[k]
    return Partition(g.n, tup, d)


def check_equitable(g: Graph, cells: Sequence[Iterable[int]]) -> Partition:
    """Verify the equitable condition for every cell pair and fill d[j,k];
    raises NotEquitableError naming the first violating (vertex, cell)."""
    return _check(g, cells, require_diagonal=True)


def check_almost_equitable(g: Graph, cells: Sequence[Iterable[int]]) -> Partition:
    """Like check_equitable but only for j != k; the diagonal of the count
    matrix is left NaN."""
    return _check(g, cells, require_diagonal=False)


def coarsest_equitable_refinement(g: Graph, initial_cells: Sequence[Iterable[int]]) -> Partition:
    """Coarsest equitable partition refining the given cells: split cells by
    their neighbor-count signature until a fixpoint. New cells are ordered by
    (parent cell, signature) lexicographically, which makes the result
    deterministic."""
    if not g.is_unweighted:
        raise ValueError("partitions are defined on unweighted, loop-free graphs")
    cells = list(_validated_cells(g.n, initial_cells))
    adj = g.adjacency()
    while True:
        counts = _neighbor_counts(adj, cells)
        new_cells: list[tuple[int, ...]] = []
        for cell in cells:
            groups: dict[tuple[int, ...], list[int]] = {}
            for u in cell:
                groups.setdefault(tuple(counts[u]), []).append(u)
            for sig in sorted(groups):
                new_cells.append(tuple(groups[sig]))
        if len(new_cells) == len(cells):
            return check_equitable(g, new_cells)
        cells = new_cells


def partition_matrix(p: Partition) -> np.ndarray:
    """n x m matrix with entry 1/sqrt(|cell|) on (vertex, its cell); columns
    are orthonormal."""
    member = _membership(p.n, p.cells)
    return member / np.sqrt(member.sum(axis=0))


@dataclass(frozen=True)
class QuotientMatrix:
    kind: OperatorKind
    matrix: np.ndarray


_INTERTWINE_TOL = 1e-10


def quotient(g: Graph, p: Partition, kind: OperatorKind | str) -> QuotientMatrix:
    """Quotient matrix B with M P = P B for the normalized partition matrix P.

    Off-diagonal entries are sqrt(d[j,k] d[k,j]) with a minus sign for the
    standard Laplacian; diagonals are d[j,j] (adjacency),
    sum_{l != j} d[j,l] (standard), and 2 d[j,j] + sum_{l != j} d[j,l]
    (signless). Adjacency and signless quotients need a fully equitable
    partition; the standard Laplacian accepts an almost-equitable one.
    """
    k = kind if isinstance(kind, OperatorKind) else OperatorKind.from_name(kind)
    if k not in (OperatorKind.ADJACENCY, OperatorKind.STANDARD, OperatorKind.SIGNLESS):
        raise ValueError(f"no quotient defined for operator kind {k.value}")
    if k in (OperatorKind.ADJACENCY, OperatorKind.SIGNLESS) and not p.is_equitable:
        raise ValueError(f"{k.value} quotient needs a fully equitable partition")
    d = p.degree_counts
    off_diag = d[~np.eye(p.size, dtype=bool)]
    if off_diag.size and np.isnan(off_diag).any():
        raise ValueError("partition carries no verified neighbor counts; run a check first")
    m = p.size
    b = np.zeros((m, m))
    sign = -1.0 if k == OperatorKind.STANDARD else 1.0
    for j in range(m):
        for l in range(j + 1, m):
            root = math.sqrt(d[j, l] * d[l, j])
            b[j, l] = sign * root
            b[l, j] = sign * root
    offsums = np.array([sum(d[j, l] for l in range(m) if l != j) for j in range(m)])
    if k == OperatorKind.ADJACENCY:
        np.fill_diagonal(b, np.diag(d))
    elif k == OperatorKind.STANDARD:
        np.fill_diagonal(b, offsums)
    else:
        np.fill_diagonal(b, 2 * np.diag(d) + offsums)
    pm = partition_matrix(p)
    deviation = float(np.abs(operator(g, k).matrix @ pm - pm @ b).max())
    if deviation > _INTERTWINE_TOL:
        raise RuntimeError(
            f"intertwining M P = P B failed for {k.value}: deviation {deviation:.3e}"
        )
    return QuotientMatrix(k, b)


def lift_check(
    g: Graph, p: Partition, kind: OperatorKind | str, u: int, v: int, t: float
) -> float:
    """|walk entry in the graph| minus |walk entry in the quotient| for a pair
    of singleton-cell vertices; zero (to roundoff) whenever the quotient is
    valid for the kind."""
    cu, cv = p.cell_of[u], p.cell_of[v]
    if len(p.cells[cu]) != 1 or len(p.cells[cv]) != 1:
        raise ValueError("lifting needs singleton cells at both endpoints")
    b = quotient(g, p, kind).matrix
    big = abs(walk(operator(g, kind), t).matrix[v, u])
    small = abs(walk(b, t).matrix[cv, cu])
    return float(abs(big - small))


@dataclass(frozen=True)
class PathCycleReport:
    """Deviations backing the path/even-cycle correspondence for one n."""

    n: int
    quotient_deviation: float
    identity_deviation: float
    walk_deviation: float
    times: tuple[float, ...]


def path_cycle_correspondence(
    n: int, times: Sequence[float] = (0.1, 0.7, 1.0, math.pi, 5.0, 10.0)
) -> PathCycleReport:
    """Verify that the normalized Laplacian of the n-vertex path matches
    I - A(C_{2(n-1)}/pi)/2 for the folding partition of the even cycle, and
    that the antipodal walk magnitudes agree under the induced time dilation:

        |exp(-it L(P_n))_{0,n-1}| = |exp(+i(t/2) A(C_{2m}))_{0,m}|,  m = n-1.

    n = 2 degenerates (C_2 is not simple); it is handled with the doubled
    edge matrix [[0,2],[2,0]] standing in for the cycle, for which both
    identities hold verbatim.
    """
    if n < 2:
        raise ValueError("needs a path on at least two vertices")
    m = n - 1
    if n == 2:
        a_quot = np.array([[0.0, 2.0], [2.0, 0.0]])
        a_cycle = a_quot
        quotient_dev = 0.0
    else:
        c = cycle(2 * m)
        cells = [(0,)] + [(k, 2 * m - k) for k in range(1, m)] + [(m,)]
        p = check_equitable(c, cells)
        a_quot = quotient(c, p, OperatorKind.ADJACENCY).matrix
        a_path = path(m + 1).adjacency()
        expected = a_path.copy()
        for j in range(m + 1):
            for k in range(m + 1):
                if expected[j, k] and (j in (0, m) or k in (0, m)):
                    expected[j, k] = math.sqrt(2.0)
        quotient_dev = float(np.abs(a_quot - expected).max())
        a_cycle = c.adjacency()

    norm_p = normalized_laplacian(path(n)).matrix
    identity_dev = float(np.abs(norm_p - (np.eye(n) - a_quot / 2.0)).max())

    dec_path = eigendecompose(normalized_laplacian(path(n)))
    dec_cycle = eigendecompose(a_cycle)
    walk_dev = 0.0
    for t in times:
        lhs = abs(dec_path.amplitude(0, n - 1, [t])[0])
        # exp(+i(t/2)A) entries have the magnitudes of exp(-i(t/2)A) ones
        rhs = abs(dec_cycle.amplitude(0, m, [t / 2.0])[0])
        walk_dev = max(walk_dev, abs(lhs - rhs))
    return PathCycleReport(n, quotient_dev, identity_dev, walk_dev, tuple(times))
