"""Equitable and almost-equitable vertex partitions, the normalized partition
matrix, quotient operators, and walk lifting between a graph and its quotient.

A partition is equitable when every vertex of cell j has the same number
d[j,k] of neighbors in cell k, for all j and k; almost equitable only
requires this for j != k. Quotient matrices follow the displayed formulas
for each operator kind; the sign of the off-diagonal entries is fixed by the
kind (negative square roots for the standard Laplacian, positive otherwise)
and never inferred from data. A partition exists only once its counts are
verified, so a quotient is read from the partition alone, with no graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .graphs import Graph, _require_unweighted, cycle, path
from .operators import OperatorKind, normalized_laplacian, operator
from .spectral import eigendecompose, walk

__all__ = [
    "Partition",
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
    the almost-equitable condition was verified. Every Partition is built by
    check_equitable, check_almost_equitable or coarsest_equitable_refinement,
    so its counts are a proof of the condition it names."""

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
        return tuple(_owner(self.n, self.cells).tolist())


def _validated_cells(n: int, cells: Sequence[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """The cells as sorted tuples. Reading cells in order and each cell in
    ascending order, the first empty cell, out-of-range vertex or repeated
    vertex raises ValueError."""
    tup = tuple(tuple(sorted(map(int, cell))) for cell in cells)
    seen = set()
    for cell in tup:
        if not cell:
            raise ValueError("cells must be nonempty")
        for v in cell:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range")
            if v in seen:
                raise ValueError(f"vertex {v} appears in two cells")
            seen.add(v)
    if len(seen) != n:
        raise ValueError("cells must cover every vertex")
    return tup


def _owner(n: int, cells) -> np.ndarray:
    """owner[v] = index of the cell holding v, -1 where no cell does."""
    owner = np.full(n, -1)
    owner[np.fromiter(chain.from_iterable(cells), np.intp)] = np.repeat(
        np.arange(len(cells)), list(map(len, cells))
    )
    return owner


def _neighbor_counts(g: Graph, owner: np.ndarray, m: int) -> np.ndarray:
    """counts[u, k] = number of neighbors of u inside cell k, counted from
    both ends of every edge with one bincount."""
    ends = g._arrays[0]  # (edges, 2) vertex indices
    u, v = ends.ravel(), ends[:, ::-1].ravel()  # both directions of every edge
    return np.bincount(u * m + owner[v], minlength=g.n * m).reshape(g.n, m)


def _cells_of(owner: np.ndarray, m: int) -> tuple[tuple[int, ...], ...]:
    """The m cells of an owner array, each in ascending vertex order."""
    by_cell = np.argsort(owner, kind="stable").astype(object)  # Python ints
    ends = np.cumsum(np.bincount(owner, minlength=m))
    return tuple(map(tuple, np.split(by_cell, ends)[:-1]))


def _check(g: Graph, cells, require_diagonal: bool) -> Partition:
    _require_unweighted(g, "a partition check")
    tup = _validated_cells(g.n, cells)
    owner, m = _owner(g.n, tup), len(tup)
    counts = _neighbor_counts(g, owner, m)
    ref = counts[np.unique(owner, return_index=True)[1]]  # row j: cell j's first vertex
    bad = counts != ref[owner]
    if not require_diagonal:
        bad[np.arange(g.n), owner] = False
    by_cell = np.argsort(owner, kind="stable")  # cell by cell, ascending inside each
    hits = np.flatnonzero(bad[by_cell])
    if hits.size:
        u, k = int(by_cell[hits[0] // m]), int(hits[0] % m)
        err = NotEquitableError if require_diagonal else NotAlmostEquitableError
        expected = ref[owner[u], k]
        raise err(u, k, f"vertex {u} has {counts[u, k]} neighbors in cell {k}, expected {expected}")
    d = ref.astype(float)
    if not require_diagonal:
        np.fill_diagonal(d, np.nan)
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
    their neighbor-count signature until a fixpoint. Each round sorts the
    rows (parent cell, counts...) and numbers the distinct ones in order, so
    new cells are ordered by (parent cell, signature) lexicographically,
    which makes the result deterministic."""
    _require_unweighted(g, "coarsest_equitable_refinement")
    tup = _validated_cells(g.n, initial_cells)
    owner, m = _owner(g.n, tup), len(tup)
    while True:
        rows = np.column_stack([owner, _neighbor_counts(g, owner, m)])
        order = np.lexsort(rows.T[::-1])
        starts = np.ones(g.n, dtype=bool)
        starts[1:] = (rows[order[1:]] != rows[order[:-1]]).any(axis=1)
        split = int(starts.sum())
        if split == m:
            return check_equitable(g, _cells_of(owner, m))
        owner[order] = np.cumsum(starts) - 1
        m = split


def partition_matrix(p: Partition) -> np.ndarray:
    """n x m matrix with entry 1/sqrt(|cell|) on (vertex, its cell); columns
    are orthonormal."""
    member = (_owner(p.n, p.cells)[:, None] == np.arange(p.size)).astype(float)
    return member / np.sqrt(member.sum(axis=0))


def quotient(p: Partition, kind: OperatorKind | str) -> np.ndarray:
    """The k x k quotient matrix B with M P = P B for the normalized
    partition matrix P, read from the partition's checked counts in O(k^2);
    no operator is built.

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
    offsums = np.where(np.eye(p.size, dtype=bool), 0.0, d).sum(axis=1)
    b = (-1.0 if k == OperatorKind.STANDARD else 1.0) * np.sqrt(d * d.T)
    if k == OperatorKind.ADJACENCY:
        np.fill_diagonal(b, np.diag(d))
    elif k == OperatorKind.STANDARD:
        np.fill_diagonal(b, offsums)
    else:
        np.fill_diagonal(b, 2 * np.diag(d) + offsums)
    return b


def lift_check(
    g: Graph, p: Partition, kind: OperatorKind | str, u: int, v: int, t: float
) -> float:
    """|walk entry in the graph| minus |walk entry in the quotient| for a pair
    of singleton-cell vertices; zero (to roundoff) whenever the quotient is
    valid for the kind."""
    cu, cv = p.cell_of[u], p.cell_of[v]
    if len(p.cells[cu]) != 1 or len(p.cells[cv]) != 1:
        raise ValueError("lifting needs singleton cells at both endpoints")
    b = quotient(p, kind)
    big = abs(walk(operator(g, kind), t)[v, u])
    small = abs(walk(b, t)[cv, cu])
    return float(abs(big - small))


@dataclass(frozen=True)
class PathCycleReport:
    """Deviations backing the path/even-cycle correspondence for one n."""

    n: int
    quotient_deviation: float
    identity_deviation: float
    walk_deviation: float


PATH_CYCLE_TIMES = (0.1, 0.7, 1.0, math.pi, 5.0, 10.0)  # where the walk magnitudes are compared


def path_cycle_correspondence(n: int) -> PathCycleReport:
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
        a_quot = quotient(p, OperatorKind.ADJACENCY)
        a_path = path(m + 1).adjacency()
        ends = np.isin(np.arange(m + 1), (0, m))
        expected = np.where((a_path != 0) & (ends[:, None] | ends), math.sqrt(2.0), a_path)
        quotient_dev = float(np.abs(a_quot - expected).max())
        a_cycle = c.adjacency()

    norm_p = normalized_laplacian(path(n)).matrix
    identity_dev = float(np.abs(norm_p - (np.eye(n) - a_quot / 2.0)).max())

    dec_path = eigendecompose(normalized_laplacian(path(n)))
    dec_cycle = eigendecompose(a_cycle)
    walk_dev = 0.0
    for t in PATH_CYCLE_TIMES:
        lhs = abs(dec_path.amplitude(0, n - 1, [t])[0])
        # exp(+i(t/2)A) entries have the magnitudes of exp(-i(t/2)A) ones
        rhs = abs(dec_cycle.amplitude(0, m, [t / 2.0])[0])
        walk_dev = max(walk_dev, abs(lhs - rhs))
    return PathCycleReport(n, quotient_dev, identity_dev, walk_dev)
