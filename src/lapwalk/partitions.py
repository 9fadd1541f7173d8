"""Equitable and almost-equitable vertex partitions, their coarsest
equitable refinement and quotient operators.

A partition is equitable when every vertex of cell j has the same number
d[j,k] of neighbors in cell k, for all j and k; almost equitable only
requires this for j != k. A quotient matrix is the operator formula of its
kind applied to the symmetrized counts and the cell degrees, the same
formula a graph's operator is built by, so its signs are fixed by the kind
and never inferred from data. A partition exists only once its counts are
verified, so a quotient is read from the partition alone, with no graph.
Cell entries pass the integer gate of ``graphs`` (``_indices``, then
``_vertices``), so a non-integer vertex is named, never truncated.
"""

from __future__ import annotations

import random
from dataclasses import InitVar, dataclass
from functools import cached_property
from itertools import chain, count
from typing import Iterable, Sequence

import numpy as np

from .graphs import Graph, _indices, _vertices
from .operators import OperatorKind, _operator_matrix

__all__ = [
    "Partition",
    "NotEquitableError",
    "NotAlmostEquitableError",
    "check_equitable",
    "check_almost_equitable",
    "coarsest_equitable_refinement",
    "quotient",
]


class NotEquitableError(ValueError):
    """Carries the first witness (vertex, cell) that breaks the count."""

    def __init__(self, vertex: int, cell: int, message: str):
        self.vertex = vertex
        self.cell = cell
        super().__init__(message)


class NotAlmostEquitableError(NotEquitableError):
    pass


_CHECKED = object()  # held by _check, the only constructor of a Partition


@dataclass(frozen=True)
class Partition:
    """Ordered disjoint cells covering 0..n-1 plus the verified neighbor
    counts. ``degree_counts[j, k]`` is d[j,k]; the diagonal is NaN when only
    the almost-equitable condition was verified. Only check_equitable,
    check_almost_equitable and coarsest_equitable_refinement build a
    Partition (a direct call raises TypeError) and its counts are read-only,
    so they are a proof of the condition they name."""

    n: int
    cells: tuple[tuple[int, ...], ...]
    degree_counts: np.ndarray
    _proof: InitVar[object] = None

    def __post_init__(self, _proof):
        if _proof is not _CHECKED:
            raise TypeError(
                "a Partition comes from check_equitable, check_almost_equitable "
                "or coarsest_equitable_refinement"
            )

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
    """The cells as sorted tuples. Every entry passes the integer gate in
    input order; then, reading cells in order and each cell in ascending
    order, the first empty cell, out-of-range vertex or repeated vertex
    raises ValueError."""
    tup = tuple(map(tuple, cells))
    sizes = np.fromiter(map(len, tup), np.intp, len(tup))
    flat = _indices(chain.from_iterable(tup))
    read = flat[np.lexsort((flat, np.repeat(np.arange(len(tup)), sizes)))]  # cell by cell, each ascending
    # each fault's place is the number of vertices read before it, so an
    # empty cell comes before the vertex read right after it
    outside = np.flatnonzero((read < 0) | (read >= n))
    stop = int(outside[0]) if outside.size else len(read)
    repeated = np.ones(stop, dtype=bool)
    repeated[np.unique(read[:stop], return_index=True)[1]] = False  # each vertex's first reading
    repeat = int(np.argmax(repeated)) if repeated.any() else stop
    empty = np.flatnonzero(sizes == 0)
    if empty.size and (np.cumsum(sizes) - sizes)[empty[0]] <= repeat:
        raise ValueError("cells must be nonempty")
    if repeat < stop:
        raise ValueError(f"vertex {read[repeat]} appears in two cells")
    vertices = _vertices(n, read)  # raises at read[stop], the first vertex out of range
    if len(read) != n:
        raise ValueError("cells must cover every vertex")
    return tuple(tuple(cell.tolist()) for cell in np.split(vertices, np.cumsum(sizes))[:-1])


def _owner(n: int, cells) -> np.ndarray:
    """owner[v] = index of the cell holding v, -1 where no cell does."""
    owner = np.full(n, -1)
    owner[np.fromiter(chain.from_iterable(cells), np.intp)] = np.repeat(
        np.arange(len(cells)), list(map(len, cells))
    )
    return owner


def _neighbor_counts(g: Graph, owner: np.ndarray, m: int) -> np.ndarray:
    """counts[u, k] = number of neighbors of u inside cell k, counted over
    the graph's arcs with one bincount."""
    tails, heads = g._arcs
    return np.bincount(tails * m + owner[heads], minlength=g.n * m).reshape(g.n, m)


def _cells_of(owner: np.ndarray, m: int) -> tuple[tuple[int, ...], ...]:
    """The m cells of an owner array, each in ascending vertex order."""
    by_cell = np.argsort(owner, kind="stable").astype(object)  # Python ints
    ends = np.cumsum(np.bincount(owner, minlength=m))
    return tuple(map(tuple, np.split(by_cell, ends)[:-1]))


def _check(g: Graph, cells, require_diagonal: bool) -> Partition:
    tup = _validated_cells(g.n, cells)
    return _proven(g, _owner(g.n, tup), tup, require_diagonal)


def _proven(g: Graph, owner: np.ndarray, tup, require_diagonal: bool) -> Partition:
    """The partition of the valid cells ``tup``, whose owner array is
    ``owner``, once every vertex's neighbour counts match its cell's first
    vertex's; else the first mismatch raises."""
    m = len(tup)
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
    d.flags.writeable = False
    return Partition(g.n, tup, d, _CHECKED)


def check_equitable(g: Graph, cells: Sequence[Iterable[int]]) -> Partition:
    """Verify the equitable condition for every cell pair and fill d[j,k];
    raises NotEquitableError naming the first violating (vertex, cell)."""
    return _check(g, cells, require_diagonal=True)


def check_almost_equitable(g: Graph, cells: Sequence[Iterable[int]]) -> Partition:
    """Like check_equitable but only for j != k; the diagonal of the count
    matrix is left NaN."""
    return _check(g, cells, require_diagonal=False)


def coarsest_equitable_refinement(g: Graph, initial_cells: Sequence[Iterable[int]]) -> Partition:
    """Coarsest equitable partition refining the given cells, by hashed
    colour refinement (``_refine``). Its cells are in canonical order: by
    the input cell they lie in, then by least vertex, each cell's vertices
    ascending."""
    tup = _validated_cells(g.n, initial_cells)
    return _refine(g, _owner(g.n, tup), len(tup))


def _pair_refinement(g: Graph, source: int, target: int, max_cells: int) -> Partition | None:
    """The coarsest equitable refinement of {source}, {target}, rest ({source},
    rest when they are equal; no empty cell), or None once a round passes
    ``max_cells`` cells. The vertices are in range; source's cell is 0."""
    owner = np.full(g.n, 2 if source != target else 1)
    owner[target] = 1
    owner[source] = 0
    return _refine(g, owner, int(owner.max()) + 1, max_cells)


def _keys(attempt: int, size: int) -> np.ndarray:
    """The (2, size) uint64 key table of one refinement attempt, seeded by
    the attempt: row 0 keys a neighbour's cell, row 1 a vertex's own cell."""
    bits = random.Random(attempt).getrandbits(128 * size)
    return np.frombuffer(bits.to_bytes(16 * size, "little"), "<u8").reshape(2, size)


def _refine(g: Graph, owner: np.ndarray, m: int, max_cells: int | None = None) -> Partition | None:
    """Colour refinement by hashing from the m cells of ``owner``.

    Each round gives vertex u the signature own[cell u] + sum over the
    neighbours w of u of key[cell w], mod 2^64, from one key table per
    attempt (``_keys``), and renumbers the vertices by one sort of the
    signatures. Equal neighbour counts always give equal signatures, so a
    hash collision can only merge: two cells of the last round merging is
    seen at once, and the attempt starts again with new keys. Otherwise
    every round refines the last, and a round that splits nothing is the
    fixpoint. A merge inside one cell can leave a partition that is not
    equitable; the count check of ``check_equitable`` (``_proven``) is the
    proof of the result, and a partition it refuses also starts a new
    attempt. A proven result is the coarsest: the true refinement refines
    every round, so it refines the result, and the result, an equitable
    refinement of the input, refines it.

    Returns None once a round has more than ``max_cells`` cells (the true
    refinement then has as many at least), else the proven partition in
    canonical order: by input cell, then by least vertex."""
    tails, heads = g._arcs
    for attempt in count():
        neighbour_key, own_key = _keys(attempt, g.n)
        cells, size = owner, m
        while True:
            signature = own_key[cells]
            np.add.at(signature, tails, neighbour_key[cells][heads])
            order = np.argsort(signature)
            by_signature = signature[order]
            starts = np.ones(g.n, dtype=bool)
            starts[1:] = by_signature[1:] != by_signature[:-1]
            split = int(np.count_nonzero(starts))
            if max_cells is not None and split > max_cells:
                return None
            parents = cells[order]
            if (parents[1:] != parents[:-1])[~starts[1:]].any():
                break  # two cells of the last round merged: new keys
            if split == size:
                first = np.unique(cells, return_index=True)[1]  # least vertex of each cell
                rank = np.empty(size, dtype=np.intp)
                rank[np.lexsort((first, owner[first]))] = np.arange(size)
                canonical = rank[cells]
                try:
                    return _proven(g, canonical, _cells_of(canonical, size), require_diagonal=True)
                except NotEquitableError:
                    break  # a merge inside a cell: new keys
            cells = np.empty(g.n, dtype=np.intp)
            cells[order] = np.cumsum(starts) - 1
            size = split


def quotient(p: Partition, kind: OperatorKind | str) -> np.ndarray:
    """The k x k quotient matrix B with M P = P B for the normalized
    partition matrix P, read from the partition's checked counts in O(k^2);
    no operator is built.

    The symmetrized count matrix S, sqrt(d[j,k] d[k,j]) off the diagonal
    and d[j,j] on it, is P^T A P, and every cell's vertices share the degree
    sum_k d[j,k]; B is the operator formula of ``kind`` (the one
    ``operators.operator`` uses) applied to S and those cell degrees. An
    almost-equitable partition leaves d[j,j] unknown: the standard Laplacian
    subtracts it again and accepts one, with S's diagonal 0, while the other
    kinds need a fully equitable partition.
    """
    k = kind if isinstance(kind, OperatorKind) else OperatorKind.from_name(kind)
    if k != OperatorKind.STANDARD and not p.is_equitable:
        raise ValueError(f"{k.value} quotient needs a fully equitable partition")
    d = p.degree_counts
    s = np.nan_to_num(np.sqrt(d * d.T))  # sqrt(d[j,j]^2) is d[j,j] exactly; nan only there
    return _operator_matrix(k, s, np.nansum(d, axis=1), row="cell")
