"""Independent brute-force oracles used to freeze expected values.

The matrix exponential here is a plain scaling-and-squaring Taylor series on
the full complex matrix. It shares no code path with the spectral walk
engine (which diagonalizes), so agreement between the two is a real check.
"""

from __future__ import annotations

import numpy as np


def series_expm(m: np.ndarray) -> np.ndarray:
    """exp(m) by Taylor series with scaling and squaring."""
    a = np.asarray(m, dtype=complex)
    n = a.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    norm = np.abs(a).sum(axis=1).max()  # induced infinity norm
    squarings = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0 else 0
    a = a / (2.0**squarings)
    term = np.eye(n, dtype=complex)
    total = np.eye(n, dtype=complex)
    for k in range(1, 60):
        term = term @ a / k
        total = total + term
        if np.abs(term).max() < 1e-20:
            break
    for _ in range(squarings):
        total = total @ total
    return total


def walk_oracle(matrix: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t M) via the series oracle."""
    return series_expm(-1j * t * np.asarray(matrix, dtype=float))


def dense_scan_max(matrix: np.ndarray, pair: tuple[int, int], t_max: float, samples: int) -> float:
    """Max |entry| of the oracle walk on a uniform grid; slow but independent."""
    u, v = pair
    best = 0.0
    for t in np.linspace(0.0, t_max, samples):
        best = max(best, abs(walk_oracle(matrix, t)[v, u]))
    return best


# -- partitions: the loop-based check and refinement ------------------------
#
# Reference for lapwalk.partitions: one dense count matrix, one Python loop
# per vertex and cell. Inputs are a 0/1 adjacency matrix and the cells;
# results are the cells and the d[j, k] matrix, or an exception.


class CountWitness(ValueError):
    """The first (vertex, cell) whose neighbour count breaks the partition."""

    def __init__(self, vertex: int, cell: int, message: str):
        self.vertex = vertex
        self.cell = cell
        super().__init__(message)


def validated_cells(n: int, cells) -> tuple[tuple[int, ...], ...]:
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


def neighbor_counts(adj: np.ndarray, cells) -> np.ndarray:
    member = np.zeros((len(adj), len(cells)))
    for k, cell in enumerate(cells):
        member[list(cell), k] = 1.0
    return (adj @ member).astype(int)


def check_partition(adj: np.ndarray, cells, require_diagonal: bool):
    """(cells, d) for an equitable (or, without the diagonal, almost
    equitable) partition; CountWitness names the first failure, reading
    cells in order, then vertices within a cell, then target cells."""
    tup = validated_cells(len(adj), cells)
    counts = neighbor_counts(adj, tup)
    m = len(tup)
    d = np.full((m, m), np.nan)
    for j, cell in enumerate(tup):
        ref = counts[cell[0]]
        for u in cell[1:]:
            for k in range(m):
                if j == k and not require_diagonal:
                    continue
                if counts[u, k] != ref[k]:
                    raise CountWitness(
                        u, k, f"vertex {u} has {counts[u, k]} neighbors in cell {k}, expected {ref[k]}"
                    )
        for k in range(m):
            if j == k and not require_diagonal:
                continue
            d[j, k] = ref[k]
    return tup, d


def refine_partition(adj: np.ndarray, initial_cells):
    """Coarsest equitable refinement by repeated signature splitting; new
    cells are ordered by (parent cell, signature)."""
    cells = list(validated_cells(len(adj), initial_cells))
    while True:
        counts = neighbor_counts(adj, cells)
        new_cells = []
        for cell in cells:
            groups: dict[tuple[int, ...], list[int]] = {}
            for u in cell:
                groups.setdefault(tuple(counts[u]), []).append(u)
            for sig in sorted(groups):
                new_cells.append(tuple(groups[sig]))
        if len(new_cells) == len(cells):
            return check_partition(adj, new_cells, require_diagonal=True)
        cells = new_cells
