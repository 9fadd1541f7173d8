"""Independent brute-force oracles used to freeze expected values.

The matrix exponential here is a plain scaling-and-squaring Taylor series on
the full complex matrix. It shares no code path with the spectral walk
engine (which diagonalizes), so agreement between the two is a real check.
"""

from __future__ import annotations

import cmath
import math

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


def weighted_p3(alpha: float) -> list[list[float]]:
    """The three-vertex path with a loop of weight alpha on its middle vertex."""
    return [[0.0, 1.0, 0.0], [1.0, alpha, 1.0], [0.0, 1.0, 0.0]]


def p3_alpha_fidelity(alpha: float, t: float) -> complex:
    """Antipodal walk entry of ``weighted_p3(alpha)`` in closed form:
    -1/2 + (exp(-i t a/2)/2) (cos(D t) + i (a/2)/D sin(D t)),
    D^2 = (a/2)^2 + 2."""
    half = alpha / 2.0
    delta = math.sqrt(half * half + 2.0)
    osc = math.cos(delta * t) + 1j * (half / delta) * math.sin(delta * t)
    return -0.5 + 0.5 * cmath.exp(-1j * t * half) * osc


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


def partition_matrix(p) -> np.ndarray:
    """n x m matrix of a lapwalk Partition with entry 1/sqrt(|cell|) on
    (vertex, its cell); its columns are orthonormal."""
    pm = np.zeros((p.n, p.size))
    for k, cell in enumerate(p.cells):
        pm[list(cell), k] = 1.0 / math.sqrt(len(cell))
    return pm


def refine_partition(adj: np.ndarray, initial_cells):
    """Coarsest equitable refinement by repeated signature splitting, until
    a round splits nothing; the cells are then put in canonical order: by
    the input cell they lie in, then by least vertex."""
    initial = validated_cells(len(adj), initial_cells)
    cells = list(initial)
    while True:
        counts = neighbor_counts(adj, cells)
        new_cells = []
        for cell in cells:
            groups: dict[tuple[int, ...], list[int]] = {}
            for u in cell:
                groups.setdefault(tuple(counts[u]), []).append(u)
            new_cells.extend(tuple(group) for group in groups.values())
        if len(new_cells) == len(cells):
            parent = {v: j for j, cell in enumerate(initial) for v in cell}
            canonical = sorted(new_cells, key=lambda cell: (parent[cell[0]], cell[0]))
            return check_partition(adj, canonical, require_diagonal=True)
        cells = new_cells


# -- walk matrices, exact rank, traversal: the loop-based references --------
#
# Reference for lapwalk.control, hypercube and incidence, and the traversals
# the tests filter their graphs with: Python lists and sorted neighbour
# lists, one loop per vertex, neighbour, edge, row and column. Graphs come in
# as the vertex count and the (u, v) edge pairs.


def random_edge_lists(rng: np.random.Generator, count: int, n_max: int = 12):
    """Seeded (n, edges) inputs for the reference comparisons. Orders run
    from 0 to n_max and densities from edgeless to complete, so isolated
    vertices, disconnected graphs, odd cycles and bipartite graphs all occur."""
    out = []
    for _ in range(count):
        n = int(rng.integers(0, n_max + 1))
        p = float(rng.choice([0.0, 0.1, 0.2, 0.35, 0.6, 1.0]))
        out.append((n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]))
    return out


def neighbor_lists(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return [sorted(a) for a in adj]


def walk_matrix_rows(n: int, edges, subset) -> tuple[tuple[int, ...], ...]:
    """Columns e_S, A e_S, ..., A^{n-1} e_S as Python ints, one row per vertex."""
    neighbors = neighbor_lists(n, edges)
    s = set(subset)
    current = [1 if v in s else 0 for v in range(n)]
    columns = [current]
    for _ in range(n - 1):
        current = [sum(current[w] for w in neighbors[v]) for v in range(n)]
        columns.append(current)
    return tuple(tuple(col[v] for col in columns) for v in range(n))


def exact_rank(rows) -> int:
    """Bareiss elimination on lists of Python ints: the first nonzero pivot
    at or below the current row, exact // by the previous pivot."""
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


def berlekamp_massey(s, p: int) -> tuple[int, list[int]]:
    """Massey's algorithm over GF(p) on lists of plain ints: the linear
    complexity L of s and the connection polynomial [1, c_1, ..., c_L] of a
    shortest recurrence, sum_i c_i s[k - i] = 0 mod p for L <= k < len(s).
    Inverses by Fermat's little theorem."""
    s = [int(x) % p for x in s]
    c, b = [1], [1]
    length, shift, last = 0, 1, 1
    for k in range(len(s)):
        d = sum(ci * s[k - i] for i, ci in enumerate(c)) % p
        if d == 0:
            shift += 1
            continue
        scale = d * pow(last, p - 2, p) % p
        before = list(c)
        c += [0] * (shift + len(b) - len(c))
        for i, bi in enumerate(b):
            c[shift + i] = (c[shift + i] - scale * bi) % p
        if 2 * length <= k:
            length, b, last, shift = k + 1 - length, before, d, 1
        else:
            shift += 1
    return length, (c + [0] * (length + 1))[: length + 1]


def float_controllability_count(adj: np.ndarray, u: int) -> int:
    """The walk-matrix rank of e_u read off a float eigensolve: the number of
    eigenvalue clusters (consecutive eigenvalues closer than 1e-8 times the
    spectral range) whose projected weight sqrt(E[u, u]) is at least 1e-8.
    Exact in exact arithmetic; a true weight below 1e-16 reads as zero."""
    evals, evecs = np.linalg.eigh(np.asarray(adj, dtype=float))
    if not len(evals):
        return 0
    starts = np.concatenate(([0], np.flatnonzero(np.diff(evals) > 1e-8 * (evals[-1] - evals[0])) + 1))
    weights = np.add.reduceat(evecs[u] * evecs[u], starts)
    return int(np.count_nonzero(np.sqrt(np.maximum(weights, 0.0)) >= 1e-8))


def is_connected(n: int, edges) -> bool:
    if n <= 1:
        return True
    neighbors = neighbor_lists(n, edges)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in neighbors[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def two_coloring(n: int, edges) -> tuple[np.ndarray, tuple[int, int] | None]:
    """Breadth-first colours, each component started at its smallest vertex,
    and the first edge in ``edges`` order whose ends share a colour."""
    neighbors = neighbor_lists(n, edges)
    color = np.full(n, -1, dtype=int)
    for start in range(n):
        if color[start] >= 0:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop(0)
            for v in neighbors[u]:
                if color[v] < 0:
                    color[v] = 1 - color[u]
                    queue.append(v)
    clash = next(((u, v) for u, v in edges if color[u] == color[v]), None)
    return color, clash


def hypercube_edges(d: int) -> tuple[tuple[int, int], ...]:
    edges = []
    for x in range(1 << d):
        for b in range(d):
            y = x ^ (1 << b)
            if x < y:
                edges.append((x, y))
    return tuple(sorted(edges))


def incidence(n: int, edges) -> np.ndarray:
    """Normalized vertex-edge incidence, 1/sqrt(2) where a vertex lies on an edge."""
    b = np.zeros((n, len(edges)))
    half = 1.0 / np.sqrt(2.0)
    for i, (u, v) in enumerate(edges):
        b[u, i] = half
        b[v, i] = half
    return b


# -- the grid scan: one contraction per block ---------------------------------
#
# Reference for lapwalk.pst's grid: blocks of 2048 points, each evaluated by
# its own einsum against the phase table and merged into the running set of
# grid maxima before the next block. Constants are the engine's documented
# values, frozen here: 2048 points per block, the 400 largest maxima, none
# more than 0.05 below the best.


def blockwise_grid_peaks(values, weights, step, count, t_max) -> np.ndarray:
    """Grid indices of the largest maxima of |sum_k w_k exp(-i t theta_k)|
    on t = i * step, i < count, the last point clamped to t_max."""
    block, cap, cutoff = 2048, 400, 0.05
    table = np.exp(-1j * np.outer(np.arange(-1, min(block, count) + 1) * step, values))
    last_t = min((count - 1) * step, t_max)
    last_mag = abs((np.exp(-1j * np.outer([last_t], values)) @ weights)[0])
    peaks = np.empty(0, dtype=int)
    peak_mags = np.empty(0)
    for start in range(0, count, block):
        index = np.arange(start - 1, min(start + block, count) + 1)
        shifted = weights * np.exp(-1j * (start * step) * values)
        mags = np.abs(np.einsum("tk,k->t", table[: len(index)], shifted))
        mags[index == count - 1] = last_mag
        mags[(index < 0) | (index == count)] = -np.inf
        is_peak = (mags[1:-1] >= mags[:-2]) & (mags[1:-1] >= mags[2:])
        peaks = np.concatenate([peaks, index[1:-1][is_peak]])
        peak_mags = np.concatenate([peak_mags, mags[1:-1][is_peak]])
        top = np.lexsort((peaks, (peaks == 0) | (peaks == count - 1), -peak_mags))[:cap]
        top = top[peak_mags[top] >= peak_mags.max(initial=-np.inf) - cutoff]
        peaks, peak_mags = peaks[top], peak_mags[top]
    return peaks


# -- peak refinement: plain bisection on the slope ----------------------------
#
# Reference for lapwalk.pst._refine_peak: the slope Re(conj(a) a') from
# Python complex sums, one term at a time, and its sign bisected down to the
# engine's documented stop, a bracket at most 1e-12 wide or without a float
# strictly inside.


def slope(values, weights, t: float) -> float:
    """Re(conj(a) a') at t, a(t) = sum_k w_k exp(-i t theta_k): half of
    d|a|^2/dt."""
    a = da = 0j
    for theta, w in zip(values.tolist(), weights.tolist()):
        term = w * cmath.exp(-1j * theta * t)
        a += term
        da += -1j * theta * term
    return (a.conjugate() * da).real


def bisect_peak(values, weights, lo: float, hi: float) -> float:
    """Midpoint of the bracket left by bisecting the slope's sign from
    [lo, hi], where it falls from >= 0 to <= 0."""
    while hi - lo > max(1e-12, math.ulp(lo)):
        mid = 0.5 * (lo + hi)
        if slope(values, weights, mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- the search: direct exponentials over the whole horizon -------------------
#
# Reference for lapwalk.pst.search_pst's one-period scan of an integral
# support: the walk entry from the matrix's own eigenpairs (no clusters, no
# support, no factored phases, no period), one exponential per eigenvalue and
# grid point, on a uniform grid over all of [0, t_max].


def scan_max(matrix: np.ndarray, pair: tuple[int, int], t_max: float, density: int = 256) -> float:
    """Largest |exp(-itM)[v, u]| on a grid of ``density`` points per
    pi / (spectral range) over [0, t_max], both ends included."""
    evals, vecs = np.linalg.eigh(np.asarray(matrix, dtype=float))
    u, v = pair
    weights = vecs[v] * vecs[u]
    spread = max(float(evals[-1] - evals[0]), 1e-12)
    times = np.linspace(0.0, t_max, int(np.ceil(t_max * spread * density / np.pi)) + 1)
    best = 0.0
    for chunk in np.array_split(times, max(1, len(times) // 4096)):
        best = max(best, float(np.abs(np.exp(-1j * np.outer(chunk, evals)) @ weights).max()))
    return best


# -- graph construction: one Python step per row ------------------------------
#
# Reference for lapwalk.graphs' vectorized checks: make_graph reads the rows
# one at a time (int per entry, loops and repeats rejected in input order),
# then the canonical rows are checked in sorted order, each for its range and
# against the row before it.


def make_graph(n: int, edges):
    """(n, edges) with the edges as sorted tuples, or the ValueError message
    of the first fault."""
    try:
        canon: set[tuple[int, int]] = set()
        for e in edges:
            if len(e) != 2:
                raise ValueError(f"edge {e!r} must be (u, v)")
            u, v = int(e[0]), int(e[1])
            if u == v:
                raise ValueError(f"edge ({u},{v}) is a loop")
            key = (min(u, v), max(u, v))
            if key in canon:
                raise ValueError(f"duplicate edge {key}")
            canon.add(key)
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        rows = tuple(sorted(canon))
        for u, v in rows:
            if not 0 <= u < v < n:
                raise ValueError(f"edge ({u},{v}) out of range or not canonical")
    except ValueError as exc:
        return str(exc)
    return n, rows


def edge_rows_fault(n: int, rows) -> str | None:
    """The ValueError message for Graph's edge array, row by row: the first
    row, in order, that is out of range or has u >= v, or does not come
    strictly after the row before it; None when no row does."""
    for i, (u, v) in enumerate(rows):
        if not 0 <= u < v < n:
            return f"edge ({u},{v}) out of range or not canonical"
        if i and not tuple(rows[i - 1]) < (u, v):
            return "edges must be sorted and duplicate-free"
    return None
