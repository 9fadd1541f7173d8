"""Immutable simple graphs and the constructors/combinators the walk machinery runs on.

Vertices are always 0..n-1. A ``Graph`` is its vertex count and one
read-only array, the edge ends: an m x 2 index array, each row u < v, rows
sorted. Graphs are simple, with no edge weights and no loops, so every
operator of a graph (A, L and Q) has integer entries; any other symmetric
matrix is a CUSTOM ``operators.Hamiltonian``. The constructor checks the
array by vectorized comparisons. ``edges`` is a tuple view of it for
printing, writing and tests; everything that reads a graph's structure
reads the array, or the one neighbour structure derived from it: the arcs
(both directions of every edge, as tails and heads) built once per graph
and kept, which the exact-rank matvecs and the partition counts share.

All combinators are pure and relabel vertices deterministically: in
unions/joins the first argument keeps its labels and the second is shifted
by ``|V(g)|``; in products the pair (a, b) becomes ``a * |V(h)| + b``. Each
builds its edge array by index arithmetic, never a Python tuple per edge and
never an n x n float matrix:

- ``path``, ``cycle``, ``hypercube`` and ``circulant`` list their edges in
  sorted order directly (a circulant's as i + s for every vertex i and
  generator s with i + s < n);
- ``complete`` reads the pairs above the diagonal of a boolean mask, and
  ``complement`` the same pairs with g's edges cleared;
- ``disjoint_union`` and ``join`` list the arguments' edges, the second
  shifted by ``|V(g)|``, plus every cross pair for the join;
- ``cartesian_product`` pairs every edge of g with every vertex of h, and
  every vertex of g with every edge of h; ``weak_product`` pairs every edge
  of g with every edge of h, both ways round;
- ``line_graph`` pairs the edges that meet at each vertex.

Rows that do not come out sorted are sorted once, by ``np.lexsort``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple

import numpy as np

__all__ = [
    "Graph",
    "make_graph",
    "path",
    "cycle",
    "complete",
    "empty",
    "hypercube",
    "circulant",
    "circulant_family",
    "complement",
    "disjoint_union",
    "join",
    "cartesian_product",
    "weak_product",
    "line_graph",
    "odd_unicyclic",
    "OddUnicyclic",
    "cone_p4_with_pendant",
    "PendantCone",
]

# Vertex counts stay below 2^62, so that a vertex index plus another vertex
# count (the shift in a union) fits in int64, and so does the count of every
# np.arange a constructor takes: numpy returns an empty range, not an error,
# for counts just below 2^63.
_ORDER_LIMIT = 1 << 62


def _order(n: int) -> int:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n >= _ORDER_LIMIT:
        raise ValueError(f"vertex count {n} is too large")
    return n


def _frozen(values) -> np.ndarray:
    out = np.asarray(values, np.intp)
    if out.flags.writeable:
        out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False, init=False)
class Graph:
    """Simple undirected graph.

    ``ends`` is the (m, 2) index array of the edges, each row u < v and the
    rows sorted and distinct. The graph keeps the array it is given, made
    read-only. Use :func:`make_graph` to build instances from unnormalized
    edge data.
    """

    n: int
    ends: np.ndarray

    def __init__(self, n: int, ends) -> None:
        n, ends = _order(n), _frozen(ends)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ends", ends)
        if ends.ndim != 2 or ends.shape[1] != 2:
            raise ValueError("edge ends must be an (m, 2) array")
        _check_edges(ends, n)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and np.array_equal(self.ends, other.ends)

    def __hash__(self) -> int:
        return hash((self.n, self.ends.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges!r})"

    # -- basic queries ---------------------------------------------------

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as canonical (u, v) pairs, u < v, sorted."""
        return tuple(map(tuple, self.ends.tolist()))

    @property
    def edge_count(self) -> int:
        return len(self.ends)

    def adjacency(self) -> np.ndarray:
        u, v = self.ends.T
        a = np.zeros((self.n, self.n))
        a[u, v] = a[v, u] = 1.0
        return a

    def degrees(self) -> np.ndarray:
        """The vertex degrees, as floats."""
        return np.bincount(self.ends.ravel(), minlength=self.n).astype(float)

    @cached_property
    def _arcs(self) -> np.ndarray:
        """Both directions of every edge, built once per graph: the read-only
        (2, 2m) array of tails (row 0) and heads (row 1)."""
        u, v = self.ends.T
        return _frozen([np.concatenate([u, v]), np.concatenate([v, u])])

    def relabel(self, perm: Iterable[int]) -> "Graph":
        """New graph with vertex u renamed to perm[u]."""
        p = np.asarray(list(perm))
        if (
            p.shape != (self.n,)
            or (self.n and p.dtype.kind not in "iu")
            or not np.array_equal(np.sort(p), np.arange(self.n))
        ):
            raise ValueError("perm must be a permutation of 0..n-1")
        return _sorted_graph(self.n, _canonical(p[self.ends]))


def _check_edges(ends: np.ndarray, n: int) -> None:
    """Raise on the first row in order that is out of range (as unsigned
    integers a negative u exceeds v, and a negative v exceeds n) or does not
    come strictly after the row before it."""
    unsigned = ends.view(np.uint64)
    wild = (unsigned[:, 0] >= unsigned[:, 1]) | (unsigned[:, 1] >= n)
    later, earlier = ends[1:], ends[:-1]
    above, tied = later > earlier, later == earlier
    fault = wild.copy()
    fault[1:] |= ~(above[:, 0] | (tied[:, 0] & above[:, 1]))
    if np.count_nonzero(fault):
        i = int(fault.argmax())
        if wild[i]:
            raise ValueError(f"edge ({ends[i, 0]},{ends[i, 1]}) out of range or not canonical")
        raise ValueError("edges must be sorted and duplicate-free")


def _canonical(ends: np.ndarray) -> np.ndarray:
    """The rows (min(u, v), max(u, v))."""
    u, v = ends[:, 0], ends[:, 1]
    return np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1)


def _sorted_graph(n: int, ends: np.ndarray) -> Graph:
    """Graph on the edge rows ``ends``, each u < v, given in any order."""
    return Graph(n, ends[np.lexsort((ends[:, 1], ends[:, 0]))])


def _rows(rows: list) -> np.ndarray:
    """Loose (u, v) rows as an (m, 2) int64 array. numpy converts every
    entry the way ``int`` does, from one object array of all entries."""
    if set(map(len, rows)) - {2}:  # name the first row of another length
        row = next(row for row in rows if len(row) != 2)
        raise ValueError(f"edge {row!r} must be (u, v)")
    flat = np.fromiter(chain.from_iterable(rows), object, 2 * len(rows))
    try:
        return flat.astype(np.int64).reshape(-1, 2)
    except OverflowError:
        for row in rows:  # the error path: name the first row that does not convert
            try:
                np.array(row, dtype=np.int64)
            except OverflowError:
                raise ValueError(f"edge {row!r} is out of range") from None
        raise


def make_graph(n: int, edges: Iterable[tuple] = ()) -> Graph:
    """Build a Graph from loose (u, v) edge rows, in any order and either
    way round. The first row in input order that is a loop or repeats an
    earlier edge is an error."""
    ends = _canonical(_rows(list(edges)))
    order = np.lexsort((ends[:, 1], ends[:, 0]))
    ranked = ends[order]
    # with a stable sort, the later of two equal rows is the repeat
    repeats = order[1:][(ranked[1:] == ranked[:-1]).all(axis=1)]
    loop_rows = np.flatnonzero(ends[:, 0] == ends[:, 1])
    first = min(repeats.min(initial=len(ends)), loop_rows.min(initial=len(ends)))
    if first < len(ends):
        u, v = ends[first].tolist()
        if u == v:
            raise ValueError(f"edge ({u},{v}) is a loop")
        raise ValueError(f"duplicate edge {(u, v)}")
    return Graph(int(n), ranked)


def _vertex_check(n: int, *vertices: int) -> None:
    """Raise ValueError naming the first vertex outside 0..n-1, so that no
    negative vertex is read from the end of an array."""
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range")


# -- elementary constructors ----------------------------------------------


def _path_ends(n: int) -> np.ndarray:
    """The rows (i, i + 1) for i < n - 1."""
    return np.arange(n).repeat(2)[1:-1].reshape(-1, 2)


def path(n: int) -> Graph:
    """Path 0-1-...-(n-1); a single vertex for n = 1."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph(n, _path_ends(_order(n)))


def cycle(n: int) -> Graph:
    """Cycle with j ~ k iff j - k = +-1 (mod n); needs n >= 3 to stay simple."""
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    ends = _path_ends(_order(n))
    # (0, n - 1) sorts second, after (0, 1)
    return Graph(n, np.concatenate([ends[:1], [[0, n - 1]], ends[1:]]))


def complete(n: int) -> Graph:
    return Graph(n, np.argwhere(_above_diagonal(_order(n))))


def empty(n: int) -> Graph:
    return Graph(_order(n), np.empty((0, 2), np.intp))


def hypercube(d: int) -> Graph:
    """d-dimensional cube on 2^d vertices; x ~ y iff they differ in one bit."""
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    # edge (x, x | bit) for every bit not set in x; row-major order sorts them
    x = np.arange(_order(1 << d))[:, None]
    bits = 1 << np.arange(d)
    unset = (x & bits) == 0
    return Graph(1 << d, np.stack([np.broadcast_to(x, unset.shape)[unset], (x | bits)[unset]], axis=1))


def circulant(n: int, gens: Iterable[int]) -> Graph:
    """Circulant over Z_n: i ~ j iff (i - j) mod n lies in the generator set.

    The generator set must exclude 0 and be closed under negation mod n.
    """
    if n < 1:
        raise ValueError("circulant needs at least one vertex")
    gset = {int(s) % n for s in gens}
    if 0 in gset:
        raise ValueError("generator 0 would create loops")
    for s in gset:
        if (n - s) % n not in gset:
            raise ValueError(f"generators not closed under negation: missing {(n - s) % n}")
    return _circulant(n, np.array(sorted(gset), dtype=np.intp))


def _circulant(n: int, gens: np.ndarray) -> Graph:
    """Circulant on the sorted generators ``gens``: the rows (i, i + s) for
    every vertex i and generator s with i + s < n, in that order, which is
    sorted. The generator n - s gives every such edge again from its other
    end, at (i + s) + (n - s) >= n, so it is dropped there."""
    i = np.arange(_order(n))[:, None]
    ends = i + gens
    keep = ends < n
    return Graph(n, np.stack([np.broadcast_to(i, keep.shape)[keep], ends[keep]], axis=1))


def circulant_family(m: int) -> Graph:
    """The (2m, m-1)-regular circulant over Z_{2m} used for signless double cones.

    Generators are +-1..+-(m-1)/2 when m-1 is even, and
    +-1..+-(m-2)/2 together with +-m when m-1 is odd.
    """
    if m < 2:
        raise ValueError("family is defined for m >= 2")
    n = _order(2 * m)
    if (m - 1) % 2 == 0:
        ks = np.arange(1, (m - 1) // 2 + 1)
        middle = []
    else:
        ks = np.arange(1, (m - 2) // 2 + 1)
        middle = [m]
    return _circulant(n, np.concatenate([ks, middle, n - ks[::-1]]).astype(np.intp))


# -- combinators -----------------------------------------------------------


def _above_diagonal(n: int) -> np.ndarray:
    """The n x n boolean mask of the pairs (u, v) with u < v."""
    vertices = np.arange(n)
    return np.less.outer(vertices, vertices)


def complement(g: Graph) -> Graph:
    """Adjacency 1 - I - A(g): the pairs above the diagonal that are not edges."""
    mask = _above_diagonal(g.n)
    mask[g.ends[:, 0], g.ends[:, 1]] = False
    return Graph(g.n, np.argwhere(mask))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Union with h's vertices shifted by |V(g)|."""
    return Graph(_order(g.n + h.n), np.concatenate([g.ends, h.ends + g.n]))


def join(g: Graph, h: Graph) -> Graph:
    """Join: the union plus every cross edge; equals the complement identity
    complement(union(complement(g), complement(h)))."""
    cross = np.argwhere(np.ones((g.n, h.n), dtype=bool)) + (0, g.n)
    return _sorted_graph(_order(g.n + h.n), np.concatenate([g.ends, cross, h.ends + g.n]))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Box product: adjacency A(g) (x) I + I (x) A(h) under (a,b) -> a*|V(h)|+b.
    Edge {a, a'} of g beside vertex b of h is the edge {(a, b), (a', b)},
    and vertex a of g beside edge {b, b'} of h is {(a, b), (a, b')}."""
    n = _order(g.n * h.n)
    along_g = g.ends[:, None, :] * h.n + np.arange(h.n)[:, None]
    along_h = h.ends + (np.arange(g.n) * h.n)[:, None, None]
    return _sorted_graph(n, np.concatenate([along_g.reshape(-1, 2), along_h.reshape(-1, 2)]))


def weak_product(g: Graph, h: Graph) -> Graph:
    """Tensor product: adjacency A(g) (x) A(h) under (a,b) -> a*|V(h)|+b.
    Edges {a, a'} of g and {b, b'} of h give the edges {(a, b), (a', b')}
    and {(a, b'), (a', b)}."""
    n = _order(g.n * h.n)
    a = g.ends[:, None, :] * h.n  # (edges of g, 1, 2)
    ends = np.concatenate([(a + h.ends).reshape(-1, 2), (a + h.ends[:, ::-1]).reshape(-1, 2)])
    return _sorted_graph(n, ends)


def line_graph(g: Graph) -> Graph:
    """Line graph: vertex i is edge i of ``g.edges``, and two vertices are
    adjacent exactly when those source edges share one endpoint. Edges that
    meet at a vertex pair up there, and a simple graph's edges meet at one
    vertex at most."""
    # the edges at each vertex, in edge order: a CSR array over both ends
    at = np.argsort(g.ends.ravel(), kind="stable") // 2
    degree = np.bincount(g.ends.ravel(), minlength=g.n)
    stop = np.repeat(np.cumsum(degree), degree)  # end of each position's vertex block
    # position p pairs with the positions p + 1 .. stop - 1 of its block
    later = stop - np.arange(len(at)) - 1
    first = np.repeat(np.arange(len(at)) + 1 - (np.cumsum(later) - later), later)
    partner = first + np.arange(later.sum())
    return _sorted_graph(len(g.ends), np.stack([np.repeat(at, later), at[partner]], axis=1))


class OddUnicyclic(NamedTuple):
    graph: Graph
    endpoints: tuple[int, int]


def odd_unicyclic(m: int) -> OddUnicyclic:
    """Triangle with two pendant paths of m edges; 2m+3 vertices.

    The spine is 0-1-...-(2m+1) with an apex vertex 2m+2 adjacent to the two
    middle spine vertices m and m+1. The antipodal pair is the two spine
    endpoints (0, 2m+1).
    """
    if m < 1:
        raise ValueError("needs pendant paths with at least one edge")
    apex = 2 * m + 2
    ends = np.concatenate([_path_ends(_order(2 * m + 2)), [[m, apex], [m + 1, apex]]])
    return OddUnicyclic(_sorted_graph(2 * m + 3, ends), (0, 2 * m + 1))


class PendantCone(NamedTuple):
    graph: Graph
    probe: int  # the degree-2 cone vertex whose controllability is probed
    tail: int  # far endpoint of the pendant path


def cone_p4_with_pendant(m: int) -> PendantCone:
    """Cone over P4 (conical vertex 0, path 1-2-3-4) with a pendant path of m
    edges appended at vertex 4 using labels 4+1..4+m."""
    if m < 0:
        raise ValueError("pendant length must be nonnegative")
    cone = [[0, 1], [0, 2], [0, 3], [0, 4], [1, 2], [2, 3], [3, 4]]
    pendant = _path_ends(_order(m + 1)) + 4  # (4 + k, 5 + k) for k < m
    return PendantCone(Graph(5 + m, np.concatenate([cone, pendant])), 1, 4 + m)
