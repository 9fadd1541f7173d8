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

Every count and vertex a caller gives passes one integer gate here, and
nothing truncates: ``_order`` takes a count, ``_indices`` any array or
loose collection of indices, and ``_vertices`` adds the range 0..n-1. Each
accepts ints and np.integers, never a bool, and names the first other value
as ``got <repr>``. An integer array passes by its dtype alone; loose values
cost one pass over the set of their types. Edge rows, partition cells,
walk-matrix subsets, pairs and circulant generators all come through it.

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


def _whole(t: type) -> bool:
    """Whether values of type ``t`` count as integers: int and the numpy
    integer types, never bool."""
    return t is int or issubclass(t, np.integer)


def _order(n, what: str = "vertex count") -> int:
    """The integer gate for a count: an int or np.integer (never a bool)
    in 0 .. 2^62 - 1, returned as an int."""
    if not _whole(type(n)):
        raise ValueError(f"{what} must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"{what} must be nonnegative")
    if n >= _ORDER_LIMIT:
        raise ValueError(f"{what} {n} is too large")
    return int(n)


def _indices(values, what: str = "vertex") -> np.ndarray:
    """The integer gate for vertices and other indices: ``values``, an array
    or a flat iterable, as an array of exactly the integers given. An array
    of an integer dtype that casts safely to intp passes by its dtype alone.
    Anything else (loose values, an object, float or bool array, an empty
    list) is checked by the set of its entries' types: every entry must be
    an int or an np.integer, and the first other one, in order, raises
    ValueError naming it. Entries that int64 holds come back as int64;
    otherwise they stay exact in an object array, for the range checks to
    name."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind in "iu" and np.can_cast(values.dtype, np.intp):
            return values
        a = values.astype(object, copy=False)
    else:
        a = np.fromiter(values, object)
    entries = a.ravel().tolist()
    if not all(map(_whole, set(map(type, entries)))):
        bad = next(x for x in entries if not _whole(type(x)))
        raise ValueError(f"{what} must be an integer, got {bad!r}")
    fits = not entries or (-(1 << 63) <= min(entries) and max(entries) < 1 << 63)
    return a.astype(np.int64) if fits else a


def _vertices(n: int, values) -> np.ndarray:
    """``values`` through ``_indices``, each a vertex of a graph on n
    vertices, as an intp array. The first outside 0..n-1, in order, raises
    ValueError, so that no negative vertex is read from the end of an
    array."""
    a = _indices(values)
    outside = (a < 0) | (a >= n)
    if outside.any():
        raise ValueError(f"vertex {a.flat[outside.argmax()]} out of range")
    return a.astype(np.intp)


def _frozen(values) -> np.ndarray:
    out = np.asarray(values, np.intp)
    if out.flags.writeable:
        out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False, init=False)
class Graph:
    """Simple undirected graph.

    ``ends`` is the (m, 2) index array of the edges, each row u < v and the
    rows sorted and distinct. The graph keeps an intp array it is given,
    made read-only, and converts any other once the integer gate and the
    row checks have passed. Use :func:`make_graph` to build instances from
    unnormalized edge data.
    """

    n: int
    ends: np.ndarray

    def __init__(self, n: int, ends) -> None:
        n = _order(n)
        ends = _indices(ends if isinstance(ends, np.ndarray) else np.array(ends, dtype=object))
        if ends.ndim != 2 or ends.shape[1] != 2:
            raise ValueError("edge ends must be an (m, 2) array")
        _check_edges(ends, n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ends", _frozen(ends))

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


def _check_edges(ends: np.ndarray, n: int) -> None:
    """Raise on the first row in order that is out of range or has u >= v,
    or does not come strictly after the row before it. ``ends`` is exact:
    an integer array, or Python ints of any size in an object array."""
    u, v = ends[:, 0], ends[:, 1]
    wild = (u < 0) | (u >= v) | (v >= n)
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


def make_graph(n: int, edges: Iterable[tuple] = ()) -> Graph:
    """Build a Graph from loose (u, v) edge rows, in any order and either
    way round. The first row in input order that is a loop or repeats an
    earlier edge is an error."""
    rows = list(edges)
    if set(map(len, rows)) - {2}:  # name the first row of another length
        row = next(row for row in rows if len(row) != 2)
        raise ValueError(f"edge {row!r} must be (u, v)")
    flat = np.fromiter(chain.from_iterable(rows), object, 2 * len(rows))
    ends = _canonical(_indices(flat).reshape(-1, 2))
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
    return Graph(n, ranked)


# -- elementary constructors ----------------------------------------------


def _path_ends(n: int) -> np.ndarray:
    """The rows (i, i + 1) for i < n - 1."""
    return np.arange(n).repeat(2)[1:-1].reshape(-1, 2)


def path(n: int) -> Graph:
    """Path 0-1-...-(n-1); a single vertex for n = 1."""
    n = _order(n)
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph(n, _path_ends(n))


def cycle(n: int) -> Graph:
    """Cycle with j ~ k iff j - k = +-1 (mod n); needs n >= 3 to stay simple."""
    n = _order(n)
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    ends = _path_ends(n)
    # (0, n - 1) sorts second, after (0, 1)
    return Graph(n, np.concatenate([ends[:1], [[0, n - 1]], ends[1:]]))


def complete(n: int) -> Graph:
    return Graph(n, np.argwhere(_above_diagonal(_order(n))))


def empty(n: int) -> Graph:
    return Graph(_order(n), np.empty((0, 2), np.intp))


def hypercube(d: int) -> Graph:
    """d-dimensional cube on 2^d vertices; x ~ y iff they differ in one bit."""
    d = _order(d, "dimension")
    # edge (x, x | bit) for every bit not set in x; row-major order sorts them
    x = np.arange(_order(1 << d))[:, None]
    bits = 1 << np.arange(d)
    unset = (x & bits) == 0
    return Graph(1 << d, np.stack([np.broadcast_to(x, unset.shape)[unset], (x | bits)[unset]], axis=1))


def circulant(n: int, gens: Iterable[int]) -> Graph:
    """Circulant over Z_n: i ~ j iff (i - j) mod n lies in the generator set.

    The generator set must exclude 0 and be closed under negation mod n.
    """
    n = _order(n)
    if n < 1:
        raise ValueError("circulant needs at least one vertex")
    gset = set((_indices(gens, "generator") % n).tolist())
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
    m = _order(m, "m")
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
    m = _order(m, "pendant length")
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
    m = _order(m, "pendant length")
    cone = [[0, 1], [0, 2], [0, 3], [0, 4], [1, 2], [2, 3], [3, 4]]
    pendant = _path_ends(_order(m + 1)) + 4  # (4 + k, 5 + k) for k < m
    return PendantCone(Graph(5 + m, np.concatenate([cone, pendant])), 1, 4 + m)
