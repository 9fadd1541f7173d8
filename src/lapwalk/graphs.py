"""Immutable graphs and the constructors/combinators the walk machinery runs on.

Vertices are always 0..n-1. Edges carry a real weight (1.0 from the unweighted
constructors); loops are kept separately as (vertex, weight) entries that land
on the adjacency diagonal. All combinators are pure and relabel vertices
deterministically: in unions/joins the first argument keeps its labels and the
second is shifted by ``|V(g)|``; in products the pair (a, b) becomes
``a * |V(h)| + b``. Each combinator (and ``complete`` and ``circulant``) is
built from its adjacency identity, such as A(g) (x) A(h) for the weak
product, and read back into a graph by one constructor, never by looping over
vertex pairs; ``hypercube`` lists its d 2^(d-1) edges directly, without the
2^d x 2^d square. Everything that reads a graph's structure reads
its edge index arrays (``Graph._arrays``); there is no second adjacency
structure.
"""

from __future__ import annotations

import math
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
    "LineGraph",
    "odd_unicyclic",
    "OddUnicyclic",
    "cone_p4_with_pendant",
    "PendantCone",
]


@dataclass(frozen=True)
class Graph:
    """Simple undirected weighted graph with optional loops.

    ``edges`` holds canonical (u, v, weight) triples with u < v, sorted;
    ``loops`` holds sorted (vertex, weight) pairs. Use :func:`make_graph` to
    build instances from unnormalized edge data.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...] = ()
    loops: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        prev = None
        for u, v, w in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range or not canonical")
            if not math.isfinite(w):
                raise ValueError(f"edge ({u},{v}) has non-finite weight {w}")
            if prev is not None and (u, v) <= prev:
                raise ValueError("edges must be sorted and duplicate-free")
            prev = (u, v)
        prev_v = None
        for v, w in self.loops:
            if not 0 <= v < self.n:
                raise ValueError(f"loop vertex {v} out of range")
            if not math.isfinite(w):
                raise ValueError(f"loop at {v} has non-finite weight {w}")
            if prev_v is not None and v <= prev_v:
                raise ValueError("loops must be sorted and duplicate-free")
            prev_v = v

    # -- basic queries ---------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def is_unweighted(self) -> bool:
        """True when every edge weight is 1 and there are no loops."""
        return not self.loops and bool((self._arrays[1] == 1.0).all())

    def has_edge(self, u: int, v: int) -> bool:
        ends = self._arrays[0]
        return bool(((ends[:, 0] == min(u, v)) & (ends[:, 1] == max(u, v))).any())

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Edge ends as an (m, 2) index array, edge weights, loop vertices and
        loop weights, in the order of ``edges`` and ``loops``."""
        edges = np.fromiter(chain.from_iterable(self.edges), float, 3 * len(self.edges))
        edges = edges.reshape(-1, 3)
        loops = np.array(self.loops, dtype=float).reshape(-1, 2)
        return edges[:, :2].astype(np.intp), edges[:, 2], loops[:, 0].astype(np.intp), loops[:, 1]

    def adjacency(self) -> np.ndarray:
        ends, w, loop_v, loop_w = self._arrays
        a = np.zeros((self.n, self.n))
        a[ends[:, 0], ends[:, 1]] = w
        a[ends[:, 1], ends[:, 0]] = w
        a[loop_v, loop_v] = loop_w
        return a

    def degrees(self) -> np.ndarray:
        """Weighted degrees; a loop of weight w contributes w once."""
        ends, w, loop_v, loop_w = self._arrays
        d = np.zeros(self.n)
        # unbuffered and in index order: each vertex sums its edges in edge order
        np.add.at(d, ends.ravel(), np.repeat(w, 2))
        d[loop_v] += loop_w  # at most one loop per vertex
        return d

    @cached_property
    def _levels(self) -> np.ndarray:
        """Breadth-first depth of every vertex, each component searched from
        its smallest vertex in turn; those starts are the vertices at level 0."""
        src, dst = self._arrays[0].T
        level = np.full(self.n, -1)
        frontier = np.zeros(self.n, dtype=bool)
        while (level < 0).any():
            if not frontier.any():
                frontier[np.argmax(level < 0)], depth = True, 0
            level[frontier] = depth
            reached = np.zeros(self.n, dtype=bool)
            reached[dst[frontier[src]]] = True
            reached[src[frontier[dst]]] = True
            frontier = reached & (level < 0)
            depth += 1
        return level

    def is_connected(self) -> bool:
        return not (self._levels[1:] == 0).any()

    def two_coloring(self) -> tuple[np.ndarray, tuple[int, int] | None]:
        """Breadth-first two-coloring that never fails, plus the first edge
        (in ``edges`` order) whose ends got the same color, or None when
        there is none. Such an edge closes an odd cycle."""
        color = self._levels % 2
        ends = self._arrays[0]
        clash = np.flatnonzero(color[ends[:, 0]] == color[ends[:, 1]])
        return color, tuple(ends[clash[0]].tolist()) if clash.size else None

    def bipartition(self) -> np.ndarray | None:
        """Two-coloring by breadth-first traversal, or None on an odd cycle."""
        color, clash = self.two_coloring()
        return None if clash is not None else color

    def relabel(self, perm: Iterable[int]) -> "Graph":
        """New graph with vertex u renamed to perm[u]."""
        p = list(perm)
        if sorted(p) != list(range(self.n)):
            raise ValueError("perm must be a permutation of 0..n-1")
        edges = [(p[u], p[v], w) for u, v, w in self.edges]
        loops = [(p[v], w) for v, w in self.loops]
        return make_graph(self.n, edges, loops)


def make_graph(
    n: int,
    edges: Iterable[tuple] = (),
    loops: Iterable[tuple[int, float]] = (),
) -> Graph:
    """Build a Graph from loose edge data: (u, v) or (u, v, w) per edge."""
    canon: dict[tuple[int, int], float] = {}
    for e in edges:
        if len(e) == 2:
            u, v = e
            w = 1.0
        elif len(e) == 3:
            u, v, w = e
        else:
            raise ValueError(f"edge {e!r} must be (u, v) or (u, v, w)")
        u, v, w = int(u), int(v), float(w)
        if u == v:
            raise ValueError(f"({u},{v}) is a loop; pass it via loops=")
        key = (u, v) if u < v else (v, u)
        if key in canon:
            raise ValueError(f"duplicate edge {key}")
        canon[key] = w
    loop_map: dict[int, float] = {}
    for v, w in loops:
        v, w = int(v), float(w)
        if v in loop_map:
            raise ValueError(f"duplicate loop at {v}")
        loop_map[v] = w
    return Graph(
        n=int(n),
        edges=tuple((u, v, canon[(u, v)]) for u, v in sorted(canon)),
        loops=tuple(sorted(loop_map.items())),
    )


def _require_unweighted(g: Graph, what: str) -> None:
    if not g.is_unweighted:
        raise ValueError(f"{what} requires an unweighted, loop-free graph")


def _unweighted(n: int, rows: np.ndarray, cols: np.ndarray) -> Graph:
    """Unweighted graph on n vertices with the edges (rows[i], cols[i]),
    given canonical (rows < cols) and sorted."""
    return Graph(n, tuple((u, v, 1.0) for u, v in zip(rows.tolist(), cols.tolist())))


def _from_adjacency(a: np.ndarray) -> Graph:
    """Unweighted graph whose edges are the nonzero entries of the symmetric
    matrix ``a`` above the diagonal."""
    return _unweighted(len(a), *np.nonzero(np.triu(a, 1)))


def _incidence(g: Graph) -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
    """0/1 vertex-edge incidence N, one column per edge in ``edges`` order,
    and those edges as (u, v) pairs."""
    ends = g._arrays[0]
    n_edges = len(ends)
    incidence = np.zeros((g.n, n_edges))
    incidence[ends, np.arange(n_edges)[:, None]] = 1.0
    return incidence, tuple(map(tuple, ends.tolist()))


def _blocks(g: Graph, h: Graph, cross: float) -> Graph:
    """A(g) and A(h) on the diagonal blocks, ``cross`` everywhere off them."""
    a = np.full((g.n + h.n, g.n + h.n), cross)
    a[: g.n, : g.n] = g.adjacency()
    a[g.n :, g.n :] = h.adjacency()
    return _from_adjacency(a)


# -- elementary constructors ----------------------------------------------


def path(n: int) -> Graph:
    """Path 0-1-...-(n-1); a single vertex for n = 1."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    """Cycle with j ~ k iff j - k = +-1 (mod n); needs n >= 3 to stay simple."""
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    return _from_adjacency(1.0 - np.eye(n))


def empty(n: int) -> Graph:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    return make_graph(n)


def hypercube(d: int) -> Graph:
    """d-dimensional cube on 2^d vertices; x ~ y iff they differ in one bit."""
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    # edge (x, x | bit) for every bit not set in x; row-major order sorts them
    x = np.arange(1 << d)[:, None]
    bits = 1 << np.arange(d)
    unset = (x & bits) == 0
    return _unweighted(1 << d, np.broadcast_to(x, unset.shape)[unset], (x | bits)[unset])


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
    i = np.arange(n)
    return _from_adjacency(np.isin((i[:, None] - i) % n, sorted(gset)))


def circulant_family(m: int) -> Graph:
    """The (2m, m-1)-regular circulant over Z_{2m} used for signless double cones.

    Generators are +-1..+-(m-1)/2 when m-1 is even, and
    +-1..+-(m-2)/2 together with +-m when m-1 is odd.
    """
    if m < 2:
        raise ValueError("family is defined for m >= 2")
    if (m - 1) % 2 == 0:
        ks = range(1, (m - 1) // 2 + 1)
        gens = set(ks) | {2 * m - k for k in ks}
    else:
        ks = range(1, (m - 2) // 2 + 1)
        gens = set(ks) | {2 * m - k for k in ks} | {m}
    return circulant(2 * m, gens)


# -- combinators -----------------------------------------------------------


def complement(g: Graph) -> Graph:
    """Adjacency 1 - I - A(g)."""
    _require_unweighted(g, "complement")
    return _from_adjacency(1.0 - np.eye(g.n) - g.adjacency())


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Union with h's vertices shifted by |V(g)|."""
    _require_unweighted(g, "disjoint_union")
    _require_unweighted(h, "disjoint_union")
    return _blocks(g, h, 0.0)


def join(g: Graph, h: Graph) -> Graph:
    """Join: the union plus every cross edge; equals the complement identity
    complement(union(complement(g), complement(h)))."""
    _require_unweighted(g, "join")
    _require_unweighted(h, "join")
    return _blocks(g, h, 1.0)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Box product: adjacency A(g) (x) I + I (x) A(h) under (a,b) -> a*|V(h)|+b."""
    _require_unweighted(g, "cartesian_product")
    _require_unweighted(h, "cartesian_product")
    a = np.kron(g.adjacency(), np.eye(h.n)) + np.kron(np.eye(g.n), h.adjacency())
    return _from_adjacency(a)


def weak_product(g: Graph, h: Graph) -> Graph:
    """Tensor product: adjacency A(g) (x) A(h) under (a,b) -> a*|V(h)|+b."""
    _require_unweighted(g, "weak_product")
    _require_unweighted(h, "weak_product")
    return _from_adjacency(np.kron(g.adjacency(), h.adjacency()))


class LineGraph(NamedTuple):
    graph: Graph
    edges: tuple[tuple[int, int], ...]  # edge i of the source = vertex i here


def line_graph(g: Graph) -> LineGraph:
    """Line graph, with the stable source edge ordering returned alongside.

    Vertex i of the result is edge i of ``g.edges``; two such vertices are
    adjacent exactly when the source edges share one endpoint.
    """
    _require_unweighted(g, "line_graph")
    incidence, pairs = _incidence(g)
    # (N^T N)[i, j] counts the endpoints edges i and j share
    return LineGraph(_from_adjacency(incidence.T @ incidence), pairs)


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
    edges = [(i, i + 1) for i in range(2 * m + 1)]
    edges += [(m, apex), (m + 1, apex)]
    return OddUnicyclic(make_graph(2 * m + 3, edges), (0, 2 * m + 1))


class PendantCone(NamedTuple):
    graph: Graph
    probe: int  # the degree-2 cone vertex whose controllability is probed
    tail: int  # far endpoint of the pendant path


def cone_p4_with_pendant(m: int) -> PendantCone:
    """Cone over P4 (conical vertex 0, path 1-2-3-4) with a pendant path of m
    edges appended at vertex 4 using labels 4+1..4+m."""
    if m < 0:
        raise ValueError("pendant length must be nonnegative")
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)]
    edges += [(4 + k, 4 + k + 1) for k in range(m)]
    return PendantCone(make_graph(5 + m, edges), 1, 4 + m)
