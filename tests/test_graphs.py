import re
import tracemalloc

import numpy as np
import pytest

import oracle
from lapwalk import io as lio
from lapwalk.graphs import (
    Graph,
    cartesian_product,
    circulant,
    circulant_family,
    complement,
    complete,
    cone_p4_with_pendant,
    cycle,
    disjoint_union,
    empty,
    hypercube,
    join,
    line_graph,
    make_graph,
    odd_unicyclic,
    path,
    weak_product,
)


def test_path_degenerate_and_small():
    p1 = path(1)
    assert p1.n == 1 and p1.edge_count == 0
    p3 = path(3)
    assert p3.edges == ((0, 1), (1, 2))
    p5 = path(5)
    assert sorted(p5.degrees()) == [1, 1, 2, 2, 2]


def test_cycle_requires_three_vertices():
    with pytest.raises(ValueError):
        cycle(2)
    assert cycle(3).edges == complete(3).edges


def test_cycle_eigenvalues():
    # brute-force eigensolve oracle
    assert np.allclose(np.linalg.eigvalsh(cycle(4).adjacency()), [-2, 0, 0, 2], atol=1e-9)
    assert np.allclose(
        np.linalg.eigvalsh(cycle(6).adjacency()), [-2, -1, -1, 1, 1, 2], atol=1e-9
    )


def test_complete_empty_hypercube():
    assert complete(2).edge_count == 1
    assert empty(4).edge_count == 0
    assert hypercube(2).edges == make_graph(4, np.array([0, 1, 3, 2])[cycle(4).ends]).edges
    q3 = hypercube(3)
    assert q3.n == 8
    assert all(d == 3 for d in q3.degrees())


def test_circulant():
    assert circulant(6, {1, 5}).edges == cycle(6).edges
    matching = circulant(4, {2})
    assert matching.edges == ((0, 2), (1, 3))
    with pytest.raises(ValueError):
        circulant(7, {2})  # not closed under negation
    with pytest.raises(ValueError):
        circulant(5, {0, 1, 4})


def test_circulant_family():
    assert circulant_family(2).edges == circulant(4, {2}).edges
    # m=3: m-1 even, generators {+-1}
    assert circulant_family(3).edges == cycle(6).edges
    for m in range(2, 9):
        g = circulant_family(m)
        degs = g.degrees()
        assert g.n == 2 * m
        assert degs.min() == degs.max() == m - 1
    with pytest.raises(ValueError):
        circulant_family(1)


def test_complement():
    assert complement(empty(4)).edges == complete(4).edges
    p5 = path(5)
    assert complement(complement(p5)) == p5
    two_k2 = disjoint_union(complete(2), complete(2))
    # enumerated by hand on 4 vertices: the complement is the 4-cycle 0-2-1-3
    assert complement(two_k2).edges == ((0, 2), (0, 3), (1, 2), (1, 3))


def test_join_and_union():
    g = join(empty(2), complete(2))  # K4 minus one edge
    assert g.n == 4
    assert (0, 1) not in g.edges
    assert g.edge_count == 5
    p3 = join(empty(2), empty(1))
    assert make_graph(3, np.array([0, 2, 1])[p3.ends]) == path(3)
    for a, b in [(path(3), complete(2)), (cycle(4), empty(3))]:
        assert join(a, b).n == a.n + b.n


def test_complement_join_duality():
    rng = np.random.default_rng(5)
    for _ in range(8):
        na, nb = int(rng.integers(3, 7)), int(rng.integers(3, 7))
        ga = _random_graph(rng, na)
        gb = _random_graph(rng, nb)
        lhs = complement(join(ga, gb))
        rhs = disjoint_union(complement(ga), complement(gb))
        assert lhs == rhs  # identical labels under the block labeling


def _random_graph(rng, n):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    return make_graph(n, edges)


def test_products():
    pk = weak_product(path(3), complete(4))
    assert pk.n == 12
    rng = np.random.default_rng(19)
    pairs = [(path(3), complete(2)), (cycle(4), path(2))]
    pairs += [
        (_random_graph(rng, int(rng.integers(2, 6))), _random_graph(rng, int(rng.integers(2, 6))))
        for _ in range(5)
    ]
    for g, h in pairs:
        a = weak_product(g, h).adjacency()
        assert np.array_equal(a, np.kron(g.adjacency(), h.adjacency()))
        c = cartesian_product(g, h).adjacency()
        expected = np.kron(g.adjacency(), np.eye(h.n)) + np.kron(np.eye(g.n), h.adjacency())
        assert np.array_equal(c, expected)
    assert cartesian_product(complete(2), join(empty(2), complete(2))).n == 8


def test_combinators_match_networkx():
    """networkx builds every combinator independently; its labels are mapped
    to lapwalk's: (a, b) -> a*|V(h)| + b in products, edge index in line
    graphs, h shifted by |V(g)| in unions and joins."""
    nx = pytest.importorskip("networkx")

    def to_nx(g):
        out = nx.Graph()
        out.add_nodes_from(range(g.n))
        out.add_edges_from(g.edges)
        return out

    def same(ours, theirs, label=lambda x: x):
        edges = [(label(u), label(v)) for u, v in theirs.edges()]
        assert ours == make_graph(theirs.number_of_nodes(), edges)
        assert all(type(u) is type(v) is int for u, v in ours.edges)

    rng = np.random.default_rng(29)
    graphs = [empty(0), path(4), cycle(5), complete(4), empty(3), hypercube(3), empty(1), path(2)]
    graphs += [_random_graph(rng, int(rng.integers(1, 8))) for _ in range(14)]
    for g in graphs:
        same(complement(g), nx.complement(to_nx(g)))
        index = {frozenset(e): i for i, e in enumerate(g.edges)}
        same(line_graph(g), nx.line_graph(to_nx(g)), lambda e: index[frozenset(e)])
    for g, h in zip(graphs, graphs[5:] + graphs[:5]):
        big, small = to_nx(g), to_nx(h)
        shifted = nx.relabel_nodes(small, lambda b: b + g.n)
        same(disjoint_union(g, h), nx.union(big, shifted))
        same(join(g, h), nx.full_join(big, shifted))
        pair = lambda ab: ab[0] * h.n + ab[1]
        same(cartesian_product(g, h), nx.cartesian_product(big, small), pair)
        same(weak_product(g, h), nx.tensor_product(big, small), pair)
    for n in range(0, 12):
        same(complete(n), nx.complete_graph(n))
        same(empty(n), nx.empty_graph(n))
    for n in range(1, 14):
        for _ in range(3):
            gens = {s for s in range(1, n // 2 + 1) if rng.random() < 0.5}
            gens |= {n - s for s in gens}
            same(circulant(n, gens), nx.circulant_graph(n, sorted(gens)))


def test_line_graph():
    assert line_graph(path(5)) == path(4)
    assert line_graph(cycle(3)) == cycle(3)
    # handshake and vertex count across a batch
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = _random_graph(rng, int(rng.integers(4, 9)))
        lg = line_graph(g)
        assert lg.n == g.edge_count
        assert sum(lg.degrees()) == 2 * lg.edge_count


def test_line_graph_of_odd_unicyclic():
    # 7 edges -> 7 vertices; cone over P4 with one-edge pendants on the two
    # degree-2 cone vertices
    u2, (a, b) = odd_unicyclic(2)
    lg = line_graph(u2)
    assert lg.n == 7
    # cone over P4 (degrees 2,2,3,3,4) with the two degree-2 vertices picking
    # up a pendant each
    assert sorted(lg.degrees()) == [1, 1, 3, 3, 3, 3, 4]


def test_odd_unicyclic():
    u1, ends = odd_unicyclic(1)
    assert u1.n == 5 and ends == (0, 3)
    assert sorted(u1.degrees()) == [1, 1, 2, 3, 3]
    u2, _ = odd_unicyclic(2)
    assert u2.n == 7 and u2.edge_count == 7
    for m in (1, 2, 3, 4):
        g, (p, q) = odd_unicyclic(m)
        assert g.edge_count == 2 * m + 3
        assert g.degrees()[p] == g.degrees()[q] == 1
    with pytest.raises(ValueError):
        odd_unicyclic(0)


def test_cone_p4_with_pendant():
    g0, probe, tail = cone_p4_with_pendant(0)
    assert g0.n == 5 and probe == 1 and tail == 4
    g3 = cone_p4_with_pendant(3)
    assert g3.graph.n == 8 and g3.tail == 7
    for m in range(6):
        g = cone_p4_with_pendant(m).graph
        assert g.degrees()[0] == 4


def test_graph_validation():
    with pytest.raises(ValueError):
        make_graph(3, [(0, 1), (1, 0)])  # duplicate after canonicalization
    with pytest.raises(ValueError):
        make_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        make_graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        make_graph(2, [(0, 1, 1.0)])  # no weight column


def test_matrix_helpers_match_edge_loops():
    # reference: one Python addition per edge end, in edge order; the array
    # helpers must give the same bits, degrees included
    rng = np.random.default_rng(5)
    for n in (0, 1, 2, 7, 30):
        g = _random_graph(rng, n)
        a, d = np.zeros((n, n)), np.zeros(n)
        for u, v in g.edges:
            a[u, v] = a[v, u] = 1.0
            d[u] += 1.0
            d[v] += 1.0
        assert g.adjacency().tobytes() == a.tobytes()
        assert g.degrees().tobytes() == d.tobytes()


def test_json_round_trip():
    g = make_graph(4, [(0, 1), (2, 1), (3, 0)])
    text = lio.graph_to_json(g)
    assert text == '{"n":4,"edges":[[0,1],[0,3],[1,2]],"loops":[]}\n'
    back = lio.graph_from_json(text)
    assert back == g
    assert lio.graph_to_json(back) == text  # canonical output is stable


def test_edgelist_round_trip():
    g = make_graph(4, [(2, 1), (0, 1)])
    text = lio.graph_to_edgelist(g)
    assert text == "n 4\n0 1\n1 2\n"
    back = lio.graph_from_edgelist(text)
    assert back == g
    assert lio.graph_to_edgelist(back) == text


def test_edgelist_reads_vertices_with_leading_zeros():
    # digits name the same vertex however many leading zeros they carry, so
    # a line whose two vertices are the same number is a loop, however written
    g = lio.graph_from_edgelist("n 12\n2 01\n02 011\n")
    assert g == make_graph(12, [(1, 2), (2, 11)])
    with pytest.raises(ValueError, match=re.escape("edge (10,10) is a loop")):
        lio.graph_from_edgelist("n 12\n0 1\n010 10\n")


def test_hypercube_matches_the_loop_reference():
    for d in range(9):
        q = hypercube(d)
        assert q.n == 1 << d and q.edges == oracle.hypercube_edges(d)
        assert all(type(u) is type(v) is int for u, v in q.edges)


def test_hypercube_memory_follows_its_edges():
    # the 12 * 2^11 edges take a few MiB; a 2^12 x 2^12 matrix alone takes 128
    tracemalloc.start()
    try:
        q = hypercube(12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q.n == 1 << 12 and q.edge_count == 12 << 11
    assert peak < 32 << 20


def test_join_memory_follows_its_edges():
    # the cone's 12000 edges take a few MiB; a 4002 x 4002 adjacency alone
    # takes 128, and its upper triangle as much again
    base, apexes = cycle(4000), empty(2)
    tracemalloc.start()
    try:
        cone = join(apexes, base)
        union = disjoint_union(apexes, base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cone.edge_count == 12000 and union.edge_count == 4000
    assert cone.edges[:2] == ((0, 2), (0, 3)) and union.edges[0] == (2, 3)
    assert peak < 16 << 20


def test_complement_memory_follows_its_edges():
    # 1,997,000 edges: 32 MB of edge ends beside a 4 MB boolean mask; an
    # n x n float matrix alone would take 32 MB more
    base = cycle(2000)
    tracemalloc.start()
    try:
        comp = complement(base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert comp.edge_count == 2000 * 1999 // 2 - 2000
    assert peak < 128 << 20


def test_equality_and_hash():
    g = make_graph(4, [(0, 1), (2, 1), (3, 0)])
    shuffled = make_graph(4, [(0, 3), (1, 2), (1, 0)])
    assert g == shuffled and hash(g) == hash(shuffled) and len({g, shuffled}) == 1
    assert g != make_graph(4, [(0, 1), (1, 2)])
    assert g != make_graph(5, [(0, 1), (1, 2), (0, 3)])
    assert g != make_graph(4, [(0, 1), (1, 2), (0, 2)])
    assert g != g.edges and (g == "graph") is False
    assert path(3) == make_graph(3, [(1, 2), (0, 1)]) and {path(3): 1}[make_graph(3, [(0, 1), (1, 2)])] == 1
    assert repr(path(3)) == "Graph(n=3, edges=((0, 1), (1, 2)))"


def test_graph_checks_its_arrays():
    from lapwalk.graphs import Graph

    def graph(n, ends):
        return Graph(n, np.array(ends, dtype=np.intp).reshape(-1, 2))

    g = graph(3, [[0, 1], [1, 2]])
    assert g.edges == ((0, 1), (1, 2)) and not g.ends.flags.writeable
    with pytest.raises(ValueError):
        g.ends[0, 0] = 2
    cases = [
        (lambda: graph(-1, []), "nonnegative"),
        (lambda: graph(2**62, []), "too large"),
        (lambda: graph(3, [[0, 1], [1, 3]]), "edge (1,3) out of range"),
        (lambda: graph(3, [[0, 1], [-1, 2]]), "edge (-1,2) out of range"),
        (lambda: graph(3, [[0, 1], [2, 1]]), "edge (2,1) out of range or not canonical"),
        (lambda: graph(3, [[0, 1], [1, 1]]), "edge (1,1) out of range or not canonical"),
        (lambda: graph(3, [[1, 2], [0, 1]]), "sorted and duplicate-free"),
        (lambda: graph(3, [[0, 1], [0, 1]]), "sorted and duplicate-free"),
        (lambda: Graph(3, [0, 1]), "(m, 2) array"),
        (lambda: Graph(3, [[0, 1, 2]]), "(m, 2) array"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            build()


def test_make_graph_names_the_first_offending_entry():
    cases = [
        ([(0, 1), (2, 2), (1, 0)], "edge (2,2) is a loop"),
        ([(0, 1), (1, 0), (2, 2)], "duplicate edge (0, 1)"),
        ([(2, 1), (0, 1), (1, 2)], "duplicate edge (1, 2)"),
        ([(0, 1), (1,)], "edge (1,) must be (u, v)"),
        ([(0, 1), (1, 2, 3.0)], "edge (1, 2, 3.0) must be (u, v)"),
        ([(0, 1), (1, 2**65)], f"edge (1,{2**65}) out of range"),
    ]
    for edges, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            make_graph(3, edges)


@pytest.mark.parametrize(
    "build, named",
    [
        (lambda: path(3.5), "got 3.5"),
        (lambda: complete(2.5), "got 2.5"),
        (lambda: hypercube(2.0), "got 2.0"),
        (lambda: Graph(3.0, [[0, 1]]), "got 3.0"),
        (lambda: Graph(3, [[0, 1.7]]), "got 1.7"),
        (lambda: make_graph(2.9, [(0, 1)]), "got 2.9"),
        (lambda: make_graph(3, [(0, 1.9), (1, 2)]), "got 1.9"),
        (lambda: make_graph(3, [(True, 2.5)]), "got True"),
        (lambda: make_graph(3, [("0", "1")]), "got '0'"),
        (lambda: circulant(6, [1.5, 5.2]), "got 1.5"),
    ],
    ids=["path", "complete", "hypercube", "Graph-n", "Graph-ends", "make_graph-n",
         "make_graph-float", "make_graph-bool", "make_graph-str", "circulant"],
)
def test_counts_and_vertices_are_never_truncated(build, named):
    """A count or vertex that is not an int or an np.integer (a bool is
    neither) raises ValueError naming the first such value."""
    with pytest.raises(ValueError, match=re.escape(named)):
        build()


def test_numpy_integers_are_counts_and_vertices():
    i32, i64 = np.int32, np.int64
    assert path(i64(3)) == path(3) and type(path(i64(3)).n) is int
    assert make_graph(i64(3), [(i32(0), i64(1)), (i64(2), i32(1))]) == path(3)
    assert Graph(i32(3), np.array([[0, 1], [1, 2]], np.int32)) == path(3)
    assert circulant(i64(6), [i32(1), i64(5)]) == cycle(6)
    assert Graph(3, np.empty((0, 2))) == empty(3)  # no entries, so no non-integer
