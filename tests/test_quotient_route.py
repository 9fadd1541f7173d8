"""The pair-quotient and mirror routes of ``pst._pair_spectrum`` and the
hashed refinement behind the first.

A graph operator of order n >= ``QUOTIENT_MIN`` reads a pair's spectrum from
the pair's coarsest equitable quotient when that has at most floor(sqrt(n))
cells; failing that, for u != v, from the two halves of the operator over an
involutive automorphism that swaps the pair, when the pair's distances give
one and the edge array proves it; and from the whole operator otherwise.
Every route must give the same walk entries; the dense reference here
(``_dense``) is ``eigendecompose`` of the whole operator, read straight off
the decomposition."""

import math

import numpy as np
import pytest

import oracle

from lapwalk import partitions, pst
from lapwalk.corpus import named_small_graphs, random_connected_graphs
from lapwalk.graphs import cycle, empty, hypercube, join, make_graph, odd_unicyclic, path, weak_product
from lapwalk.operators import OperatorKind, operator
from lapwalk.partitions import NotEquitableError, coarsest_equitable_refinement
from lapwalk.pst import search_pst, verify_pst, walk_entries
from lapwalk.spectral import eigendecompose

KINDS = (OperatorKind.ADJACENCY, OperatorKind.STANDARD, OperatorKind.SIGNLESS, OperatorKind.NORMALIZED)
# short times: eigenvalue rounding alone moves an entry by a few eps *
# t * max|theta|, which nears 1e-12 at t = 20 on these graphs
TIMES = (0.0, 0.5, 1.7, 6.0)


def _dense(h, pair, times=TIMES):
    """The walk entries from the whole operator's decomposition."""
    return eigendecompose(h).amplitude(*pair, times)


def _blown_up(rng):
    """A random connected graph on 6 to 8 classes, each blown up into
    an empty graph, a clique or a cycle, and each edge between classes into
    a complete bipartite graph. Vertices 0 and 1 are classes of their own,
    and the classes are an equitable partition, so the pair's refinement
    has at most k <= floor(sqrt(n)) cells, with n >= 66."""
    k = int(rng.integers(6, 9))
    sizes = [1, 1] + rng.integers(16, 31, k - 2).tolist()
    starts = np.cumsum([0] + sizes)
    members = [range(starts[j], starts[j + 1]) for j in range(k)]
    edges = set()
    for j in range(1, k):  # a random spanning tree, then more class edges
        edges |= {(int(rng.integers(0, j)), j)}
    edges |= {(a, b) for a in range(k) for b in range(a + 1, k) if rng.random() < 0.3}
    vertex_edges = [(u, v) for a, b in edges for u in members[a] for v in members[b]]
    for cell in members:
        inside = rng.integers(0, 3) if len(cell) >= 3 else 0
        if inside == 1:
            vertex_edges += [(u, v) for u in cell for v in cell if u < v]
        elif inside == 2:
            vertex_edges += [(u, u + 1) for u in cell[:-1]] + [(cell[0], cell[-1])]
    return make_graph(int(starts[-1]), sorted(vertex_edges))


def _random_connected(rng, n):
    """A spanning path plus random chords: no symmetry, so the pair's
    refinement passes the cap."""
    chords = [(u, v) for u in range(n) for v in range(u + 2, n) if rng.random() < 0.08]
    return make_graph(n, sorted(set(chords) | {(v, v + 1) for v in range(n - 1)}))


def _family_cases():
    cases = [(hypercube(d), (0, 2**d - 1)) for d in (6, 7)]
    cases += [(join(empty(2), base), (0, 1)) for base in (empty(62), cycle(70), path(66))]
    cases += [(weak_product(path(3), hypercube(d)), (0, 2 ** (d + 1))) for d in (5, 6)]
    return cases


def _route_cases():
    rng = np.random.default_rng(20261020)
    cases = [(_blown_up(rng), (0, 1)) for _ in range(6)]
    cases += [(_random_connected(rng, int(rng.integers(64, 90))), (0, 1)) for _ in range(3)]
    cases += _family_cases()
    for g, (u, v) in list(cases):
        cases += [(g, (u, u)), (g, (v, u))]
    return cases


def test_quotient_and_dense_routes_give_the_same_walk_entries():
    outcomes = set()
    for g, (u, v) in _route_cases():
        assert g.n >= pst.QUOTIENT_MIN
        quotient_taken = partitions._pair_refinement(g, u, v, math.isqrt(g.n)) is not None
        outcomes.add((quotient_taken, u == v))
        for kind in KINDS:
            h = operator(g, kind)
            routed = walk_entries(h, (u, v), TIMES)
            assert ("matrix" in vars(h)) != quotient_taken  # the route never builds the n x n matrix
            assert np.abs(routed - _dense(h, (u, v))).max() < 1e-12, (g.n, (u, v), kind, quotient_taken)
    # both outcomes, for distinct and for equal endpoints
    assert outcomes == {(True, False), (True, True), (False, False), (False, True)}


def test_search_answers_through_the_quotient_as_through_the_whole_operator(monkeypatch):
    # hypercube antipodes, double-cone apexes and P3 x Q5 under the
    # normalized Laplacian: the same verdict, and certificate times within 1e-12
    cases = [
        (operator(hypercube(8), "adjacency"), (0, 255), 2000.0),
        (operator(join(empty(2), cycle(98)), "standard"), (0, 1), 500.0),
        (operator(weak_product(path(3), hypercube(5)), "normalized"), (0, 64), 100.0),
    ]
    routed = [search_pst(h, pair, t_max) for h, pair, t_max in cases]
    monkeypatch.setattr(pst, "QUOTIENT_MIN", math.inf)
    for (h, pair, t_max), got in zip(cases, routed):
        want = search_pst(h, pair, t_max)
        assert got.certifies() and want.certifies()
        assert abs(got.time - want.time) < 1e-12 and abs(got.magnitude - want.magnitude) < 1e-12


def test_large_pairs_run_through_their_quotients_without_the_matrix(eigh_calls):
    # n = 65536, 100000 and 98304: a dense operator alone would take 34, 80
    # and 77 GB. Each pair's refinement stays under floor(sqrt(n)) cells, and
    # every eigensolve is of a quotient
    cases = [
        (operator(hypercube(16), "adjacency"), (0, 2**16 - 1), 1e4, math.pi / 2),
        (operator(join(empty(2), cycle(99998)), "standard"), (0, 1), 1e4, math.pi / 2),
        (operator(weak_product(path(3), hypercube(15)), "normalized"), (0, 2**16), 100.0, 15 * math.pi),
    ]
    for h, pair, t_max, t in cases:
        found = search_pst(h, pair, t_max)
        assert not found.refutes() and verify_pst(h, pair, t).certifies()
        assert "matrix" not in vars(h)
    assert [shape[0] for shape in eigh_calls] == [17, 17, 3, 3, 19, 19]  # quotients only


# -- the mirror route -------------------------------------------------------


def _relabelled_path(rng, n):
    """P_n under a random relabelling, and the images of its two ends."""
    perm = rng.permutation(n).tolist()
    return make_graph(n, [(perm[v], perm[v + 1]) for v in range(n - 1)]), (perm[0], perm[-1])


def _symmetric_decorated_path():
    """P71 with a pendant at 5 and at its mirror 65, chords 10-12 and
    58-60, and a path of two fixed vertices hanging from the middle vertex
    35: arcs between fixed points, and between them and the 2-cycles."""
    edges = [(v, v + 1) for v in range(70)] + [(5, 71), (65, 72), (10, 12), (58, 60), (35, 73), (73, 74)]
    return make_graph(75, edges), (0, 70)


def _mirror_cases():
    rng = np.random.default_rng(20261022)
    # odd n fixes the middle vertex; even n joins a vertex to its own mirror
    cases = [_relabelled_path(rng, n) for n in (64, 65, 100, 151, 300, 301)]
    # the apex of the odd unicyclic graph is fixed, and the triangle's base
    # joins the two middle spine vertices, each other's mirror
    return cases + [tuple(odd_unicyclic(m)) for m in (31, 40)] + [_symmetric_decorated_path()]


def test_mirror_and_dense_routes_give_the_same_spectrum_and_walk_entries():
    # the halves' spectra together are the whole operator's: the same
    # clusters and pair weights. The entries run to t = n, past the time the
    # front needs to cross a path; before it they are too small to tell a
    # wrong weight apart
    for g, (u, v) in _mirror_cases():
        assert g.n >= pst.QUOTIENT_MIN and partitions._pair_refinement(g, u, v, math.isqrt(g.n)) is None
        assert partitions._mirror(g, u, v) is not None
        times = np.linspace(0.0, g.n, 13)
        for kind in KINDS:
            h = operator(g, kind)
            values, weights = pst._pair_spectrum(h, (u, v))
            routed = walk_entries(h, (u, v), times)
            assert "matrix" not in vars(h)
            dec = eigendecompose(h)
            assert len(values) == len(dec.values) and np.abs(values - dec.values).max() < 1e-12, (g.n, kind)
            assert np.abs(weights - dec.pair_weights(u, v)).max() < 1e-12, (g.n, kind)
            assert np.abs(routed - dec.amplitude(u, v, times)).max() < 1e-12, (g.n, kind)


def test_a_path_of_301_vertices_is_read_from_two_halves(eigh_calls):
    h = operator(path(301), "standard")
    times = np.linspace(0.0, 301.0, 13)
    routed = walk_entries(h, (0, 300), times)
    # the even half has the 150 two-cycles and the middle vertex, the odd
    # half the 150 two-cycles
    assert [shape[0] for shape in eigh_calls] == [151, 150]
    assert "matrix" not in h.__dict__
    assert np.abs(routed - _dense(h, (0, 300), times)).max() < 1e-12


def _recording_mirror_proof(monkeypatch):
    proofs = []
    proof = partitions._is_automorphism

    def recording(g, sigma):
        proofs.append(proof(g, sigma))
        return proofs[-1]

    monkeypatch.setattr(partitions, "_is_automorphism", recording)
    return proofs


def _decorated_path(rng):
    """A path with pendants at three random spots and at their mirrors, and
    one edge between two pendants on the first end's side, which no mirror
    edge matches: where that edge moves no distance, the distances give a
    candidate that the edge array refuses."""
    length = int(rng.integers(64, 81))
    edges = [(v, v + 1) for v in range(length - 1)]
    near = []
    for j, spot in enumerate(rng.choice(np.arange(1, length // 2 - 1), 3, replace=False).tolist()):
        edges += [(spot, length + 2 * j), (length - 1 - spot, length + 2 * j + 1)]
        near.append(length + 2 * j)
    edges.append(tuple(rng.choice(near, 2, replace=False).tolist()))
    return make_graph(length + 6, edges), (0, length - 1)


def _refused_candidate(monkeypatch):
    """The first decorated path of a seeded search whose candidate the
    proof refuses."""
    proofs = _recording_mirror_proof(monkeypatch)
    rng = np.random.default_rng(7)
    for _ in range(200):
        g, pair = _decorated_path(rng)
        assert partitions._mirror(g, *pair) is None
        if proofs:
            assert proofs == [False]
            return g, pair
    raise AssertionError("no decorated path gave a candidate")


@pytest.mark.parametrize("case", ["cycle antipodes", "equal ends", "refused candidate"])
def test_pairs_without_a_proven_mirror_are_read_whole(monkeypatch, eigh_calls, case):
    if case == "cycle antipodes":
        g, pair = cycle(130), (0, 65)  # a vertex and its mirror share their distance pair
        assert partitions._mirror(g, *pair) is None
    elif case == "equal ends":
        g, pair = path(301), (0, 0)
    else:
        g, pair = _refused_candidate(monkeypatch)
    assert partitions._pair_refinement(g, *pair, math.isqrt(g.n)) is None
    for kind in KINDS:
        eigh_calls.clear()
        h = operator(g, kind)
        routed = walk_entries(h, pair, TIMES)
        assert [shape[0] for shape in eigh_calls] == [g.n] and "matrix" in vars(h)
        assert np.abs(routed - _dense(h, pair)).max() < 1e-12, kind


# -- the hashed refinement --------------------------------------------------


def test_refinement_finds_the_loop_reference_cells_on_the_corpora():
    graphs = [g for _, g in named_small_graphs()] + random_connected_graphs(30, seed=5)
    graphs += [hypercube(d) for d in range(1, 6)] + [join(empty(2), base) for base in (cycle(9), path(7))]
    graphs += [weak_product(path(3), hypercube(d)) for d in range(1, 4)]
    for g in graphs:
        for cells in ([range(g.n)], [[0], [g.n - 1], range(1, g.n - 1)] if g.n > 2 else [range(g.n)]):
            p = coarsest_equitable_refinement(g, cells)
            assert set(p.cells) == set(oracle.refine_partition(g.adjacency(), cells)[0]), g


def _recording_proof(monkeypatch):
    proofs = []
    proven = partitions._proven

    def recording(*args, **kwargs):
        try:
            result = proven(*args, **kwargs)
        except NotEquitableError:
            proofs.append(False)
            raise
        proofs.append(True)
        return result

    monkeypatch.setattr(partitions, "_proven", recording)
    return proofs


@pytest.mark.parametrize("merge", ["inside a cell", "across cells"])
def test_a_key_collision_is_refused_and_the_loop_re_keys(monkeypatch, merge):
    keys, attempts = partitions._keys, []

    def colliding(attempt, size):
        attempts.append(attempt)
        table = keys(attempt, size).copy()
        if attempt == 0 and merge == "inside a cell":
            table[0] = 1  # every neighbour cell keyed alike: a signature sees only the degree
        elif attempt == 0:
            table[:] = 0  # every signature 0: the cells of the last round merge
        return table

    monkeypatch.setattr(partitions, "_keys", colliding)
    proofs = _recording_proof(monkeypatch)
    g = path(9)
    cells = [range(9)] if merge == "inside a cell" else [[0], range(1, 9)]
    p = coarsest_equitable_refinement(g, cells)
    assert attempts == [0, 1]
    # the degree split {0, 8}, {1..7} is a fixpoint of the colliding keys,
    # and the proof refuses it; a merge across cells is seen before any proof
    assert proofs == ([False, True] if merge == "inside a cell" else [True])
    want = oracle.refine_partition(g.adjacency(), cells)
    assert p.cells == want[0] and p.degree_counts.tobytes() == want[1].tobytes()


def test_the_capped_refinement_gives_up_past_the_cap():
    g = path(100)  # the ends' refinement is all 100 singletons
    assert partitions._pair_refinement(g, 0, 99, 10) is None
    q8 = hypercube(8)  # the antipodes' refinement is the 9 distance layers
    p = partitions._pair_refinement(q8, 0, 255, 16)
    assert p.size == 9 and p.cells[0] == (0,) and p.cells[1] == (255,)
    assert partitions._pair_refinement(q8, 0, 255, 8) is None
    assert partitions._pair_refinement(q8, 3, 3, 16).cells[0] == (3,)
