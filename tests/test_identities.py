"""The exact closure identities: each holds on the named gallery and on seeded
random graphs, fails and names itself on an input one edge off, and its walk
consequence matches the series oracle, which shares no code with the
spectral engine."""

import cmath
import math

import numpy as np
import pytest

from oracle import incidence, walk_oracle

from lapwalk.corpus import named_small_graphs, random_connected_graphs
from lapwalk.graphs import (
    Graph,
    complement,
    complete,
    cycle,
    hypercube,
    line_graph,
    make_graph,
    path,
    weak_product,
)
from lapwalk.linegraph import line_identity
from lapwalk.operators import operator
from lapwalk.pst import (
    IdentityReport,
    _path_cycle_identities,
    complement_identity,
    path_cycle_correspondence,
    weak_product_identity,
)

COMPLEMENT = "A(G) + A(H) = J - I"
LINE_MEET = "edges of L(G) meet in G"
LINE_COUNT = "|E(L(G))| = sum_v C(d_v, 2)"
PRODUCT = "A(G x H) = A(G) (x) A(H)"
PATH_COUNTS = "diag(deg P_n) B = 2 A(P_n)"
WALK_TOL = 1e-9
TIMES = (0.37, 1.9, 2 * math.pi / 3, 7.5)  # the walk consequences hold at every t

CORPUS = [g for _, g in named_small_graphs()] + random_connected_graphs(20, seed=2718)
PAIRS = [(CORPUS[i], CORPUS[(i + 7) % len(CORPUS)]) for i in range(0, len(CORPUS), 3)]


def _without(g: Graph, index: int) -> Graph:
    """g with edge ``index`` (in ``g.edges`` order) removed."""
    return make_graph(g.n, g.edges[:index] + g.edges[index + 1 :])


def _matrix(g: Graph, kind: str) -> np.ndarray:
    return operator(g, kind).matrix


def test_the_record_names_what_it_checked_and_what_failed():
    assert IdentityReport(("a", "b")).holds and str(IdentityReport(("a", "b"))) == "holds: a; b"
    failed = IdentityReport(("a",), "a")
    assert not failed.holds and str(failed) == "fails: a"


# -- complement -----------------------------------------------------------------


def test_complement_identity_holds_on_the_corpus():
    for g in CORPUS:
        rep = complement_identity(g, complement(g))
        assert rep == IdentityReport((COMPLEMENT,))


def test_complement_identity_fails_one_edge_off():
    rng = np.random.default_rng(5)
    for g in CORPUS:
        h = complement(g)
        u, v = g.edges[rng.integers(g.edge_count)]  # already an edge of g
        more = make_graph(g.n, h.edges + ((u, v),))
        assert complement_identity(g, more) == IdentityReport((COMPLEMENT,), COMPLEMENT)
        if h.edge_count:  # K_n's complement has no edge to drop or swap
            assert not complement_identity(g, _without(h, int(rng.integers(h.edge_count)))).holds
            # a swap keeps the count but repeats an edge of g
            swapped = make_graph(g.n, h.edges[1:] + ((u, v),))
            assert not complement_identity(g, swapped).holds
    assert not complement_identity(path(3), complement(path(4))).holds
    assert complement_identity(path(1), complement(path(1))).holds  # n = 1: no pairs at all


def test_complement_walk_is_the_conjugate_walk_plus_a_rank_one_term():
    # U_H(t) = e^{-int} conj U_G(t) + (1 - e^{-int}) J / n
    for g in CORPUS[::2]:
        n = g.n
        l_g, l_h = _matrix(g, "standard"), _matrix(complement(g), "standard")
        for t in TIMES + (2 * math.pi / n,):
            phase = cmath.exp(-1j * n * t)
            expected = phase * walk_oracle(l_g, t).conjugate() + (1 - phase) * np.ones((n, n)) / n
            assert np.abs(walk_oracle(l_h, t) - expected).max() < WALK_TOL


# -- line graph ------------------------------------------------------------------


def test_line_identity_holds_on_the_corpus():
    for g in CORPUS:
        assert line_identity(g, line_graph(g)) == IdentityReport((LINE_MEET, LINE_COUNT))


def test_line_identity_fails_one_edge_off():
    rng = np.random.default_rng(6)
    for g in CORPUS:
        line = line_graph(g)
        if not line.edge_count:  # P2 and 2K2: no two edges meet
            continue
        dropped = _without(line, int(rng.integers(line.edge_count)))
        assert line_identity(g, dropped) == IdentityReport((LINE_MEET, LINE_COUNT), LINE_COUNT)
    # an edge between two source edges that do not meet, in place of one
    # that does, keeps the count: P4's end edges 0 and 2 share no vertex
    swapped = make_graph(3, [(0, 2), (1, 2)])
    assert line_identity(path(4), swapped) == IdentityReport((LINE_MEET,), LINE_MEET)
    assert not line_identity(path(4), path(4)).holds  # one vertex per edge, not per vertex


def test_line_graph_intertwines_the_signless_walk():
    # with the normalized incidence B: B^T U_Q = e^{-2it} U_A B^T, U_Q B =
    # e^{-2it} B U_A and B^T U_Q B = e^{-2it} U_A B^T B
    for g in CORPUS[::2]:
        b = incidence(g.n, g.edges)
        q, a = _matrix(g, "signless"), _matrix(line_graph(g), "adjacency")
        for t in TIMES:
            u_q, u_a, phase = walk_oracle(q, t), walk_oracle(a, t), cmath.exp(-2j * t)
            assert np.abs(b.T @ u_q - phase * u_a @ b.T).max() < WALK_TOL
            assert np.abs(u_q @ b - phase * b @ u_a).max() < WALK_TOL
            assert np.abs(b.T @ u_q @ b - phase * u_a @ b.T @ b).max() < WALK_TOL


# -- weak product ----------------------------------------------------------------


def test_weak_product_identity_holds_on_the_corpus():
    for g, h in PAIRS + [(path(3), complete(4)), (path(4), complete(3)), (path(3), hypercube(3))]:
        assert weak_product_identity(g, h, weak_product(g, h)) == IdentityReport((PRODUCT,))


def test_weak_product_identity_fails_one_arc_off():
    rng = np.random.default_rng(7)
    for g, h in PAIRS:
        prod = weak_product(g, h)
        dropped = _without(prod, int(rng.integers(prod.edge_count)))
        assert weak_product_identity(g, h, dropped) == IdentityReport((PRODUCT,), PRODUCT)
    # the same count of edges on other pairs: the factors swapped
    g, h = path(3), complete(4)
    assert not weak_product_identity(g, h, weak_product(h, g)).holds
    # and a product of another order
    assert not weak_product_identity(g, h, weak_product(path(4), h)).holds


def test_weak_product_walk_factors_over_the_first_spectrum():
    # N(GxH) = N_G (x) I + I (x) N_H - N_G (x) N_H, so with N_G = sum_k
    # l_k v_k v_k^T the walk is sum_k e^{-it l_k} v_k v_k^T (x) e^{-it(1 - l_k) N_H}
    for g, h in PAIRS[::2]:
        n_g, n_h = _matrix(g, "normalized"), _matrix(h, "normalized")
        n_p = _matrix(weak_product(g, h), "normalized")
        composed = np.kron(n_g, np.eye(h.n)) + np.kron(np.eye(g.n), n_h) - np.kron(n_g, n_h)
        assert np.abs(n_p - composed).max() < 1e-12
        values, vectors = np.linalg.eigh(n_g)
        for t in TIMES[:2]:
            factored = sum(
                cmath.exp(-1j * t * lam) * np.kron(np.outer(v, v), walk_oracle((1 - lam) * n_h, t))
                for lam, v in zip(values, vectors.T)
            )
            assert np.abs(walk_oracle(n_p, t) - factored).max() < WALK_TOL


# -- path / even cycle -------------------------------------------------------------


def _folding(m: int) -> list[tuple[int, ...]]:
    return [(0,)] + [(k, 2 * m - k) for k in range(1, m)] + [(m,)]


def test_path_cycle_identities_fail_with_a_vertex_moved_between_cells():
    for n in range(3, 12):
        m = n - 1
        folding = f"folding partition of C_{2 * m} is equitable"
        cells = _folding(m)
        assert _path_cycle_identities(n, cells) == path_cycle_correspondence(n)
        # vertex 2m - 1 leaves {1, 2m - 1} for the next cell down the fold
        moved = [tuple(c for c in cell if c != 2 * m - 1) for cell in cells]
        moved[2] = tuple(sorted(moved[2] + (2 * m - 1,)))
        assert _path_cycle_identities(n, moved) == IdentityReport((folding,), folding)
    # an equitable partition whose counts are not the path's: the orbits of
    # C_6's half turn pass the first identity and fail the second
    rep = _path_cycle_identities(4, [(0, 3), (1, 4), (2, 5)])
    assert rep == IdentityReport(("folding partition of C_6 is equitable", PATH_COUNTS), PATH_COUNTS)


def test_path_walk_is_the_dilated_cycle_walk():
    # e^{-itN(P_n)}[n - 1, 0] = e^{-it} conj(e^{-i(t/2)A(C_2m)}[m, 0])
    for n in range(2, 10):
        m = n - 1
        a_cycle = cycle(2 * m).adjacency() if m > 1 else np.array([[0.0, 2.0], [2.0, 0.0]])
        n_path = _matrix(path(n), "normalized")
        for t in TIMES:
            lhs = walk_oracle(n_path, t)[n - 1, 0]
            rhs = cmath.exp(-1j * t) * walk_oracle(a_cycle, t / 2)[m, 0].conjugate()
            assert abs(lhs - rhs) < WALK_TOL


@pytest.mark.parametrize("n", [1, 0])
def test_path_cycle_needs_two_vertices(n):
    with pytest.raises(ValueError, match="at least two vertices"):
        path_cycle_correspondence(n)
