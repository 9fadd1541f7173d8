import math

import numpy as np
import pytest

import oracle
from lapwalk.corpus import named_small_graphs, random_connected_graphs
from lapwalk.graphs import (
    complete,
    cycle,
    disjoint_union,
    hypercube,
    make_graph,
    odd_unicyclic,
    path,
)
from lapwalk.operators import (
    Hamiltonian,
    OperatorKind,
    adjacency,
    incidence,
    normalized_laplacian,
    signless_laplacian,
    standard_laplacian,
)


def weighted_p3(alpha: float) -> Hamiltonian:
    return Hamiltonian(OperatorKind.CUSTOM, oracle.weighted_p3(alpha))


def bipartite_signs(g) -> np.ndarray:
    """+1 and -1 on the two colour classes of a bipartite graph."""
    color, clash = oracle.two_coloring(g.n, g.edges)
    assert clash is None, g
    return np.where(color == 0, 1.0, -1.0)


def test_standard_laplacian_k2():
    assert np.array_equal(standard_laplacian(complete(2)).matrix, [[1, -1], [-1, 1]])


def test_normalized_p3():
    p3 = path(3)
    norm = normalized_laplacian(p3).matrix
    assert np.allclose(norm, np.eye(3) - p3.adjacency() / math.sqrt(2), atol=1e-15)
    assert np.allclose(np.linalg.eigvalsh(norm), [0, 1, 2], atol=1e-12)


def test_normalized_spectrum_k4():
    vals = np.linalg.eigvalsh(normalized_laplacian(complete(4)).matrix)
    assert np.allclose(vals, [0, 4 / 3, 4 / 3, 4 / 3], atol=1e-12)


def test_normalized_rejects_isolated():
    with pytest.raises(ValueError):
        normalized_laplacian(make_graph(2))


def test_weighted_p3():
    assert np.array_equal(weighted_p3(0.0).matrix, path(3).adjacency())
    for alpha in (2.0, -1.5, 0.3):
        half = alpha / 2
        delta = math.sqrt(half**2 + 2)
        vals = np.linalg.eigvalsh(weighted_p3(alpha).matrix)
        assert np.allclose(sorted(vals), sorted([0, half - delta, half + delta]), atol=1e-12)
    # alpha = (n-2)/sqrt(n) at n=4 is exactly 1
    assert (4 - 2) / math.sqrt(4) == 1.0
    with pytest.raises(ValueError):
        weighted_p3(float("nan"))


def test_incidence_identities():
    u2, _ = odd_unicyclic(2)
    b = incidence(u2)
    assert np.abs(b @ b.T - signless_laplacian(u2).matrix / 2).max() < 1e-12
    from lapwalk.graphs import line_graph

    p5 = path(5)
    b5 = incidence(p5)
    lg = line_graph(p5)
    assert np.abs(b5.T @ b5 - (lg.adjacency() / 2 + np.eye(4))).max() < 1e-12
    bk2 = incidence(complete(2))
    assert np.allclose(bk2, [[1 / math.sqrt(2)], [1 / math.sqrt(2)]])


def test_incidence_identities_random_corpus():
    from lapwalk.graphs import line_graph

    for g in random_connected_graphs(20, n_max=10, seed=3):
        b = incidence(g)
        assert np.abs(b @ b.T - signless_laplacian(g).matrix / 2).max() < 1e-12
        lg = line_graph(g)
        assert np.abs(b.T @ b - (lg.adjacency() / 2 + np.eye(g.edge_count))).max() < 1e-12
        # column norms are exactly 1 up to roundoff
        assert np.allclose((b**2).sum(axis=0), 1.0, atol=1e-15)


def test_bipartite_signing_path():
    for g in (path(4), cycle(6), hypercube(3)):
        d = np.diag(bipartite_signs(g))
        a = g.adjacency()
        assert np.array_equal(d @ a @ d, -a)


def test_bipartite_signing_q3_conjugates_laplacians():
    q3 = hypercube(3)
    d = np.diag(bipartite_signs(q3))
    lap = standard_laplacian(q3).matrix
    assert np.abs(d @ lap @ d - signless_laplacian(q3).matrix).max() < 1e-12


def test_laplacian_invariants_on_gallery():
    for label, g in named_small_graphs():
        lap = standard_laplacian(g).matrix
        assert np.abs(lap @ np.ones(g.n)).max() < 1e-12, label
        assert np.linalg.eigvalsh(signless_laplacian(g).matrix).min() > -1e-10, label
        if g.degrees().min() >= 1:
            assert np.linalg.eigvalsh(normalized_laplacian(g).matrix).min() > -1e-10, label


def test_regular_graph_operator_identities():
    for g, k in [(cycle(5), 2), (complete(4), 3), (hypercube(3), 3)]:
        a = g.adjacency()
        assert np.array_equal(standard_laplacian(g).matrix, k * np.eye(g.n) - a)
        assert np.array_equal(signless_laplacian(g).matrix, k * np.eye(g.n) + a)
        assert np.abs(normalized_laplacian(g).matrix - (np.eye(g.n) - a / k)).max() < 1e-15


def test_bipartite_l_q_isospectral():
    for g in (path(5), hypercube(3), cycle(6), disjoint_union(path(2), path(3))):
        lv = np.linalg.eigvalsh(standard_laplacian(g).matrix)
        qv = np.linalg.eigvalsh(signless_laplacian(g).matrix)
        assert np.abs(lv - qv).max() < 1e-10


def test_exact_symmetry():
    for label, g in named_small_graphs():
        for build in (adjacency, standard_laplacian, signless_laplacian):
            m = build(g).matrix
            assert (m == m.T).all(), label
        if g.degrees().min() >= 1:
            m = normalized_laplacian(g).matrix
            assert (m == m.T).all(), label


def test_non_finite_matrix_is_not_called_asymmetric():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            Hamiltonian(OperatorKind.CUSTOM, [[bad, 0.0], [0.0, 0.0]])


def test_kind_parsing():
    assert OperatorKind.from_name("laplacian") == OperatorKind.STANDARD
    assert OperatorKind.from_name("Signless") == OperatorKind.SIGNLESS
    with pytest.raises(ValueError):
        OperatorKind.from_name("mystery")


def test_incidence_matches_the_loop_reference():
    rng = np.random.default_rng(20240704)
    for n, edges in [(0, [])] + oracle.random_edge_lists(rng, 60):
        g = make_graph(n, edges)
        b = incidence(g)
        want = oracle.incidence(g.n, g.edges)
        assert b.shape == want.shape and b.tobytes() == want.tobytes()


def test_a_graph_operator_builds_its_matrix_on_first_read():
    g = path(5)
    h = standard_laplacian(g)
    assert h.graph is g and h.n == 5 and "matrix" not in vars(h)
    m = h.matrix
    assert m is h.matrix and not m.flags.writeable
    assert np.array_equal(m, np.diag(g.degrees()) - g.adjacency())
    # a CUSTOM Hamiltonian is its matrix, checked at construction; a graph
    # kind is its graph; neither takes the other's source, and none changes
    custom = Hamiltonian(OperatorKind.CUSTOM, m)
    assert custom.graph is None and custom.n == 5 and custom.matrix is not m
    with pytest.raises(ValueError, match="takes a graph and no matrix"):
        Hamiltonian(OperatorKind.STANDARD, m)
    with pytest.raises(ValueError, match="takes a matrix and no graph"):
        Hamiltonian(OperatorKind.CUSTOM, m, g)
    with pytest.raises(AttributeError):
        h.kind = OperatorKind.ADJACENCY
