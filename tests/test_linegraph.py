import math

import numpy as np
import pytest

import oracle
from lapwalk.graphs import complete, empty, line_graph, make_graph, odd_unicyclic, path
from lapwalk.linegraph import (
    intertwine_check,
    pst_transfer_to_line,
)
from lapwalk.operators import adjacency, incidence, signless_laplacian
from lapwalk.pst import search_pst


def test_intertwine_u2_random_times():
    u2, _ = odd_unicyclic(2)
    rng = np.random.default_rng(31)
    for t in rng.uniform(0, 20, 10):
        devs = intertwine_check(u2, float(t))
        assert max(devs) < 1e-9


def test_intertwine_at_zero():
    u2, _ = odd_unicyclic(2)
    assert max(intertwine_check(u2, 0.0)) < 1e-12


def test_intertwine_on_edgeless_graphs():
    for n in (0, 1, 4):
        assert intertwine_check(empty(n), 0.7) == (0.0, 0.0, 0.0)


def test_intertwine_p5():
    assert line_graph(path(5)) == path(4)
    for t in (0.1, 1.0, math.pi, 10.0):
        assert max(intertwine_check(path(5), t)) < 1e-9


def test_incidence_gram_nonsingularity():
    from lapwalk.corpus import random_connected_graphs

    for g in random_connected_graphs(10, seed=13):
        if oracle.two_coloring(g.n, g.edges)[1] is not None:  # connected and nonbipartite
            b = incidence(g)
            assert np.linalg.eigvalsh(b @ b.T).min() > 1e-10
    rng = np.random.default_rng(29)
    for n in rng.integers(4, 11, 10).tolist():
        # a tree: every vertex after the first hangs from an earlier one
        tree = make_graph(n, [(int(rng.integers(0, v)), v) for v in range(1, n)])
        b = incidence(tree)
        assert np.linalg.eigvalsh(b.T @ b).min() > 1e-10


def test_transfer_vacuous_on_p3():
    rep = pst_transfer_to_line(path(3), 0, 2, 1.2)
    assert not rep.source.certifies()
    assert rep.line is None


def test_transfer_requires_pendant_start():
    with pytest.raises(ValueError):
        pst_transfer_to_line(complete(3), 0, 1, 1.0)
    with pytest.raises(ValueError):
        pst_transfer_to_line(path(2), 0, 1, 1.0)  # single edge degenerates


def test_transfer_rejects_a_target_on_the_same_pendant_edge():
    # both ends of an isolated edge, or u1 itself, are one line-graph vertex;
    # the signless walk certifies both, so the check comes before any walk
    two_k2 = make_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="same pendant edge"):
        pst_transfer_to_line(two_k2, 0, 1, math.pi / 2)
    with pytest.raises(ValueError, match="same pendant edge"):
        pst_transfer_to_line(path(3), 0, 0, 0.0)
    rep = pst_transfer_to_line(two_k2, 0, 2, math.pi / 2)  # a different edge still runs
    assert rep.source.refutes() and rep.line is None


def test_contrapositive_p5():
    # the endpoint-edge pair of P5's line graph is the endpoint pair of P4;
    # neither side gets anywhere near transfer
    line_best = search_pst(adjacency(line_graph(path(5))), (0, 3), 200.0)
    assert line_best.magnitude < 1 - 1e-6
    source_best = search_pst(signless_laplacian(path(5)), (0, 4), 200.0)
    assert source_best.magnitude < 1 - 1e-6


def test_sanity_p2_has_signless_pst():
    # bipartite equivalence: Q(P2) = L(P2) transfers at pi/2 (excluded from
    # the refutation range)
    from lapwalk.pst import verify_pst

    res = verify_pst(signless_laplacian(path(2)), (0, 1), math.pi / 2)
    assert res.certifies()
