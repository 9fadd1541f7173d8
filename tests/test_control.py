import numpy as np
import pytest

import oracle
from lapwalk.control import (
    eigenvector_chase_check,
    exact_rank,
    is_controllable,
    spectral_controllability_count,
    unicyclic_no_pst_pipeline,
    walk_matrix,
)
from lapwalk.corpus import random_connected_graphs
from lapwalk.graphs import (
    complete,
    cone_p4_with_pendant,
    cycle,
    disjoint_union,
    empty,
    line_graph,
    make_graph,
    odd_unicyclic,
    path,
)


def test_walk_matrix_k2():
    w = walk_matrix(complete(2), (0,))
    assert w.rows == ((1, 0), (0, 1))
    assert exact_rank(w) == 2


def test_walk_matrix_columns_recurrence():
    g = cone_p4_with_pendant(2).graph
    w = walk_matrix(g, (1,))
    a = g.adjacency().astype(int)
    cols = np.array(w.rows).T
    for k in range(1, g.n):
        assert np.array_equal(cols[k], a @ cols[k - 1])
        assert cols[k].max() <= g.n * cols[k - 1].max()


def test_walk_matrix_rejects_weighted():
    with pytest.raises(ValueError):
        walk_matrix(make_graph(2, [(0, 1, 2.0)]), (0,))


def test_cone_rank_examples():
    g0 = cone_p4_with_pendant(0)
    assert exact_rank(walk_matrix(g0.graph, (g0.probe,))) == 5
    # vertex 4 of the bare cone is controllable too
    assert is_controllable(g0.graph, (4,))
    g2 = cone_p4_with_pendant(2)
    assert exact_rank(walk_matrix(g2.graph, (g2.probe,))) < 7
    g3 = cone_p4_with_pendant(3)
    assert exact_rank(walk_matrix(g3.graph, (g3.probe,))) == 8


def test_mod3_controllability_law():
    for m in range(12):
        pc = cone_p4_with_pendant(m)
        controllable = is_controllable(pc.graph, (pc.probe,))
        assert controllable == (m % 3 != 2), m


def test_k3_vertex_not_controllable():
    assert not is_controllable(complete(3), (0,))


def test_eigenvector_chase_matches_mod3():
    for m in range(12):
        assert eigenvector_chase_check(m) == (m % 3 == 2), m


def test_exact_rank_matches_spectral_count():
    for g in random_connected_graphs(12, n_max=10, seed=57):
        for u in range(0, g.n, 3):
            r = exact_rank(walk_matrix(g, (u,)))
            assert r == spectral_controllability_count(g, u), (g, u)


def test_exact_rank_invariances():
    g = cone_p4_with_pendant(3).graph
    w = walk_matrix(g, (1,))
    base = exact_rank(w)
    scaled = [[3 * x for x in row] for row in w.rows]
    assert exact_rank(scaled) == base
    perm = list(reversed(range(g.n)))
    gp = g.relabel(perm)
    wp = walk_matrix(gp, (perm[1],))
    assert exact_rank(wp) == base


def test_exact_rank_plain_rows():
    assert exact_rank([[2, 4], [1, 2]]) == 1
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == 3


def test_unicyclic_pipeline_controllable_cases():
    for m in (1, 2, 4, 5):
        rep = unicyclic_no_pst_pipeline(m, t_max=100.0)
        assert rep.verdict == "no-pst"
        assert rep.endpoints_controllable == (True, True)
        assert rep.ranks == (rep.line_order, rep.line_order)
        assert rep.scan.refutes()


def test_unicyclic_pipeline_inconclusive():
    rep = unicyclic_no_pst_pipeline(3, t_max=50.0)
    assert rep.verdict == "inconclusive"
    # the pendant-path chase fails here: ranks fall short of full
    assert not all(rep.endpoints_controllable)
    with pytest.raises(ValueError):
        unicyclic_no_pst_pipeline(0)


def test_walk_matrices_and_ranks_match_the_loop_reference():
    rng = np.random.default_rng(20240702)
    graphs = [empty(0), empty(1), empty(5), path(9), disjoint_union(cycle(5), path(4))]
    graphs += [line_graph(odd_unicyclic(m).graph).graph for m in (3, 4)]
    graphs += [make_graph(n, edges) for n, edges in oracle.random_edge_lists(rng, 120)]
    deficient = 0
    for g in graphs:
        subsets = [(u,) for u in range(g.n)]
        if g.n:
            size = int(rng.integers(1, g.n + 1))
            subsets.append(tuple(rng.choice(g.n, size=size, replace=False)))
        for subset in subsets:
            w = walk_matrix(g, subset)
            want = oracle.walk_matrix_rows(g.n, g.edges, subset)
            assert w.rows == want and w.subset == tuple(sorted(map(int, subset))), (g, subset)
            assert all(type(x) is int for row in w.rows for x in row)
            rank = exact_rank(w)
            assert rank == oracle.exact_rank(want), (g, subset)
            deficient += rank < g.n
    assert deficient and walk_matrix(empty(0), ()).rows == ()


def test_exact_rank_of_int64_matrices_matches_the_loop_reference():
    # entries near 2^62: every product in the elimination overflows int64
    rng = np.random.default_rng(62)
    ranks = set()
    for _ in range(150):
        rows, cols = (int(k) for k in rng.integers(0, 8, size=2))
        signs = rng.choice([-1, 1], size=(rows, cols))
        a = signs * rng.integers(2**62 - 2**20, 2**62, size=(rows, cols))
        if rows > 1 and rng.random() < 0.5:
            a[rng.integers(rows)] = a[rng.integers(rows)]
        if cols > 1 and rng.random() < 0.3:
            a[:, rng.integers(cols)] = 0
        want = oracle.exact_rank(a)
        assert exact_rank(a) == want == exact_rank(a.tolist()), a
        assert exact_rank([list(row) for row in a]) == want, a  # rows of np.int64 scalars
        ranks.add((want, min(rows, cols)))
    assert any(r < full for r, full in ranks) and any(0 < r == full for r, full in ranks)
