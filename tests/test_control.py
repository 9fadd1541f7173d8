import re
from itertools import chain, islice

import numpy as np
import pytest

import oracle
from lapwalk import control
from lapwalk.control import (
    WalkMatrix,
    exact_rank,
    unicyclic_no_pst_pipeline,
    walk_matrix,
)
from lapwalk.corpus import named_small_graphs, random_connected_graphs
from lapwalk.graphs import (
    complete,
    cone_p4_with_pendant,
    cycle,
    disjoint_union,
    empty,
    hypercube,
    line_graph,
    make_graph,
    odd_unicyclic,
    path,
)
from lapwalk.linegraph import _pendant_edge_index


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


def test_only_walk_matrix_builds_a_walk_matrix():
    # exact_rank's upper bound holds only on Krylov columns
    with pytest.raises(TypeError):
        WalkMatrix(((1, 0), (0, 0)), (0,))
    assert exact_rank(walk_matrix(path(2), (0,))) == 2


def test_walk_matrix_subsets_are_never_truncated():
    for subset, named in [([0.5], "got 0.5"), ([True], "got True"), ((0, "1"), "got '1'")]:
        with pytest.raises(ValueError, match=re.escape(named)):
            walk_matrix(path(3), subset)
    assert walk_matrix(path(3), [np.int64(2), np.int32(0), 2]).subset == (0, 2)


def test_cone_rank_examples():
    g0 = cone_p4_with_pendant(0)
    assert exact_rank(walk_matrix(g0.graph, (g0.probe,))) == 5
    # vertex 4 of the bare cone is controllable too
    assert exact_rank(walk_matrix(g0.graph, (4,))) == g0.graph.n
    g2 = cone_p4_with_pendant(2)
    assert exact_rank(walk_matrix(g2.graph, (g2.probe,))) < 7
    g3 = cone_p4_with_pendant(3)
    assert exact_rank(walk_matrix(g3.graph, (g3.probe,))) == 8


def test_mod3_controllability_law():
    for m in range(41):
        pc = cone_p4_with_pendant(m)
        controllable = exact_rank(walk_matrix(pc.graph, (pc.probe,))) == pc.graph.n
        assert controllable == (m % 3 != 2), m


def test_k3_vertex_not_controllable():
    assert exact_rank(walk_matrix(complete(3), (0,))) < 3


def test_exact_rank_matches_spectral_count():
    for g in random_connected_graphs(12, n_max=10, seed=57):
        for u in range(0, g.n, 3):
            r = exact_rank(walk_matrix(g, (u,)))
            assert r == oracle.float_controllability_count(g.adjacency(), u), (g, u)


def test_exact_rank_matches_sympy_where_the_float_count_misses():
    # at vertex 23 the smallest true weight E[u, u] is about 2e-17, below the
    # float count's 1e-16: it reads 23 where the rank is 24
    sympy = pytest.importorskip("sympy")
    g = cone_p4_with_pendant(19).graph
    ranks = [exact_rank(walk_matrix(g, (u,))) for u in range(g.n)]
    assert ranks == [sympy.Matrix(walk_matrix(g, (u,)).rows).rank() for u in range(g.n)]
    assert ranks[23] == g.n == 24
    assert oracle.float_controllability_count(g.adjacency(), 23) == 23


def test_exact_rank_invariances():
    g = cone_p4_with_pendant(3).graph
    w = walk_matrix(g, (1,))
    base = exact_rank(w)
    perm = list(reversed(range(g.n)))
    gp = make_graph(g.n, np.array(perm)[g.ends])
    wp = walk_matrix(gp, (perm[1],))
    assert exact_rank(wp) == base


def test_unicyclic_pipeline_controllable_cases():
    for m in (1, 2, 4, 5):
        rep = unicyclic_no_pst_pipeline(m)
        assert rep.verdict == "no-pst"
        assert rep.ranks == (rep.line_order, rep.line_order)
        assert rep.scan.refutes()


def test_unicyclic_pipeline_inconclusive():
    rep = unicyclic_no_pst_pipeline(3)
    assert rep.verdict == "inconclusive"
    # the pendant-path chase fails here: ranks fall short of full
    assert any(r != rep.line_order for r in rep.ranks)
    with pytest.raises(ValueError):
        unicyclic_no_pst_pipeline(0)


def _loop_reference_sweep() -> None:
    rng = np.random.default_rng(20240702)
    graphs = [empty(0), empty(1), empty(5), path(9), disjoint_union(cycle(5), path(4))]
    graphs += [line_graph(odd_unicyclic(m).graph) for m in (3, 4)]
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


def test_walk_matrices_and_ranks_match_the_loop_reference():
    _loop_reference_sweep()


def test_unlucky_primes_first_leave_every_walk_rank_unchanged(monkeypatch):
    # 2, 3, 5, 7 and 11 divide many Hankel determinants: their Berlekamp-Massey
    # complexity falls short of the rank and their relation is not the integer one
    primes = control._primes
    monkeypatch.setattr(control, "_primes", lambda: chain([2, 3, 5, 7, 11], primes()))
    lengths = []
    bm = control._berlekamp_massey

    def recording_bm(s, p):
        length, connection = bm(s, p)
        lengths.append((p, length))
        return length, connection

    monkeypatch.setattr(control, "_berlekamp_massey", recording_bm)
    assert exact_rank(walk_matrix(complete(3), (0,))) == 2
    assert lengths[:3] == [(2, 1), (3, 2), (5, 2)]  # mod 2, s = 1, 0, 2, 2, 6 looks like 1, 0, 0, 0, 0
    _loop_reference_sweep()


def _start(w: WalkMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The engine's arguments for a walk matrix: the graph's arcs and e_S."""
    x = np.zeros(w.n, dtype=np.int64)
    x[list(w.subset)] = 1
    return w._graph._arcs, x


def _key(arcs: np.ndarray, x: np.ndarray) -> tuple[bytes, bytes]:
    return arcs.tobytes(), x.tobytes()


def _counting(monkeypatch) -> dict:
    """Count the primes (Berlekamp-Massey runs) and the Horner checks, in
    all and per walk matrix (keyed by ``_key`` of its arcs and e_S)."""
    counts = {}
    bm, annihilates = control._berlekamp_massey, control._annihilates

    def counted_bm(s, p):
        counts["primes"] = counts.get("primes", 0) + 1
        return bm(s, p)

    def counted_annihilates(arcs, x, relation):
        counts["horner"] = counts.get("horner", 0) + 1
        counts[_key(arcs, x)] = counts.get(_key(arcs, x), 0) + 1
        return annihilates(arcs, x, relation)

    monkeypatch.setattr(control, "_berlekamp_massey", counted_bm)
    monkeypatch.setattr(control, "_annihilates", counted_annihilates)
    return counts


def test_a_failed_horner_check_sends_the_loop_on_to_the_next_prime(monkeypatch):
    # with no headroom asked for, every prime's lift is checked, wrapped or not
    monkeypatch.setattr(control, "_HEADROOM", -(2**64))
    counts = _counting(monkeypatch)
    _loop_reference_sweep()
    checks = [c for w, c in counts.items() if isinstance(w, tuple)]
    assert max(checks) > 1  # a false relation was refuted, and the rank still came out exact


def test_the_headroom_gate_proves_m81_after_six_primes_and_one_horner_check(monkeypatch):
    # a rank-deficient walk matrix whose coefficients need six 21-bit primes:
    # without the headroom gate a seventh only confirmed that the lift repeats
    u_graph, ends = odd_unicyclic(81)
    w = walk_matrix(line_graph(u_graph), (_pendant_edge_index(u_graph, ends[0]),))
    counts = _counting(monkeypatch)
    relation = control._krylov_relation(*_start(w))
    assert len(relation) == 164 == w.n - 1
    longest = max(map(abs, relation)).bit_length()
    assert 5 * 21 < longest + control._HEADROOM <= 6 * 21
    assert (counts["primes"], counts["horner"]) == (6, 1)


def test_an_empty_subset_is_proven_after_one_prime(monkeypatch):
    counts = _counting(monkeypatch)
    assert control._krylov_relation(*_start(walk_matrix(empty(3), ()))) == ()
    assert (counts["primes"], counts["horner"]) == (1, 1)


def test_the_arc_matvec_matches_an_edge_list_reference():
    rng = np.random.default_rng(25)
    graphs = [empty(0), empty(4), path(1), disjoint_union(cycle(5), empty(3)), disjoint_union(empty(2), path(3))]
    graphs += [make_graph(7, [(1, 2), (2, 5), (1, 5)]), line_graph(odd_unicyclic(4).graph)]
    graphs += [make_graph(n, edges) for n, edges in oracle.random_edge_lists(rng, 30)]
    for g in graphs:
        arcs = g._arcs
        assert arcs.shape == (2, 2 * g.edge_count) and not arcs.flags.writeable
        assert arcs is g._arcs  # built once per graph
        # both directions of every edge, each once
        assert sorted(zip(*arcs.tolist())) == sorted(chain.from_iterable(((u, v), (v, u)) for u, v in g.edges))
        neighbors = oracle.neighbor_lists(g.n, g.edges)
        for x in (
            rng.integers(0, 2**31, g.n),
            np.array([int(v) << 100 for v in rng.integers(-(2**40), 2**40, g.n)], dtype=object),
        ):
            want = [sum(int(x[u]) for u in neighbors[v]) for v in range(g.n)]
            got = control._adjacency_times(arcs, x)
            assert got.dtype == x.dtype and got.tolist() == want, g
            assert all(type(v) is int for v in got.tolist())


def test_primes_descend_from_rank_prime_and_are_prime():
    sympy = pytest.importorskip("sympy")
    first = list(islice(control._primes(), 64))
    assert all(q < 2**21 for q in first) and all(a > b for a, b in zip(first, first[1:]))
    assert all(sympy.isprime(q) for q in first)
    want = [sympy.prevprime(control.RANK_PRIME + 1)]
    while len(want) < 64:
        want.append(sympy.prevprime(want[-1]))
    assert first == want  # no prime skipped
    assert [q for q in range(3000) if control._is_prime(q)] == list(sympy.primerange(3000))


def test_krylov_relation_divides_the_characteristic_polynomial():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    cases = [(complete(3), (0,)), (cycle(6), (0,)), (cycle(6), (0, 3)), (hypercube(3), (0,)), (path(9), (4,))]
    cases += [(empty(4), ()), (disjoint_union(cycle(5), path(4)), (0, 6))]
    cases += [(pc.graph, (pc.probe,)) for pc in map(cone_p4_with_pendant, range(0, 12, 2))]
    cases += [(line_graph(odd_unicyclic(m).graph), (0,)) for m in (3, 6, 9)]
    cases += [(g, (u,)) for g in random_connected_graphs(8, n_max=12, seed=13) for u in (0, g.n - 1)]
    deficient = 0
    for g, subset in cases:
        assert g.n <= 25
        w = walk_matrix(g, subset)
        relation = control._krylov_relation(*_start(w))
        rank = g.n if relation is None else len(relation)
        assert rank == sympy.Matrix(w.rows).rank() == exact_rank(w), (g, subset)
        if relation is not None:
            deficient += 1
            mu = x**rank - sum(a * x**i for i, a in enumerate(relation))
            charpoly = sympy.Matrix(g.adjacency().astype(int).tolist()).charpoly(x).as_expr()
            assert sympy.rem(charpoly, mu, x) == 0, (g, subset, mu)
    assert deficient >= 10


def _sympy_relative_minimal_polynomial(sympy, a, x) -> tuple[int, ...] | None:
    """a_0 ... a_{d-1} with A^d x = sum_i a_i A^i x, d the degree of the
    minimal polynomial of A relative to x, read off the Krylov columns by
    sympy; None when d = n."""
    n = len(x)
    columns = [sympy.Matrix(x)]
    for _ in range(n):
        columns.append(a * columns[-1])
    krylov = sympy.Matrix.hstack(*columns)
    degree = krylov[:, :n].rank()
    if degree == n:
        return None
    (kernel,) = krylov[:, : degree + 1].nullspace()
    return tuple(int(-c / kernel[degree]) for c in kernel[:degree])


def test_krylov_relation_is_sympys_relative_minimal_polynomial():
    sympy = pytest.importorskip("sympy")
    graphs = [g for _, g in named_small_graphs()] + random_connected_graphs(8, n_max=9, seed=3)
    seen = set()
    for g in graphs:
        a = sympy.Matrix(g.adjacency().astype(int).tolist())
        e = np.eye(g.n, dtype=np.int64)
        for u, v in {(0, g.n - 1), (0, 1), (g.n // 2, g.n - 1)}:  # on P2, u = v once: 2 e_u and 0
            for x in (e[u], e[u] + e[v], e[u] - e[v]):
                want = _sympy_relative_minimal_polynomial(sympy, a, x.tolist())
                assert control._krylov_relation(g._arcs, x) == want, (g, u, v, x)
                seen.add(want is None)
    assert seen == {True, False}  # full and deficient degrees both occur


def test_pipeline_and_deficient_walk_ranks_match_the_loop_reference():
    rep = unicyclic_no_pst_pipeline(10)  # both pendant edges of the line graph
    assert rep.ranks == (rep.line_order, rep.line_order) == (23, 23)
    cases = [(complete(3), (0,)), (empty(0), ()), (empty(3), ()), (path(4), ())]
    for m in (3, 6):  # rank deficient at both pendant edges
        u_graph, ends = odd_unicyclic(m)
        cases += [(line_graph(u_graph), (_pendant_edge_index(u_graph, end),)) for end in ends]
    pc = cone_p4_with_pendant(2)
    cases.append((pc.graph, (pc.probe,)))
    ranks = []
    for g, subset in cases:
        w = walk_matrix(g, subset)
        ranks.append(exact_rank(w))
        assert ranks[-1] == oracle.exact_rank(w.rows), (g, subset)
    assert ranks == [2, 0, 0, 0, 8, 8, 14, 14, 6]


def test_exact_rank_takes_only_walk_matrices():
    # the Krylov upper bound is a proof only on walk-matrix columns
    for rows in ([[1]], np.eye(2, dtype=int)):
        with pytest.raises(TypeError, match="WalkMatrix"):
            exact_rank(rows)


def test_exact_rank_refuses_two_to_the_21_vertices_before_any_matvec(monkeypatch):
    # beyond it an int64 dot product of residues below 2^21 could wrap
    def no_matvec(arcs, x):
        raise AssertionError("a matvec ran")

    monkeypatch.setattr(control, "_adjacency_times", no_matvec)
    with pytest.raises(ValueError, match="fewer than 2\\^21 vertices, got 2097152"):
        exact_rank(walk_matrix(empty(2**21), (0,)))
    # one vertex fewer is accepted: a first prime of full length settles it
    monkeypatch.setattr(control, "_prime_runs", lambda arcs, x: iter([(control.RANK_PRIME, len(x), None)]))
    assert exact_rank(walk_matrix(empty(2**21 - 1), (0,))) == 2**21 - 1


def _recurrent(rng, p: int, length: int) -> list[int]:
    """A sequence mod p obeying a random recurrence of order at most 8."""
    order = int(rng.integers(0, 9))
    taps = [int(x) for x in rng.integers(0, p, order)]
    s = [int(x) for x in rng.integers(0, p, order)]
    while len(s) < length:
        s.append(sum(a * x for a, x in zip(taps, s[::-1])) % p)
    return s[:length]


def test_berlekamp_massey_matches_the_plain_int_oracle():
    rng = np.random.default_rng(20261019)
    for p in (2, 3, 5, 7, control.RANK_PRIME):
        for length in range(61):
            draws = [
                [int(x) for x in rng.integers(0, p, length)],
                _recurrent(rng, p, length),
                [int(x) * int(rng.random() < 0.15) for x in rng.integers(0, p, length)],  # mostly zeros
            ]
            for s in draws:
                got_length, connection = control._berlekamp_massey(np.array(s, dtype=np.int64), p)
                want_length, want = oracle.berlekamp_massey(s, p)
                assert (got_length, connection.tolist()) == (want_length, want), (p, s)
                assert all(
                    sum(c * s[k - i] for i, c in enumerate(want)) % p == 0 for k in range(want_length, length)
                )


def test_walk_residues_are_the_walk_moments_mod_p():
    rng = np.random.default_rng(8)
    graphs = [empty(0), empty(4), disjoint_union(cycle(5), empty(3)), line_graph(odd_unicyclic(4).graph)]
    graphs += [make_graph(n, edges) for n, edges in oracle.random_edge_lists(rng, 40)]
    for g in graphs:
        subsets = [(), (0,)] if g.n else [()]
        if g.n:
            subsets.append(tuple(int(v) for v in rng.choice(g.n, size=int(rng.integers(1, g.n + 1)), replace=False)))
        for subset in subsets:
            columns = list(zip(*oracle.walk_matrix_rows(g.n, g.edges, subset)))
            # s_k = c_i . c_(k-i) for any split of k into powers below n, A being symmetric
            splits = [(min(k, g.n - 1), k - min(k, g.n - 1)) for k in range(2 * g.n - 1)]
            moments = [sum(map(int.__mul__, columns[i], columns[j])) for i, j in splits]
            for p in (2, 7, control.RANK_PRIME):
                s = control._walk_residues(*_start(walk_matrix(g, subset)), p)
                assert s.dtype == np.int64 and s.tolist() == [x % p for x in moments], (g, subset, p)


def test_exact_rank_builds_no_walk_matrix():
    cases = [(complete(3), (0,)), (path(9), (4,)), (empty(0), ()), (cone_p4_with_pendant(2).graph, (0, 5))]
    u_graph, ends = odd_unicyclic(6)
    cases.append((line_graph(u_graph), (_pendant_edge_index(u_graph, ends[0]),)))
    for g, subset in cases:
        w = walk_matrix(g, subset)
        rank = exact_rank(w)
        assert "rows" not in vars(w), (g, subset)
        assert w.rows == oracle.walk_matrix_rows(g.n, g.edges, subset) and "rows" in vars(w)
        assert rank == oracle.exact_rank(w.rows)


def test_no_rank_path_reads_the_walk_rows(monkeypatch, capsys):
    def unread(w):
        raise AssertionError("WalkMatrix.rows was read")

    monkeypatch.setattr(WalkMatrix, "rows", property(unread))
    pc = cone_p4_with_pendant(2)
    assert exact_rank(walk_matrix(pc.graph, (pc.probe,))) == 6
    assert exact_rank(walk_matrix(path(5), (0,))) == 5 and exact_rank(walk_matrix(complete(3), (1,))) < 3
    assert unicyclic_no_pst_pipeline(3).ranks == (8, 8)


def test_the_horner_check_rejects_every_near_miss_relation():
    sympy = pytest.importorskip("sympy")
    cases = [(complete(3), (0,)), (cycle(6), (0, 3)), (hypercube(3), (0,))]
    pc = cone_p4_with_pendant(2)
    cases.append((pc.graph, (pc.probe,)))
    u_graph, ends = odd_unicyclic(6)
    cases.append((line_graph(u_graph), (_pendant_edge_index(u_graph, ends[1]),)))
    for g, subset in cases:
        w = walk_matrix(g, subset)
        columns = sympy.Matrix(oracle.walk_matrix_rows(g.n, g.edges, subset))
        rank = columns.rank()
        (kernel,) = columns[:, : rank + 1].nullspace()  # c_L = sum_i a_i c_i, read off by sympy
        relation = tuple(int(-x / kernel[rank]) for x in kernel[:rank])
        assert control._annihilates(*_start(w), relation), (g, subset)
        assert control._annihilates(*_start(w), (0, *relation))  # x mu(x): a true relation one degree up
        near_misses = [relation[:-1], relation[1:], (*relation, 0), (*relation, 1)]
        for i in range(len(relation)):
            for delta in (-1, 1):
                near_misses.append(relation[:i] + (relation[i] + delta,) + relation[i + 1 :])
        for lift in near_misses:
            assert not control._annihilates(*_start(w), lift), (g, subset, lift)
        assert control._krylov_relation(*_start(w)) == relation


def _pendant_walk(m: int, side: int = 0) -> WalkMatrix:
    u_graph, ends = odd_unicyclic(m)
    return walk_matrix(line_graph(u_graph), (_pendant_edge_index(u_graph, ends[side]),))


def test_the_odd_unicyclic_deficiency_is_witnessed_after_one_prime_and_no_horner_check(monkeypatch):
    # the repeated eigenvalue -1 has an integer eigenvector orthogonal to the pendant edge
    counts = _counting(monkeypatch)
    for m in (3, 6, 81):
        for side in (0, 1):
            w = _pendant_walk(m, side)
            before = counts.get("primes", 0)
            assert exact_rank(w) == w.n - 1 == oracle.exact_rank(w.rows), (m, side)
            assert counts["primes"] - before == 1
    assert "horner" not in counts


def _eigenvector_witnesses(w: WalkMatrix) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The first prime's length L, the candidate roots and columns, and
    which columns pass the exact check."""
    p, length, connection = next(control._prime_runs(*_start(w)))
    roots, y = control._eigenvector_candidates(*_start(w), p, connection)
    return length, roots, y, control._is_witness(*_start(w), roots, y)


def test_witnesses_are_exact_eigenvectors_orthogonal_to_e_s():
    cases = [(complete(3), (0, 1)), (cycle(6), (0,)), (cycle(6), (0, 2)), (_pendant_walk(6)._graph, (0,))]
    for g, subset in cases:
        w = walk_matrix(g, subset)
        length, roots, y, passed = _eigenvector_witnesses(w)
        a = g.adjacency().astype(int)
        for root, column in zip(roots[passed], y[:, passed].T):
            assert column.any() and (a @ column == root * column).all()
            assert column[list(subset)].sum() == 0
        rank = exact_rank(w)
        assert passed.sum() == g.n - length == g.n - rank and rank == oracle.exact_rank(w.rows), (g, subset)
    # C6 at 0 has deficiency 2: two witnesses, of the eigenvalues -1 and 1
    length, roots, y, passed = _eigenvector_witnesses(walk_matrix(cycle(6), (0,)))
    assert (length, roots[passed].tolist()) == (4, [-1, 1])


def test_a_subset_witness_need_not_vanish_on_the_subset():
    # e_S^T y = 0, not y_S = 0: on K3 at {0, 1} the witness of -1 is +-(1, -1, 0)
    for g, subset in ((complete(3), (0, 1)), (cycle(6), (0, 2))):
        w = walk_matrix(g, subset)
        length, roots, y, passed = _eigenvector_witnesses(w)
        witnesses = y[:, passed]
        assert passed.sum() == g.n - length and witnesses[list(subset)].any(), (g, subset)
        assert exact_rank(w) == length == oracle.exact_rank(w.rows)
    length, roots, y, passed = _eigenvector_witnesses(walk_matrix(complete(3), (0, 1)))
    assert roots[passed].tolist() == [-1] and abs(y[:, passed].ravel()).tolist() == [1, 1, 0]


def test_a_tampered_witness_fails_its_exact_check_and_the_rank_stands(monkeypatch):
    w = _pendant_walk(6)
    length, roots, y, passed = _eigenvector_witnesses(w)
    assert passed.tolist() == [True] and roots.tolist() == [-1]
    vertex = int(np.flatnonzero(y[:, 0])[-1])
    off_by_one = y.copy()
    off_by_one[vertex] += 1
    assert not control._is_witness(*_start(w), roots, off_by_one).any()
    assert not control._is_witness(*_start(w), roots + 1, y).any()  # the wrong eigenvalue
    assert not control._is_witness(*_start(w), roots, 0 * y).any()  # the zero vector is no witness
    # an exact eigenvector of -1 that is not orthogonal to e_S
    k3 = _start(walk_matrix(complete(3), (0,)))
    assert not control._is_witness(*k3, np.array([-1]), np.array([[1], [-1], [0]])).any()
    assert control._is_witness(*k3, np.array([-1]), np.array([[0], [1], [-1]])).all()

    candidates = control._eigenvector_candidates

    def tampered(arcs, x, p, connection):
        roots, y = candidates(arcs, x, p, connection)
        y = y.copy()
        y[0] += 1
        return roots, y

    monkeypatch.setattr(control, "_eigenvector_candidates", tampered)
    counts = _counting(monkeypatch)
    for m in (3, 6, 81):
        w = _pendant_walk(m)
        assert exact_rank(w) == w.n - 1 == oracle.exact_rank(w.rows)
        assert counts[_key(*_start(w))] == 1  # proven by the CRT relation's Horner check instead


def test_the_fallback_reuses_the_first_prime_and_runs_no_prime_twice(monkeypatch):
    cases = [
        (disjoint_union(path(3), path(3)), (0,)),  # the other P3's eigenspaces are orthogonal to e_S
        (cycle(5), (0,)),  # the repeated eigenvalues (-1 +- sqrt 5) / 2 are irrational
        (cycle(8), (0,)),  # deficiency 3 from +-sqrt 2 and 0: integer roots tried, too few witnesses
        (complete(4), (0,)),  # deficiency 2 from -1 of multiplicity 3: one witness per eigenvalue
        (empty(3), ()),  # no root at all
        (disjoint_union(complete(3), cycle(5)), (0, 4)),
    ]
    primes = []
    bm = control._berlekamp_massey

    def recording_bm(s, p):
        primes.append(p)
        return bm(s, p)

    monkeypatch.setattr(control, "_berlekamp_massey", recording_bm)
    for g, subset in cases:
        w = walk_matrix(g, subset)
        primes.clear()
        relation = control._krylov_relation(*_start(w))
        direct = list(primes)
        primes.clear()
        rank = exact_rank(w)
        assert rank == len(relation) == oracle.exact_rank(w.rows) <= g.n - 2, (g, subset)
        assert primes == direct and len(set(primes)) == len(primes), (g, subset)


def test_witnesses_bound_the_rank_only_when_n_minus_l_of_them_pass(monkeypatch):
    # an unlucky first prime whose length falls one short of the rank: the two
    # true witnesses of C6 at 0 are one too few for n - L = 3, and the
    # relation, lifted over the primes after it, proves the rank instead
    w = walk_matrix(cycle(6), (0,))
    length, roots, y, passed = _eigenvector_witnesses(w)
    assert (length, passed.sum()) == (4, 2)
    runs = control._prime_runs

    def short_first(arcs, x):
        later = runs(arcs, x)
        p, length, connection = next(later)
        yield p, length - 1, connection[:-1]
        yield from later

    monkeypatch.setattr(control, "_prime_runs", short_first)
    monkeypatch.setattr(control, "_eigenvector_candidates", lambda arcs, x, p, connection: (roots, y))
    counts = _counting(monkeypatch)
    assert exact_rank(w) == 4 == oracle.exact_rank(w.rows)
    assert counts["horner"] >= 1
