import math
import tracemalloc

import numpy as np
import pytest

import oracle
from oracle import walk_oracle

from lapwalk.graphs import (
    complete,
    cycle,
    disjoint_union,
    empty,
    join,
    make_graph,
    odd_unicyclic,
    path,
)
from lapwalk.operators import OperatorKind, operator
from lapwalk.partitions import (
    NotAlmostEquitableError,
    NotEquitableError,
    check_almost_equitable,
    check_equitable,
    coarsest_equitable_refinement,
    lift_check,
    partition_matrix,
    path_cycle_correspondence,
    quotient,
)
from lapwalk.spectral import walk


def test_c6_folding_partition_equitable():
    c6 = cycle(6)
    cells = [(0,), (1, 5), (2, 4), (3,)]
    p = check_equitable(c6, cells)
    assert p.is_equitable
    assert p.degree_counts[0, 1] == 2
    assert p.degree_counts[1, 0] == 1


def test_double_cone_partition():
    for base in (complete(3), path(4), empty(5)):
        g = join(empty(2), base)
        cells = [(0,), (1,), tuple(range(2, g.n))]
        p = check_almost_equitable(g, cells)
        assert not np.isnan(p.degree_counts[0, 2])
    # equitable only when the base is regular
    check_equitable(join(empty(2), complete(3)), [(0,), (1,), (2, 3, 4)])
    with pytest.raises(NotEquitableError) as info:
        check_equitable(join(empty(2), path(3)), [(0,), (1,), (2, 3, 4)])
    assert info.value.vertex in (2, 3, 4)


def test_singleton_partition_is_adjacency():
    g = path(4)
    p = check_equitable(g, [(v,) for v in range(4)])
    assert np.array_equal(quotient(p, OperatorKind.ADJACENCY), g.adjacency())


def test_refinement_fixpoints():
    c6 = cycle(6)
    p = coarsest_equitable_refinement(c6, [range(6)])
    assert p.size == 1
    g = path(4)
    p2 = coarsest_equitable_refinement(g, [(v,) for v in range(4)])
    assert p2.size == 4


def test_refinement_u2():
    # hand-run refinement: endpoints vs rest separates by distance to the triangle
    u2, _ = odd_unicyclic(2)
    p = coarsest_equitable_refinement(u2, [(0, 5), tuple(v for v in range(7) if v not in (0, 5))])
    # split order follows the lexicographic signature rule: the apex (6) has
    # signature (0,2), the triangle feet (2,3) have (0,3), the mid path
    # vertices (1,4) have (1,1)
    assert p.cells == ((0, 5), (6,), (2, 3), (1, 4))


def test_refinement_always_equitable():
    from lapwalk.corpus import random_connected_graphs

    for g in random_connected_graphs(10, seed=41):
        p = coarsest_equitable_refinement(g, [range(g.n)])
        check_equitable(g, p.cells)  # must not raise


def test_partition_matrix():
    p = check_equitable(make_graph(3), [(0,), (1, 2)])
    pm = partition_matrix(p)
    assert np.allclose(pm, [[1, 0], [0, 1 / math.sqrt(2)], [0, 1 / math.sqrt(2)]])
    singles = check_equitable(path(3), [(v,) for v in range(3)])
    assert np.array_equal(partition_matrix(singles), np.eye(3))
    c6 = cycle(6)
    p6 = check_equitable(c6, [(0,), (1, 5), (2, 4), (3,)])
    pm6 = partition_matrix(p6)
    assert np.abs(pm6.T @ pm6 - np.eye(4)).max() < 1e-12
    # P P^T blocks are J/|cell|
    blocks = pm6 @ pm6.T
    assert blocks[1, 5] == pytest.approx(0.5)
    assert blocks[0, 0] == pytest.approx(1.0)


def test_quotient_standard_double_cone():
    for n in (2, 4, 6):
        g = join(empty(2), empty(n))
        p = check_almost_equitable(g, [(0,), tuple(range(2, g.n)), (1,)])
        b = quotient(p, OperatorKind.STANDARD)
        r = math.sqrt(n)
        expected = np.array([[n, -r, 0], [-r, 2, -r], [0, -r, n]])
        assert np.abs(b - expected).max() < 1e-12


def test_quotient_signless_double_cone():
    from lapwalk.graphs import circulant_family

    for m in (2, 3):
        base = circulant_family(m)
        g = join(empty(2), base)
        p = check_equitable(g, [(0,), tuple(range(2, g.n)), (1,)])
        b = quotient(p, OperatorKind.SIGNLESS)
        n = 2 * m
        expected = n * np.eye(3) + math.sqrt(n) * path(3).adjacency()
        assert np.abs(b - expected).max() < 1e-12


def test_quotient_cycle_weighted_path():
    c6 = cycle(6)
    p = check_equitable(c6, [(0,), (1, 5), (2, 4), (3,)])
    b = quotient(p, OperatorKind.ADJACENCY)
    r = math.sqrt(2)
    expected = np.array(
        [[0, r, 0, 0], [r, 0, 1, 0], [0, 1, 0, r], [0, 0, r, 0]]
    )
    assert np.abs(b - expected).max() < 1e-12


def test_quotient_requires_matching_partition():
    g = join(empty(2), path(3))
    p = check_almost_equitable(g, [(0,), (1,), (2, 3, 4)])
    with pytest.raises(ValueError):
        quotient(p, OperatorKind.SIGNLESS)
    with pytest.raises(ValueError):
        quotient(p, OperatorKind.NORMALIZED)
    quotient(p, OperatorKind.STANDARD)  # almost-equitable suffices here


def test_projector_commutes_and_intertwines():
    cases = []
    c6 = cycle(6)
    cases.append((c6, check_equitable(c6, [(0,), (1, 5), (2, 4), (3,)]), OperatorKind.ADJACENCY))
    g = join(empty(2), complete(4))
    part = check_equitable(g, [(0,), (1,), (2, 3, 4, 5)])
    cases.append((g, part, OperatorKind.STANDARD))
    cases.append((g, part, OperatorKind.SIGNLESS))
    for graph, p, kind in cases:
        pm = partition_matrix(p)
        m = operator(graph, kind).matrix
        assert np.abs(pm @ pm.T @ m - m @ pm @ pm.T).max() < 1e-10
        b = quotient(p, kind)
        assert np.abs(m @ pm - pm @ b).max() < 1e-10


def test_quotient_reads_the_counts_without_building_the_operator():
    # the double cone over C2000 refines to three cells, and the quotient
    # reads their counts: its memory follows k^2, not the n x n operator
    g = join(empty(2), cycle(2000))
    p = coarsest_equitable_refinement(g, [[0], [1], range(2, g.n)])
    assert p.size == 3
    for kind in (OperatorKind.STANDARD, OperatorKind.SIGNLESS):
        tracemalloc.start()
        try:
            b = quotient(p, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert b.shape == (3, 3)
        assert peak < 2**20


def test_lift_check_signless_double_cone():
    g = join(empty(2), disjoint_union(complete(2), complete(2)))
    p = check_equitable(g, [(0,), tuple(range(2, 6)), (1,)])
    t = math.pi / math.sqrt(8)
    assert lift_check(g, p, OperatorKind.SIGNLESS, 0, 1, t) < 1e-9
    mag = abs(walk(operator(g, OperatorKind.SIGNLESS), t)[1, 0])
    assert abs(mag - 1.0) < 1e-9


def test_lift_check_trivial_and_cycle():
    c6 = cycle(6)
    p = check_equitable(c6, [(0,), (1, 5), (2, 4), (3,)])
    assert lift_check(c6, p, OperatorKind.ADJACENCY, 0, 3, 0.0) == 0.0
    rng = np.random.default_rng(9)
    for t in rng.uniform(0, 20, 10):
        assert lift_check(c6, p, OperatorKind.ADJACENCY, 0, 3, float(t)) < 1e-9
    with pytest.raises(ValueError):
        lift_check(c6, p, OperatorKind.ADJACENCY, 1, 3, 1.0)


def test_lift_against_series_oracle():
    c8 = cycle(8)
    p = check_equitable(c8, [(0,), (1, 7), (2, 6), (3, 5), (4,)])
    b = quotient(p, OperatorKind.ADJACENCY)
    for t in (0.5, 2.0, 9.3):
        big = abs(walk_oracle(c8.adjacency(), t)[4, 0])
        small = abs(walk_oracle(b, t)[4, 0])
        assert abs(big - small) < 1e-9


def test_path_cycle_correspondence_range():
    for n in range(2, 9):
        rep = path_cycle_correspondence(n)
        assert rep.quotient_deviation < 1e-12
        assert rep.identity_deviation < 1e-12
        assert rep.walk_deviation < 1e-9


def test_path_cycle_pst_times():
    # normalized P3 transfers at pi; the 4-cycle transfers at pi/2 under the
    # adjacency matrix, exactly the induced time dilation
    from lapwalk.operators import normalized_laplacian

    magp, _ = _mag(normalized_laplacian(path(3)).matrix, (0, 2), math.pi)
    magc, _ = _mag(cycle(4).adjacency(), (0, 2), math.pi / 2)
    assert abs(magp - 1) < 1e-9
    assert abs(magc - 1) < 1e-9


def _mag(matrix, pair, t):
    u = walk_oracle(matrix, t)
    entry = u[pair[1], pair[0]]
    return abs(entry), entry


def test_degree_counts_edge_consistency():
    # counting edges between two cells both ways: d[j,k] |Vj| = d[k,j] |Vk|
    from lapwalk.corpus import random_connected_graphs

    for g in random_connected_graphs(8, seed=71):
        p = coarsest_equitable_refinement(g, [range(g.n)])
        d = p.degree_counts
        for j in range(p.size):
            for k in range(p.size):
                if j != k:
                    assert d[j, k] * len(p.cells[j]) == d[k, j] * len(p.cells[k])


def test_cells_validation():
    g = path(4)
    with pytest.raises(ValueError):
        check_equitable(g, [(0, 1), (1, 2, 3)])
    with pytest.raises(ValueError):
        check_equitable(g, [(0, 1)])
    with pytest.raises(ValueError):
        check_equitable(make_graph(2, [(0, 1, 2.0)]), [(0,), (1,)])
    with pytest.raises(NotAlmostEquitableError):
        check_almost_equitable(path(4), [(0, 1), (2, 3)])


# -- agreement with the loop-based reference in tests/oracle.py ---------------


def _random_graph(rng, n):
    upper = np.triu(rng.uniform(size=(n, n)) < rng.uniform(), 1)
    return make_graph(n, [(int(u), int(v)) for u, v in zip(*np.nonzero(upper))])


def _random_cells(rng, n):
    """Shuffled cells in shuffled order; about a third of them are broken by
    an empty cell, a repeated vertex, a vertex out of range or a gap."""
    labels = rng.integers(0, int(rng.integers(1, n + 1)), n) if n else np.zeros(0, int)
    cells = [[int(v) for v in rng.permutation(np.flatnonzero(labels == k))] for k in set(labels)]
    rng.shuffle(cells)
    fault = int(rng.integers(0, 12))
    if fault == 0:
        cells.insert(int(rng.integers(0, len(cells) + 1)), [])
    elif fault == 1 and n:
        cells[int(rng.integers(0, len(cells)))].append(int(rng.integers(0, n)))
    elif fault == 2:
        cells.append([int(rng.choice([-1, n, n + 5, 10**30, -(10**25)]))])
    elif fault == 3 and n:
        cells[0].pop()
    return cells


def _outcome(call):
    """What a check returns or raises, in terms both sides can report."""
    try:
        result = call()
    except (oracle.CountWitness, NotEquitableError) as exc:
        return ("witness", exc.vertex, type(exc.vertex), exc.cell, type(exc.cell), str(exc))
    except ValueError as exc:
        return ("invalid", type(exc), str(exc))
    cells, d = (result.cells, result.degree_counts) if hasattr(result, "cells") else result
    return ("ok", cells, [type(v) for cell in cells for v in cell], d.shape, d.tobytes())


def _reference_cases():
    rng = np.random.default_rng(20240611)
    graphs = [empty(0), empty(1), empty(6), path(60), cycle(9), join(empty(2), cycle(6))]
    graphs += [_random_graph(rng, int(rng.integers(0, 13))) for _ in range(80)]
    for g in graphs:
        trials = [[range(g.n)], [[v] for v in range(g.n)]]
        trials += [_random_cells(rng, g.n) for _ in range(5)]
        if g.n > 2:
            trials.append([[0], [g.n - 1], range(1, g.n - 1)])
        for cells in trials:
            yield g, [list(c) for c in cells]


def test_checks_and_refinement_match_the_loop_reference():
    seen = set()
    for g, cells in _reference_cases():
        adj = g.adjacency()
        for require_diagonal, check, err in (
            (True, check_equitable, NotEquitableError),
            (False, check_almost_equitable, NotAlmostEquitableError),
        ):
            got = _outcome(lambda: check(g, cells))
            want = _outcome(lambda: oracle.check_partition(adj, cells, require_diagonal))
            assert got == want, (g, cells, check.__name__)
            if got[0] == "witness":
                with pytest.raises(err) as info:
                    check(g, cells)
                assert type(info.value) is err
            seen.add((check.__name__, got[0]))
        got = _outcome(lambda: coarsest_equitable_refinement(g, cells))
        assert got == _outcome(lambda: oracle.refine_partition(adj, cells)), (g, cells)
        seen.add(("refine", got[0]))
    # the cases reach every outcome of every entry point
    assert seen == {
        (name, outcome)
        for name in ("check_equitable", "check_almost_equitable")
        for outcome in ("ok", "witness", "invalid")
    } | {("refine", "ok"), ("refine", "invalid")}


def test_zero_vertex_partitions():
    g = empty(0)
    for p in (check_equitable(g, []), coarsest_equitable_refinement(g, [])):
        assert p.cells == () and p.cell_of == ()
        assert p.degree_counts.shape == (0, 0)
        assert partition_matrix(p).shape == (0, 0)
    assert check_almost_equitable(g, []).size == 0
    with pytest.raises(ValueError, match="nonempty"):
        check_equitable(g, [[]])


def test_zero_vertex_quotient_is_empty():
    g = empty(0)
    for kind, check in (
        (OperatorKind.ADJACENCY, check_equitable),
        (OperatorKind.SIGNLESS, check_equitable),
        (OperatorKind.STANDARD, check_almost_equitable),
    ):
        assert quotient(check(g, []), kind).shape == (0, 0)


def test_edgeless_refinement_keeps_the_input_cells():
    g = empty(7)
    p = coarsest_equitable_refinement(g, [(6, 1), (0, 2, 4), (3, 5)])
    assert p.cells == ((1, 6), (0, 2, 4), (3, 5))
    assert not p.degree_counts.any()
    assert p.cell_of == (1, 0, 1, 2, 1, 2, 0)


def test_validation_reports_the_first_fault_in_cell_order():
    g = path(4)
    with pytest.raises(ValueError, match="vertex 9 out of range"):
        check_equitable(g, [(0, 9), (1, 1), ()])
    with pytest.raises(ValueError, match="vertex 1 appears in two cells"):
        check_equitable(g, [(3, 1, 1), (), (0, 9)])
    with pytest.raises(ValueError, match="nonempty"):
        check_equitable(g, [(0, 1), (), (1, 9)])
    with pytest.raises(ValueError, match=f"vertex {10**30} out of range"):
        check_equitable(g, [(0, 1, 2, 3, 10**30)])
