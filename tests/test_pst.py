import math
import tracemalloc

import numpy as np
import pytest

import oracle
from lapwalk import pst
from lapwalk.corpus import random_connected_graphs
from lapwalk.graphs import (
    cartesian_product,
    circulant_family,
    complete,
    cycle,
    disjoint_union,
    empty,
    hypercube,
    join,
    make_graph,
    path,
    weak_product,
)
from lapwalk.linegraph import pst_transfer_to_line
from lapwalk.operators import (
    Hamiltonian,
    OperatorKind,
    normalized_laplacian,
    operator,
    signless_laplacian,
    standard_laplacian,
)
from lapwalk.partitions import NotAlmostEquitableError, check_almost_equitable, quotient
from lapwalk.pst import (
    PstCertificate,
    complement_closure_check,
    connected_double_cone_refutation,
    cycle_pst_screen,
    double_cone_characterization,
    join_necessary_condition,
    join_walk_entry,
    normalized_weak_product_walk_check,
    search_pst,
    verify_pst,
    weak_product_closure_1,
)
from lapwalk.spectral import eigendecompose, entry_sum


def test_verify_weak_product_p3_k4():
    prod = weak_product(path(3), complete(4))
    res = verify_pst(normalized_laplacian(prod), (0, 8), 3 * math.pi)
    assert res.certifies()
    assert res.method == "VerifiedAtGivenTime"


def test_verify_hypercube_normalized():
    q3 = hypercube(3)
    res = verify_pst(normalized_laplacian(q3), (0, 7), 3 * math.pi / 2)
    assert res.certifies()


def test_certifies_and_refutes_split_at_their_thresholds():
    def verdicts(magnitude):
        cert = PstCertificate((0, 1), OperatorKind.STANDARD, 1.0, magnitude, 0.0, pst.METHOD_GRID)
        return cert.certifies(), cert.refutes()

    certify_at = 1.0 - pst.PST_TOL
    assert verdicts(certify_at) == (True, False)
    assert verdicts(np.nextafter(certify_at, 0.0)) == (False, False)
    assert verdicts(pst.REFUTE_THRESHOLD) == (False, False)
    assert verdicts(np.nextafter(pst.REFUTE_THRESHOLD, 0.0)) == (False, True)
    assert verdicts(0.5 * (certify_at + pst.REFUTE_THRESHOLD)) == (False, False)
    assert verdicts(1.0) == (True, False) and verdicts(0.0) == (False, True)


def _closure_reference(spec_g, spec_h, t, angle):
    return all(
        abs(x - round(x)) < pst.INTEGER_TOL
        for lam in spec_g
        for mu in spec_h
        for x in [angle(t, lam, mu) / (2.0 * math.pi)]
    )


def test_weak_product_closures_match_the_scalar_loop():
    # eigenvalues k/3 and times 2 pi j land the angles on or near 2 pi Z;
    # offsets around INTEGER_TOL put them on both sides of the tolerance
    rng = np.random.default_rng(5)
    for _ in range(300):
        spec_g = rng.integers(0, 7, size=rng.integers(0, 4)) / 3.0
        spec_h = rng.integers(0, 7, size=rng.integers(0, 4)) / 3.0
        spec_h = spec_h + rng.choice([0.0, 1e-10, 3e-10, 1e-9], size=spec_h.shape)
        t = 2.0 * math.pi * 3.0 * int(rng.integers(1, 4))
        first = _closure_reference(spec_g, spec_h, t, lambda t, lam, mu: t * mu * (lam - 1.0))
        assert weak_product_closure_1(list(spec_g), list(spec_h), t) is first


def test_verify_refutes_standard_p3():
    res = verify_pst(standard_laplacian(path(3)), (0, 2), math.pi)
    assert not res.certifies()
    assert res.magnitude < 1 - 1e-6
    assert res.method == pst.METHOD_REFUTED and res.refutes()


def test_certificate_column_collapse():
    # unitarity: a certified column has negligible weight elsewhere
    g = join(empty(2), complete(2))
    h = standard_laplacian(g)
    cert = verify_pst(h, (0, 1), math.pi / 2)
    assert cert.certifies()
    u = eigendecompose(h).matrix_at(cert.time)
    others = [abs(u[v, 0]) for v in range(g.n) if v != 1]
    assert max(others) < math.sqrt(2e-9)


def test_search_finds_pi_over_2():
    g = join(empty(2), complete(2))
    cert = search_pst(standard_laplacian(g), (0, 1), 4.0)
    assert abs(cert.time - math.pi / 2) < 1e-9
    assert cert.certifies()


def test_search_circulant_family_time():
    g = join(empty(2), circulant_family(3))
    cert = search_pst(signless_laplacian(g), (0, 1), 2.0)
    assert abs(cert.time - math.pi / math.sqrt(12)) < 1e-9
    assert cert.certifies()


def test_search_matches_verify_magnitude():
    g = join(empty(2), complete(2))
    h = standard_laplacian(g)
    cert = search_pst(h, (0, 1), 4.0)
    res = verify_pst(h, (0, 1), cert.time)
    assert abs(res.magnitude - cert.magnitude) < 1e-9


def test_search_normalized_p4_stays_low():
    cert = search_pst(normalized_laplacian(path(4)), (0, 3), 200.0)
    assert cert.magnitude < 0.999


def test_complement_closure_check():
    cond, dev = complement_closure_check(complete(2), math.pi)
    assert cond and dev < 1e-9
    cond2, _ = complement_closure_check(complete(2), math.pi / 2)
    assert not cond2
    # K2 plus six isolated vertices: n = 8, t = pi/2 gives nt = 4 pi
    g = disjoint_union(complete(2), empty(6))
    cond3, dev3 = complement_closure_check(g, math.pi / 2)
    assert cond3 and dev3 < 1e-9


def test_complement_closure_transfers_certificates():
    # K2 with idle isolated vertices transfers at pi/2; whenever nt lands in
    # 2 pi Z the complement (a double cone over a clique) must transfer too
    from lapwalk.graphs import complement

    t = math.pi / 2
    for k in (2, 6, 10):
        g = disjoint_union(complete(2), empty(k))
        condition, deviation = complement_closure_check(g, t)
        assert condition and deviation < 1e-9
        res = verify_pst(standard_laplacian(g), (0, 1), t)
        assert res.certifies()
        comp = complement(g)
        assert comp == join(empty(2), complete(k))
        res2 = verify_pst(standard_laplacian(comp), (0, 1), t)
        assert res2.certifies()


def test_double_cone_characterization_small():
    results = double_cone_characterization(range(1, 7))
    for res in results:
        assert res.has_pst == (res.n % 4 == 2)
    r6 = next(r for r in results if r.n == 6)
    t_found = r6.certificate.time
    # the apexes walk like the ends of the weighted path at time sqrt(6) t
    alpha = (6 - 2) / math.sqrt(6)
    assert abs(oracle.p3_alpha_fidelity(alpha, math.sqrt(6) * t_found) + 1.0) < 1e-6


def test_double_cone_characterization_checks_every_order_before_searching(monkeypatch):
    def no_search(*args):
        raise AssertionError("search_pst was called")

    monkeypatch.setattr(pst, "search_pst", no_search)
    with pytest.raises(ValueError, match="base order"):
        double_cone_characterization([1, 2, 0])


def test_double_cone_quotient_certificates_match_the_dense_searches():
    # the dense oracle: the search on each suite cone's whole standard
    # Laplacian finds what the one search of its order's 3 x 3 quotient does
    for res in double_cone_characterization(range(1, 11)):
        assert len(res.bases) == len(pst._cone_bases(res.n))
        for label, base in pst._cone_bases(res.n):
            dense = search_pst(standard_laplacian(join(empty(2), base)), (0, 1), pst.DOUBLE_CONE_T_MAX)
            cert = res.certificate
            assert dense.certifies() == cert.certifies() and dense.refutes() == cert.refutes(), (res.n, label)
            assert abs(dense.magnitude - cert.magnitude) <= 1e-14, (res.n, label)
            assert abs(dense.time - cert.time) <= 1e-12, (res.n, label)
            assert (cert.pair, cert.kind) == (dense.pair, dense.kind)


def test_every_double_cone_over_seven_or_fewer_vertices_shares_its_order_quotient():
    # every base graph on 1..7 vertices (the atlas less its empty graph):
    # each cone's apex partition is almost equitable with the quotient of its
    # order, whatever the base's edges, so the mod-4 law of that one quotient
    # is the law of every cone
    nx = pytest.importorskip("networkx")
    bases = [g for g in nx.graph_atlas_g() if g.number_of_nodes() >= 1]
    assert len(bases) == 1252
    for base in bases:
        m = base.number_of_nodes()
        g = join(empty(2), make_graph(m, base.edges()))
        p = check_almost_equitable(g, [(0,), (1,), range(2, g.n)])
        r = math.sqrt(m)
        expected = np.array([[m, 0.0, -r], [0.0, m, -r], [-r, -r, 2.0]])
        assert np.array_equal(quotient(p, OperatorKind.STANDARD), expected), list(base.edges())
    results = double_cone_characterization(range(1, 8))
    assert [res.n for res in results if res.has_pst] == [2, 6]
    assert all(res.certificate.refutes() for res in results if not res.has_pst)


def test_a_cone_missing_an_apex_edge_has_no_apex_quotient():
    g = join(empty(2), path(4))
    broken = make_graph(g.n, [e for e in g.ends.tolist() if e != [0, 3]])
    with pytest.raises(NotAlmostEquitableError, match="vertex 3 ") as err:
        pst._apex_quotient(broken)
    assert err.value.vertex == 3


def test_double_cone_bases_must_share_their_quotient(monkeypatch):
    # two bases of different orders cannot share one apex quotient: no search
    monkeypatch.setattr(pst, "_cone_bases", lambda n: [("empty", empty(n)), ("larger", empty(n + 1))])
    monkeypatch.setattr(pst, "search_pst", lambda *args: pytest.fail("search_pst was called"))
    with pytest.raises(RuntimeError, match="larger base differs at n=3"):
        double_cone_characterization([3])


def test_join_necessary_condition():
    assert join_necessary_condition(2, 2, math.pi / 2)
    assert not join_necessary_condition(2, 4, math.pi / 2)
    assert join_necessary_condition(2, 6, math.pi / 2)


@pytest.mark.parametrize("m, n", [(1.5, 2), (2, 2.0), (True, 2), (2, -1)])
def test_join_counts_pass_the_integer_gate(m, n):
    with pytest.raises(ValueError):
        join_necessary_condition(m, n, 3.14)
    if m == 2:
        with pytest.raises(ValueError):
            join_walk_entry(standard_laplacian(path(2)), n, (0, 1), 3.14)


def test_connected_double_cone_refutation():
    for base in (complete(2), empty(2), path(5)):
        cert = connected_double_cone_refutation(base)
        assert cert.refutes()
        # the apex quotient of K2 + G, and the dense search it stands for
        m, r = base.n, math.sqrt(base.n)
        expected = [[m + 1, -1.0, -r], [-1.0, m + 1, -r], [-r, -r, 2.0]]
        g = join(complete(2), base)
        assert np.array_equal(pst._apex_quotient(g).matrix, expected)
        dense = search_pst(standard_laplacian(g), (0, 1), pst.SCAN_T_MAX)
        assert abs(dense.magnitude - cert.magnitude) <= 1e-14 and abs(dense.time - cert.time) <= 1e-12
        assert cert.kind == OperatorKind.STANDARD
    # off-diagonal of the identity at t=0
    g = join(complete(2), complete(2))
    assert abs(eigendecompose(standard_laplacian(g)).matrix_at(0.0)[1, 0]) == 0.0


def test_weak_product_closure_conditions():
    spec_p3 = [0.0, 1.0, 2.0]
    spec_k4 = [0.0, 4.0 / 3.0]
    assert weak_product_closure_1(spec_p3, spec_k4, 3 * math.pi)
    spec_q3 = [2.0 * k / 3.0 for k in range(4)]
    assert weak_product_closure_1(spec_p3, spec_q3, 3 * math.pi)
    spec_k3 = [0.0, 3.0 / 2.0]
    assert not weak_product_closure_1(spec_p3, spec_k3, math.pi)


def test_normalized_weak_product_walk_check():
    chk = normalized_weak_product_walk_check(path(3), complete(4), 3 * math.pi)
    assert chk.operator_deviation < 1e-12
    assert chk.walk_deviation < 1e-9
    chk0 = normalized_weak_product_walk_check(path(3), complete(3), 0.0)
    assert chk0.walk_deviation < 1e-12
    prod = weak_product(path(3), hypercube(3))
    res = verify_pst(normalized_laplacian(prod), (0, 16), 3 * math.pi)
    assert res.certifies()


def test_cycle_pst_screen():
    s3 = cycle_pst_screen(3)
    assert s3.possible and s3.reason == "integer-spectrum"
    s2 = cycle_pst_screen(2)
    assert s2.possible
    s4 = cycle_pst_screen(4)
    assert not s4.possible and s4.reason == "theorem"  # C6 spectrum is integral
    s5 = cycle_pst_screen(5)
    assert not s5.possible and s5.reason == "integrality"
    assert s5.witness == pytest.approx(math.sqrt(2))
    for n in range(6, 12):
        assert not cycle_pst_screen(n).possible


def test_verify_pst_tolerance_boundary():
    g = join(empty(2), complete(2))
    h = standard_laplacian(g)
    res = verify_pst(h, (0, 1), math.pi / 2 + 1e-3)
    assert not res.certifies()
    assert 0.9 < res.magnitude < 1 - 1e-9


@pytest.mark.parametrize("bad", [-1, "n", 2**63 - 1])
def test_every_pair_reader_rejects_a_vertex_out_of_range_before_the_eigensolve(monkeypatch, bad):
    """A vertex outside 0..n-1 raises ValueError naming it, before any
    eigensolve, wherever a walk entry is read; -1 is never read as the last
    vertex."""

    def no_eigensolve(h):
        raise AssertionError("eigensolve before the vertex check")

    monkeypatch.setattr(pst, "eigendecompose", no_eigensolve)
    g = cycle(6)
    bad = g.n if bad == "n" else bad
    h = standard_laplacian(g)
    readers = [
        lambda: pst.walk_entries(h, (0, bad), [1.0]),
        lambda: pst.walk_entries(h, (bad, 0), [1.0]),
        lambda: verify_pst(h, (bad, 3), 1.0),
        lambda: search_pst(h, (0, bad), 50.0),
        lambda: pst_transfer_to_line(path(5), bad, 4, 1.0),
        lambda: pst_transfer_to_line(path(5), 0, bad, 1.0),
    ]
    for read in readers:
        with pytest.raises(ValueError, match=f"^vertex {bad} out of range$"):
            read()


@pytest.mark.parametrize("pair, named", [((0, 1.5), "got 1.5"), ((True, 2), "got True")])
def test_pair_vertices_are_never_truncated(monkeypatch, pair, named):
    h = standard_laplacian(path(3))
    assert verify_pst(h, (np.int64(0), np.int32(2)), 1.0).magnitude == verify_pst(h, (0, 2), 1.0).magnitude
    monkeypatch.setattr(pst, "eigendecompose", lambda h: pytest.fail("eigensolve before the vertex check"))
    for read in (lambda: verify_pst(h, pair, 1.0), lambda: search_pst(h, pair, 50.0)):
        with pytest.raises(ValueError, match=f"^vertex must be an integer, {named}$"):
            read()
    with pytest.raises(ValueError, match="^n must be an integer, got 2.5$"):
        cycle_pst_screen(2.5)


def test_search_k2_ends_on_rising_edge():
    # |U(t)[1, 0]| = sin t still rises at t_max = 1, so the last bracket
    # resolves to its better end, t_max itself
    cert = search_pst(standard_laplacian(complete(2)), (0, 1), 1.0)
    assert cert.time == 1.0
    assert abs(cert.magnitude - math.sin(1.0)) < 1e-15


def test_search_k2_earliest_peak_across_blocks():
    # the support {0, 2} is integral: the scan stops after one period, pi
    cert = search_pst(standard_laplacian(complete(2)), (0, 1), 1000.0)
    assert abs(cert.time - math.pi / 2) < 1e-9
    assert cert.certifies()


def _scaled(g, kind, factor):
    """The operator of ``kind`` on g, times factor: the operator of g with
    every edge weighted by factor, as a CUSTOM matrix."""
    return Hamiltonian(OperatorKind.CUSTOM, factor * operator(g, kind).matrix)


def test_scaled_operators_are_the_edge_weighted_ones():
    # factor * (integer entry) rounds once, as the weighted sums did
    r = math.sqrt(2)
    cases = [
        (_scaled(complete(2), "standard", r), [[r, -r], [-r, r]]),
        (_scaled(path(3), "standard", r), [[r, -r, 0], [-r, 2 * r, -r], [0, -r, r]]),
        (_scaled(path(3), "signless", r), [[r, r, 0], [r, 2 * r, r], [0, r, r]]),
    ]
    for h, weighted in cases:
        assert h.matrix.tobytes() == np.array(weighted).tobytes()


def _scanned_horizon(monkeypatch, h, pair, t_max):
    """The certificate and the end of the grid the search scanned."""
    horizons = []
    grid_peaks = pst._grid_peaks

    def spy(values, weights, step, count, horizon):
        horizons.append(horizon)
        return grid_peaks(values, weights, step, count, horizon)

    with monkeypatch.context() as m:
        m.setattr(pst, "_grid_peaks", spy)
        cert = search_pst(h, pair, t_max)
    return cert, horizons[0]


def test_search_earliest_peak_across_blocks_off_period(monkeypatch):
    # |U(t)[1, 0]| = |sin(sqrt(2) t)| on K2 with edge weight sqrt(2): the gap
    # 2 sqrt(2) is no integer, so every block up to t_max is scanned
    h = _scaled(complete(2), "standard", math.sqrt(2))
    cert, horizon = _scanned_horizon(monkeypatch, h, (0, 1), 1000.0)
    assert horizon == 1000.0
    assert abs(cert.time - math.pi / (2 * math.sqrt(2))) < 1e-9
    assert cert.certifies()


def test_search_ties_go_to_the_earliest_peak_up_to_rounding():
    # |U(t)[2, 0]| on the standard P3 peaks at sqrt(3)/2 at 2 pi/3 + 2 pi k and
    # 4 pi/3 + 2 pi k; far peaks differ from the first only by rounding
    cert = search_pst(standard_laplacian(path(3)), (0, 2), 301.0)
    assert abs(cert.time - 2 * math.pi / 3) < 1e-9
    assert abs(cert.magnitude - math.sqrt(3) / 2) < 1e-12


def test_search_ties_go_to_the_earliest_peak_off_period(monkeypatch):
    # the same entry at time sqrt(2) t on P3 with edge weights sqrt(2): its
    # support 0, sqrt(2), 3 sqrt(2) is not integral, so the far peaks, equal
    # up to rounding, are all scanned and the first still wins
    h = _scaled(path(3), "standard", math.sqrt(2))
    cert, horizon = _scanned_horizon(monkeypatch, h, (0, 2), 301.0)
    assert horizon == 301.0
    assert abs(cert.time - 2 * math.pi / (3 * math.sqrt(2))) < 1e-9
    assert abs(cert.magnitude - math.sqrt(3) / 2) < 1e-12


def test_near_equal_peaks_cannot_lead_the_pick_below_the_largest():
    # the symmetrized quotient of the double cone over C99998 (cells {0}, {1}
    # and the rest) transfers between its apexes at pi/2. Earlier peaks come
    # within the tie bound (about 5e-7) of one another in a run; comparing
    # each only with the pick so far once led the pick down to 0.99997 at
    # t = 1.5626, a refutation
    m = 99998
    r = math.sqrt(m)
    h = Hamiltonian(OperatorKind.CUSTOM, [[m, 0.0, -r], [0.0, m, -r], [-r, -r, 2.0]])
    cert = search_pst(h, (0, 1), 1e4)
    assert not cert.refutes() and cert.magnitude > 1 - 1e-6
    assert cert.time <= math.pi / 2
    assert verify_pst(h, (0, 1), math.pi / 2).certifies()


def test_search_block_size_does_not_change_certificate(monkeypatch):
    h = normalized_laplacian(path(7))
    default = search_pst(h, (0, 6), 200.0)
    monkeypatch.setattr(pst, "SCAN_CELL", 7)
    monkeypatch.setattr(pst, "SCAN_BLOCK", 21)
    monkeypatch.setattr(pst, "SCAN_POINTS", 60)
    assert search_pst(h, (0, 6), 200.0) == default


def test_search_memory_is_bounded():
    h = standard_laplacian(path(200))
    tracemalloc.start()
    try:
        search_pst(h, (0, 199), 2000.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_refinement_stops_at_float_resolution():
    # beyond t = 8192 adjacent floats lie further apart than REFINE_TOL
    dec = eigendecompose(standard_laplacian(complete(2)))
    peak = math.pi / 2 + 3000 * math.pi
    t = pst._refine_peak(dec.values, dec.pair_weights(0, 1), [peak - 0.01], [peak + 0.01])
    assert abs(t[0] - peak) < 1e-9
    h = standard_laplacian(path(4))
    assert search_pst(h, (0, 3), 1e4).magnitude >= search_pst(h, (0, 3), 200.0).magnitude


@pytest.mark.parametrize("block", [1, 7, 450, 451, 2048])
def test_search_grid_matches_direct_exponentials(monkeypatch, block):
    # t_max = 6.475 is no multiple of the step, so the last grid point is
    # clamped to it. There |a| still rises and exceeds the point before it,
    # while at the lattice time past t_max it has fallen below: the grid
    # maximum is the last point only if that point is evaluated at t_max.
    # Blocks (and cells) of 1, 450 and 451 points put the last point in a
    # block of its own and in the halo of the block before it.
    _check_grid_brackets(monkeypatch, block, pst.SCAN_POINTS)


@pytest.mark.parametrize("block, points", [(1, 5), (7, 20), (7, 448), (150, 300), (451, 451)])
def test_search_grid_matches_direct_exponentials_across_products(monkeypatch, block, points):
    # the same 452-point grid split over several coarse products: products
    # of 5 blocks of 1, of 2 or 64 blocks of 7 and of 2 blocks of 150, the
    # last product partial; (451, 451) leaves the last point alone in the
    # second
    _check_grid_brackets(monkeypatch, block, points)


def _check_grid_brackets(monkeypatch, block, points):
    h, pair, t_max = standard_laplacian(path(4)), (0, 3), 6.475
    dec = eigendecompose(h)
    step = (math.pi / dec.spectral_range) / 64
    count = math.ceil((t_max + step) / step)
    times = np.minimum(np.arange(count) * step, t_max)
    mags = np.abs(dec.amplitude(*pair, times))  # one direct exponential per point
    padded = np.concatenate([[-np.inf], mags, [-np.inf]])
    peaks = np.flatnonzero((mags >= padded[:-2]) & (mags >= padded[2:]))
    peaks = peaks[mags[peaks] >= mags.max() - pst.PEAK_CUTOFF]
    expected = sorted((times[max(i - 1, 0)], times[min(i + 1, count - 1)]) for i in peaks)
    lattice_last = abs(dec.amplitude(*pair, [(count - 1) * step])[0])
    assert mags[-1] > mags[-2] > lattice_last and count - 1 in peaks

    brackets = []
    refine = pst._refine_peak

    def spy(values, weights, lo, hi):
        brackets.extend(zip(lo, hi))
        return refine(values, weights, lo, hi)

    monkeypatch.setattr(pst, "SCAN_CELL", block)
    monkeypatch.setattr(pst, "SCAN_BLOCK", block)
    monkeypatch.setattr(pst, "SCAN_POINTS", points)
    monkeypatch.setattr(pst, "_refine_peak", spy)
    search_pst(h, pair, t_max)
    assert count == 452 and sorted(brackets) == expected  # each peak once


def test_search_scans_only_the_pair_support(monkeypatch):
    # the apex entry of the double cone over C98 is 1/100 - e^(-98it)/2 +
    # 49 e^(-100it)/100: 3 of its 52 clusters carry weight
    h = standard_laplacian(join(empty(2), cycle(98)))
    scanned = []
    refine = pst._refine_peak

    def spy(values, weights, *brackets):
        scanned.append(len(values))
        return refine(values, weights, *brackets)

    monkeypatch.setattr(pst, "_refine_peak", spy)
    cert = search_pst(h, (0, 1), 200.0)
    assert scanned == [3]
    assert abs(cert.time - math.pi / 2) < 1e-12
    assert cert.magnitude >= 1 - 1e-12


def _connected_graph(rng, n):
    while True:
        g = make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4])
        if oracle.is_connected(g.n, g.edges):
            return g


def _horizon(h, pair, count):
    """A t_max off the lattice whose grid has ``count`` points."""
    dec = eigendecompose(h)
    values = pst._support(dec.values, dec.pair_weights(*pair))[0]
    step = (math.pi / float(values[-1] - values[0])) / 64
    t_max = (count - 1.5) * step
    assert math.ceil((t_max + step) / step) == count
    return t_max


def _with_reference_grid(monkeypatch, h, pair, t_max, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(pst, "_grid_peaks", oracle.blockwise_grid_peaks)
        return search_pst(h, pair, t_max, **kwargs)


SCAN_COUNTS = [
    pst.SCAN_CELL - 6,  # within one cell
    1000,  # within one coarse product
    pst.SCAN_POINTS - 1,  # the longest grid in one coarse product
    pst.SCAN_POINTS,
    pst.SCAN_POINTS + 1,  # the last point alone in a second product
    2 * pst.SCAN_POINTS + 5,
]


@pytest.mark.parametrize("seed, kind", enumerate(["adjacency", "standard", "signless", "normalized"]))
def test_search_matches_the_blockwise_reference_grid(monkeypatch, seed, kind):
    rng = np.random.default_rng(seed)
    for _ in range(3):
        n = int(rng.integers(3, 11))
        g = _connected_graph(rng, n)
        pair = tuple(int(v) for v in rng.choice(n, 2, replace=False))
        h = operator(g, kind)
        for count in SCAN_COUNTS:
            t_max = _horizon(h, pair, count)
            cert = search_pst(h, pair, t_max)
            assert cert == _with_reference_grid(monkeypatch, h, pair, t_max), (g, pair, count)


# pairs whose support is not integral, so that every SCAN_COUNTS grid is
# scanned to its end
OFF_PERIOD_PAIRS = [
    (path(4), "adjacency", (0, 3)),
    (path(4), "standard", (0, 3)),
    (_scaled(path(3), "signless", math.sqrt(2)), "signless", (0, 2)),
    (path(5), "normalized", (0, 4)),
]


@pytest.mark.parametrize("g, kind, pair", OFF_PERIOD_PAIRS)
def test_search_matches_the_blockwise_reference_grid_off_period(monkeypatch, g, kind, pair):
    h = g if isinstance(g, Hamiltonian) else operator(g, kind)
    dec = eigendecompose(h)
    values, weights, _ = pst._support(dec.values, dec.pair_weights(*pair))
    assert pst._period(values, weights, 1e6, 0.0) is None
    for count in SCAN_COUNTS:
        t_max = _horizon(h, pair, count)
        cert = search_pst(h, pair, t_max)
        assert cert == _with_reference_grid(monkeypatch, h, pair, t_max), count


def test_search_peak_at_the_last_point_of_a_product(monkeypatch):
    # |U(t)[1, 0]| = |sin t| on K2: with pi/2 at grid index SCAN_POINTS - 1,
    # the best grid point ends the first product and its right neighbour
    # starts the second
    h, density = standard_laplacian(complete(2)), pst.SCAN_POINTS - 1
    found = []
    grid_peaks = pst._grid_peaks

    def spy(*args):
        found.append(grid_peaks(*args))
        return found[-1]

    monkeypatch.setattr(pst, "_grid_peaks", spy)
    cert = search_pst(h, (0, 1), 3.0, grid_density=density)
    assert found[0][0] == pst.SCAN_POINTS - 1
    assert abs(cert.time - math.pi / 2) < 1e-12 and cert.certifies()
    assert cert == _with_reference_grid(monkeypatch, h, (0, 1), 3.0, grid_density=density)


def _grid_arguments(monkeypatch, h, pair, t_max):
    """The arguments search_pst passes to _grid_peaks, and what it returns."""
    calls = []
    grid_peaks = pst._grid_peaks

    def spy(*args):
        calls.append((args, grid_peaks(*args)))
        return calls[-1][1]

    with monkeypatch.context() as m:
        m.setattr(pst, "_grid_peaks", spy)
        search_pst(h, pair, t_max)
    return calls[0]


@pytest.mark.parametrize("block", [2048, 7])  # grid points per coarse product: 32 blocks, 1 block
@pytest.mark.parametrize("count", [1, 2, 63, 64, 65, 2047, 2048, pst.SCAN_POINTS])
@pytest.mark.parametrize(
    "g, kind, pair", [(path(100), "standard", (0, 99)), (hypercube(6), "signless", (0, 63))]
)
def test_factored_phase_table_matches_direct_exponentials(monkeypatch, block, count, g, kind, pair):
    # every row the grid multiplies out of its two short tables, against
    # one np.exp per row and cluster, within the bound _lattice's docstring
    # states, for grids of one cell to many coarse products
    (values, _, step, _, _), _ = _grid_arguments(monkeypatch, operator(g, kind), pair, 200.0)
    tables = []
    lattice = pst._lattice

    def spy(phi, spacing, n):
        tables.append((phi, spacing, n, *lattice(phi, spacing, n)))
        return tables[-1][3:]

    monkeypatch.setattr(pst, "SCAN_POINTS", block)
    monkeypatch.setattr(pst, "_lattice", spy)
    weights = np.full(len(values), 1.0 / len(values))
    pst._grid_peaks(values, weights, step, count, count * step)
    assert len(tables) == 1
    phi, spacing, n, coarse, fine = tables[0]
    group = pst.SCAN_BLOCK // pst.SCAN_CELL
    cells = -(-count // pst.SCAN_BLOCK) * group
    assert spacing == pst.SCAN_CELL * step and n == min(max(block // pst.SCAN_BLOCK, 1) * group, cells)
    j = np.arange(n)
    rows = coarse[j // len(fine)] * fine[j % len(fine)]
    direct = np.exp(-1j * np.outer(j * spacing, phi))
    bound = 2 * np.finfo(float).eps * (n * spacing * np.abs(phi).max() + 4)
    assert np.abs(rows - direct).max() <= bound


class _CountingNumpy:
    """numpy, counting the values np.exp evaluates."""

    def __init__(self):
        self.exponentials = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x):
        out = np.exp(x)
        self.exponentials += out.size
        return out


def test_grid_builds_its_phase_table_from_about_two_square_roots_of_exponentials(monkeypatch):
    # P100's end pair at t_max = 2000 is a grid of about 1.6e5 points in 3
    # coarse products: one row of exponentials per product, the two tables
    # of a product's 4096 cell centres (128 rows, not 4096) and one fine
    # table of SCAN_BLOCK + 2 rows, not one exponential per point and cluster
    args, peaks = _grid_arguments(monkeypatch, standard_laplacian(path(100)), (0, 99), 2000.0)
    values, _, _, count, _ = args
    counting = _CountingNumpy()
    monkeypatch.setattr(pst, "np", counting)
    assert np.array_equal(pst._grid_peaks(*args), peaks)
    k, per = len(values), pst.SCAN_POINTS // pst.SCAN_CELL
    products = math.ceil(count / pst.SCAN_POINTS)
    assert count > 1e5 and k == 100 and products == 3
    rows = products + (3 / math.sqrt(2) * math.sqrt(per) + 2) + pst.SCAN_BLOCK + 2
    assert counting.exponentials <= rows * k < count * k / 50
    # a whole product's 4096 centres stay within _lattice's bound too
    phi = values - 0.5 * (values[0] + values[-1])
    spacing = pst.SCAN_CELL * args[2]
    coarse, fine = pst._lattice(phi, spacing, per)
    j = np.arange(per)
    direct = np.exp(-1j * np.outer(j * spacing, phi))
    bound = 2 * np.finfo(float).eps * (per * spacing * np.abs(phi).max() + 4)
    assert np.abs(coarse[j // len(fine)] * fine[j % len(fine)] - direct).max() <= bound


def test_search_memory_stays_flat_as_the_horizon_grows():
    # the coarse pass holds one product of cell centres at a time and the
    # fine pass only the blocks the envelope cannot rule out, so P100's end
    # pair peaks below 3 MB at t_max = 2000 (1.6e5 grid points) and at 1e5
    # (8.1e6 points)
    h = standard_laplacian(path(100))
    search_pst(h, (0, 99), 10.0)
    for t_max in (2000.0, 1e5):
        tracemalloc.start()
        try:
            search_pst(h, (0, 99), t_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20, t_max


@pytest.mark.parametrize("seed", range(6))
def test_every_cell_stays_below_its_envelope(monkeypatch, seed):
    # the bound _grid_peaks skips cells by, read from the coarse pass itself,
    # against direct exponentials at every grid point of every cell and at
    # 9 times between neighbouring points; seed 0 is the flat-topped entry,
    # whose maximum has a vanishing second derivative
    rng = np.random.default_rng(seed)
    if seed == 0:
        values, weights = _flat_peak(2.0)
    else:
        k = int(rng.integers(2, 12))
        values = np.sort(rng.uniform(-3.0, 3.0, k))
        weights = rng.normal(size=k) * rng.uniform(0.0, 1.0, k)
        weights /= np.abs(weights).sum()
    step = math.pi / float(values[-1] - values[0]) / 64
    count = 3 * 1024 + 37
    envelopes = []
    envelope = pst._envelope

    def spy(b, db, phi, w, h):
        envelopes.append(envelope(b, db, phi, w, h))
        return envelopes[-1]

    monkeypatch.setattr(pst, "SCAN_POINTS", 1024)  # several coarse products
    monkeypatch.setattr(pst, "_envelope", spy)
    pst._grid_peaks(values, weights, step, count, (count - 1.5) * step)
    bound = np.concatenate(envelopes)
    cell, half = pst.SCAN_CELL, pst.SCAN_CELL // 2
    assert len(bound) == -(-count // pst.SCAN_BLOCK) * (pst.SCAN_BLOCK // cell)  # whole blocks
    offsets = np.linspace(-half, cell - 1 - half, 9 * (cell - 1) + 1)  # every point and between
    times = ((np.arange(len(bound)) * cell + half)[:, None] + offsets) * step
    mags = np.abs(np.exp(-1j * times[..., None] * values) @ weights)
    assert (mags <= bound[:, None] + 1e-12).all()


@pytest.mark.parametrize(
    "g, kind, pair, t_max, first, later",
    [
        # wheel5 0 -> 4: two clusters, 1 +- sqrt 6, whose period is 128 grid
        # steps, so all 1559 grid maxima sit at the same phase
        (join(empty(1), cycle(5)), "adjacency", (0, 4), 2000.0, 0.64127, 1.923824745242673),
        # C6 normalized 0 -> 5: gaps 1/2, 3/2 and 2, period 4 pi = 512 steps
        (cycle(6), "normalized", (0, 5), 2e4, 1.87186, 7416.030521383234),
    ],
)
def test_more_equal_grid_maxima_than_the_cap_go_to_the_first(g, kind, pair, t_max, first, later):
    # more than PEAK_CAP grid maxima are equal up to rounding; keeping the
    # largest PEAK_CAP by magnitude let rounding choose, and the search once
    # answered ``later``. The oracle walk finds the same magnitude at both.
    h = operator(g, kind)
    cert = search_pst(h, pair, t_max)
    assert abs(cert.time - first) < 1e-4
    u, v = pair
    at_first = abs(oracle.walk_oracle(h.matrix, cert.time)[v, u])
    at_later = abs(oracle.walk_oracle(h.matrix, later)[v, u])
    assert abs(at_first - cert.magnitude) < 1e-9
    assert abs(at_later - at_first) < 1e-8


def test_long_horizons_are_refused_where_rounding_decides():
    # K2 under the standard Laplacian: values 0 and 2, weights 1/2 and -1/2,
    # so the rounding bound eps * t * 2 * 1 reaches 1e-6 at t = 1e-6 / (2 eps)
    h = standard_laplacian(complete(2))
    limit = (1.0 - pst.REFUTE_THRESHOLD) / (2 * np.finfo(float).eps)
    assert verify_pst(h, (0, 1), 0.99 * limit).magnitude <= 1.0
    for call in (verify_pst, search_pst):
        with pytest.raises(ValueError, match="too long"):
            call(h, (0, 1), 1.01 * limit)


def test_single_cluster_pair_answers_at_zero_for_any_horizon():
    # the pair's support is one cluster, at eigenvalue 5: |a(t)| is constant,
    # nothing is scanned, so no horizon is too long
    h = Hamiltonian(OperatorKind.CUSTOM, np.diag([2.0, 5.0]))
    for t_max in (1.0, 1e300):
        cert = search_pst(h, (1, 1), t_max)
        assert (cert.time, cert.magnitude, cert.method) == (0.0, 1.0, pst.METHOD_GRID)


# -- one period of an integral support ----------------------------------------


def _star(leaves):
    return join(empty(1), empty(leaves))


# pairs whose eigenvalue support is integral under the kind
INTEGRAL_PAIRS = [
    *[(join(empty(2), base), "standard", (0, 1)) for base in (empty(3), complete(4), path(5), cycle(6))],
    (join(empty(2), empty(4)), "signless", (0, 1)),
    (join(empty(2), empty(2)), "adjacency", (0, 3)),
    *[(complete(n), kind, (0, n - 1)) for n, kind in ((4, "adjacency"), (5, "standard"), (7, "signless"))],
    (_star(4), "adjacency", (0, 4)),
    (_star(8), "standard", (0, 8)),
    (_star(3), "signless", (0, 3)),
    (join(empty(2), empty(3)), "standard", (0, 4)),
    (join(empty(3), empty(4)), "signless", (0, 6)),
    (hypercube(5), "adjacency", (0, 31)),
    (hypercube(4), "standard", (0, 15)),
    (hypercube(3), "signless", (0, 7)),
    (cartesian_product(complete(3), hypercube(2)), "adjacency", (0, 11)),
    (cartesian_product(_star(4), complete(2)), "standard", (0, 9)),
    (cartesian_product(join(empty(2), empty(3)), complete(2)), "signless", (0, 9)),
]


@pytest.mark.parametrize("g, kind, pair", INTEGRAL_PAIRS)
def test_one_period_scan_matches_the_brute_force_horizon(monkeypatch, g, kind, pair):
    h, t_max = operator(g, kind), 40.0
    dec = eigendecompose(h)
    values, weights, dropped = pst._support(dec.values, dec.pair_weights(*pair))
    rounding = pst._rounding_bound(values, weights, t_max)
    period, drift = pst._period(values, weights, t_max, rounding)
    tie = rounding + drift + dropped
    cert, horizon = _scanned_horizon(monkeypatch, h, pair, t_max)
    assert horizon == period < t_max / 5 and cert.time <= period
    # direct exponentials over all of [0, t_max] see nothing better
    assert cert.magnitude >= oracle.scan_max(h.matrix, pair, t_max) - tie
    # neither does the engine's own grid over the whole horizon, and the
    # peaks it finds are no earlier
    monkeypatch.setattr(pst, "_period", lambda *args: None)
    full = search_pst(h, pair, t_max)
    assert cert.magnitude >= full.magnitude - tie and cert.time <= full.time + 1e-9


def _two_clusters(gap):
    """Eigenvalues -gap/2 and gap/2, pair weights -1/2 and 1/2 for (0, 1):
    |U(t)[1, 0]| = |sin(gap t / 2)|."""
    return Hamiltonian(OperatorKind.CUSTOM, np.array([[0.0, gap / 2], [gap / 2, 0.0]]))


def test_the_period_caps_only_a_resolvable_integral_support(monkeypatch):
    # gap 2: one period, pi
    cert, horizon = _scanned_horizon(monkeypatch, _two_clusters(2.0), (0, 1), 1000.0)
    assert horizon == math.pi and abs(cert.time - math.pi / 2) < 1e-9
    # 1e-8 from the integer 2, beyond INTEGER_TOL: the whole horizon, though
    # the drift 100 * 1e-8 / 2 would pass the guard
    cert, horizon = _scanned_horizon(monkeypatch, _two_clusters(2.0 + 1e-8), (0, 1), 100.0)
    assert horizon == 100.0 and abs(cert.time - math.pi / (2.0 + 1e-8)) < 1e-9
    # 5e-10 from 2, with weight 1/2: the drift t_max * 5e-10 / 2 stays
    # below 1e-6 up to t_max = 4000
    h = _two_clusters(2.0 + 5e-10)
    assert _scanned_horizon(monkeypatch, h, (0, 1), 3000.0)[1] == math.pi
    assert _scanned_horizon(monkeypatch, h, (0, 1), 5000.0)[1] == 5000.0
    # a gap of 5e-10 rounds to 0: there is no period
    cert, horizon = _scanned_horizon(monkeypatch, _two_clusters(5e-10), (0, 1), 1e10)
    assert horizon == 1e10 and cert.time > 6e9


def test_period_needs_a_positive_gcd_of_exact_integers_below_t_max():
    weights = np.array([0.5, -0.5])
    assert pst._period(np.array([0.0, 2.0**52]), weights, 1.0, 0.0) == (2 * math.pi / 2**52, 0.0)
    assert pst._period(np.array([0.0, 2.0**53]), weights, 1.0, 0.0) is None
    three = np.array([-1.0, 5.0, 8.0]), np.array([0.2, 0.3, 0.5])
    assert pst._period(*three, 10.0, 0.0) == (2 * math.pi / 3, 0.0)
    assert pst._period(*three, 2.0, 0.0) is None  # the horizon ends within one period
    assert pst._period(np.array([0.0, 1e-10]), weights, 1.0, 0.0) is None


def test_equal_peaks_over_many_periods_go_to_the_first():
    # the apex entry 1/6 - e^(-4it)/2 + e^(-6it)/3 of the double cone over
    # four isolated vertices peaks at sqrt(3)/2 at pi/3 + k pi and 2 pi/3 + k pi;
    # t_max = 2000 holds 637 periods, more equal grid maxima than PEAK_CAP, and
    # a whole-horizon scan kept a later one
    cert = search_pst(standard_laplacian(join(empty(2), empty(4))), (0, 1), 2000.0)
    assert abs(cert.time - math.pi / 3) < 1e-9
    assert abs(cert.magnitude - math.sqrt(3) / 2) < 1e-12


def _signless_complete_peaks(n, pair):
    # the peaks of the signless K_n entry (e^{-i(2n-2)t} - e^{-i(n-2)t})/n
    # are flat to rounding: a product that rounds one row differently from
    # several moves the refined pi/n by about 5e-13
    dec = eigendecompose(signless_laplacian(complete(n)))
    step = math.pi / float(dec.values[-1] - dec.values[0]) / 64  # search_pst's grid
    peaks = 64 + 128 * np.arange(5)  # pi/n and the next four periods
    return dec.values, dec.pair_weights(*pair), (peaks - 1) * step, (peaks + 1) * step


def _flat_peak(t0):
    """Values and weights of a(t) = 1 + 1.5 e^{-is} - 0.1 e^{-3is}, s = t - t0:
    |a|^2 = 3.26 + 3 cos s - 0.3 cos 2s - 0.2 cos 3s has its maximum 2.4^2 at
    s = 0, where its second derivative vanishes, so the slope has a triple
    root there and each Newton step closes only a third of the distance."""
    values = np.array([0.0, 1.0, 3.0])
    return values, np.array([1.0, 1.5, -0.1]) * np.exp(1j * values * t0)


def _flat_peak_among_others():
    # the flat bracket, the same peak a period later from other offsets, a
    # wide bracket around it and two on the flanks, which rise or fall
    # throughout and resolve to an end
    values, weights = _flat_peak(2.0)
    lo = 2.0 + np.array([-0.004, -1.01, 2 * math.pi - 0.0091, -3.0, 1.0])
    hi = 2.0 + np.array([0.006, -1.0, 2 * math.pi + 0.0013, 0.5, 1.01])
    return values, weights, lo, hi


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(lambda: _signless_complete_peaks(7, (0, 1)), id="7-pair0"),
        pytest.param(lambda: _signless_complete_peaks(7, (1, 3)), id="7-pair1"),
        pytest.param(lambda: _signless_complete_peaks(8, (0, 1)), id="8-pair2"),
        pytest.param(lambda: _signless_complete_peaks(8, (2, 5)), id="8-pair3"),
        pytest.param(_flat_peak_among_others, id="flat-peak"),
    ],
)
def test_refined_time_does_not_depend_on_the_other_brackets(case):
    values, weights, lo, hi = case()
    together = pst._refine_peak(values, weights, lo, hi)
    for j in range(len(lo)):
        assert pst._refine_peak(values, weights, lo[j : j + 1], hi[j : j + 1])[0] == together[j]
        assert pst._refine_peak(values, weights, lo[j:], hi[j:])[0] == together[j]


def _count_slope_evaluations(monkeypatch):
    calls = []
    evaluate = pst._amp_and_slope

    def spy(values, columns, ts):
        calls.append(len(ts))
        return evaluate(values, columns, ts)

    monkeypatch.setattr(pst, "_amp_and_slope", spy)
    return calls


def _twice_bisection(lo, hi):
    return 2 * math.ceil(math.log2((hi - lo) / pst.REFINE_TOL)) + 2


@pytest.mark.parametrize("t0, below, above", [(2.0, 0.004, 0.006), (0.7, 0.0091, 0.0013), (9000.3, 0.01, 0.01)])
def test_a_flat_peak_takes_at_most_twice_the_bisection_steps(monkeypatch, t0, below, above):
    # Newton alone converges only linearly on the triple root; the halving
    # guard bisects whenever the bracket falls behind one halving per two steps
    values, weights = _flat_peak(t0)
    lo, hi = t0 - below, t0 + above
    calls = _count_slope_evaluations(monkeypatch)
    t = pst._refine_peak(values, weights, [lo], [hi])
    assert len(calls) <= _twice_bisection(lo, hi)
    peak = abs(entry_sum(values, weights, [t0], 0.0)[0])
    assert abs(abs(entry_sum(values, weights, t, 0.0)[0]) - peak) < 1e-14


@pytest.mark.parametrize("power", [3, 9, 15])
def test_the_halving_guard_bounds_newton_on_a_root_of_high_order(monkeypatch, power):
    # on the slope -(t - r)^power Newton closes only 1/power of the distance
    # per step: unguarded it takes 58, 185 and 307 evaluations here
    r, lo, hi = 1.0 + 1e-3 / 3, 1.0 - 0.004, 1.0 + 0.006
    calls = []

    def slope(values, columns, ts):
        calls.append(len(ts))
        return np.ones(len(ts)), -((ts - r) ** power), -power * (ts - r) ** (power - 1)

    monkeypatch.setattr(pst, "_amp_and_slope", slope)
    t = pst._refine_peak(np.zeros(2), np.ones(2), [lo], [hi])[0]
    assert len(calls) <= _twice_bisection(lo, hi)
    assert abs(t - r) <= pst.REFINE_TOL


@pytest.mark.parametrize("turns", [3000, 318309, 10**7])
def test_refinement_ends_where_floats_are_coarser_than_the_push(monkeypatch, turns):
    # |a| = |sin t| for the ends of K2 under the standard Laplacian, peaking
    # at pi/2 + k pi; near 9.4e3, 1e6 and 3e7 adjacent floats lie 1.8e-12,
    # 1.2e-10 and 3.7e-9 apart, more than the push of REFINE_TOL / 4, so the
    # push is one float spacing
    dec = eigendecompose(standard_laplacian(complete(2)))
    values, weights = dec.values, dec.pair_weights(0, 1)
    peak = math.pi / 2 + turns * math.pi
    lo, hi = peak - 0.013, peak + 0.007
    calls = _count_slope_evaluations(monkeypatch)
    t = float(pst._refine_peak(values, weights, [lo], [hi])[0])
    assert len(calls) <= _twice_bisection(lo, hi)
    gap = max(pst.REFINE_TOL, math.ulp(t))
    assert oracle.slope(values, weights, t - gap) >= 0.0 >= oracle.slope(values, weights, t + gap)
    assert abs(t - oracle.bisect_peak(values, weights, lo, hi)) <= gap


@pytest.mark.parametrize("kind", ["adjacency", "standard", "signless", "normalized"])
def test_refined_peaks_match_plain_bisection(monkeypatch, kind):
    # brackets of search_pst's grid maxima over [0, 20], widened by up to a
    # grid step on either side so the peak sits anywhere inside
    rng = np.random.default_rng(23)
    calls = _count_slope_evaluations(monkeypatch)
    checked = 0
    for g in random_connected_graphs(4, seed=23):
        dec = eigendecompose(operator(g, OperatorKind(kind)))
        for u, v in rng.choice(g.n, size=(2, 2), replace=False):
            values, weights, _ = pst._support(dec.values, dec.pair_weights(u, v))
            if len(values) < 2:
                continue
            step = (math.pi / float(values[-1] - values[0])) / 64
            times = np.arange(math.ceil(20.0 / step)) * step
            mags = np.abs(entry_sum(values, weights, times, 0.0))
            peaks = 1 + np.flatnonzero((mags[1:-1] >= mags[:-2]) & (mags[1:-1] >= mags[2:]))
            lo = times[peaks - 1] - rng.uniform(0.0, step, len(peaks))
            hi = times[peaks + 1] + rng.uniform(0.0, step, len(peaks))
            rising = [oracle.slope(values, weights, a) >= 0.0 >= oracle.slope(values, weights, b) for a, b in zip(lo, hi)]
            lo, hi = lo[rising], hi[rising]
            calls.clear()
            refined = pst._refine_peak(values, weights, lo, hi)
            assert len(calls) <= 10  # bisection takes about 37 here
            for t, a, b in zip(refined, lo, hi):
                gap = max(pst.REFINE_TOL, math.ulp(t))
                assert abs(t - oracle.bisect_peak(values, weights, a, b)) <= gap
                assert oracle.slope(values, weights, t - gap) >= 0.0 >= oracle.slope(values, weights, t + gap)
                checked += 1
    assert checked >= 20
