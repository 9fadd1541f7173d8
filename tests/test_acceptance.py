"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
Everything here is deterministic and finishes in well under five minutes.
"""

import math

import numpy as np

from oracle import partition_matrix, walk_oracle

from lapwalk.control import (
    exact_rank,
    unicyclic_no_pst_pipeline,
    walk_matrix,
)
from lapwalk.corpus import named_small_graphs, random_connected_graphs
from lapwalk.graphs import (
    cartesian_product,
    circulant_family,
    complete,
    cone_p4_with_pendant,
    cycle,
    disjoint_union,
    empty,
    hypercube,
    join,
    line_graph,
    odd_unicyclic,
    path,
    weak_product,
)
from lapwalk.linegraph import intertwine_check
from lapwalk.operators import (
    Hamiltonian,
    OperatorKind,
    normalized_laplacian,
    operator,
    signless_laplacian,
    standard_laplacian,
)
from lapwalk.partitions import (
    check_almost_equitable,
    check_equitable,
    coarsest_equitable_refinement,
    quotient,
)
from lapwalk.pst import (
    complement_closure_check,
    connected_double_cone_refutation,
    double_cone_characterization,
    join_walk_entry,
    normalized_weak_product_walk_check,
    path_cycle_correspondence,
    search_pst,
    verify_pst,
    walk_entries,
)
from lapwalk.spectral import cartesian_walk_check, eigendecompose

MAGNITUDE_TOL = 1e-9
TIME_TOL = 1e-9
IDENTITY_TOL = 1e-9
SCAN_THRESHOLD = 1.0 - 1e-6
TIMES = (0.1, 1.0, math.pi, 10.0)


def _announce(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {criterion}: {status}{suffix}")


def test_criterion_1_pst_positives():
    """Transfer certificates at the stated times, plus time recovery."""
    ok = True
    two_k2 = disjoint_union(complete(2), complete(2))
    cases = [
        ("L double cone over K2", standard_laplacian(join(empty(2), complete(2))), (0, 1), math.pi / 2),
        ("Q double cone over 2K2", signless_laplacian(join(empty(2), two_k2)), (0, 1), math.pi / math.sqrt(8)),
        ("normalized P3", normalized_laplacian(path(3)), (0, 2), math.pi),
    ]
    for n in (1, 2, 3):
        q = hypercube(n)
        anti = (0, 2**n - 1)
        cases.append((f"L Q{n}", standard_laplacian(q), anti, math.pi / 2))
        cases.append((f"normalized Q{n}", normalized_laplacian(q), anti, n * math.pi / 2))
    for m in (2, 3, 4):
        g = join(empty(2), circulant_family(m))
        cases.append(
            (f"Q cone over circulant family m={m}", signless_laplacian(g), (0, 1), math.pi / (2 * math.sqrt(m)))
        )
    for m in (1, 2):
        t = (2 * m - 1) * math.pi
        clique = complete(2 * m)
        cube = hypercube(2 * m - 1)
        pk = weak_product(path(3), clique)
        pq = weak_product(path(3), cube)
        cases.append((f"normalized P3xK{2*m}", normalized_laplacian(pk), (0, 2 * clique.n), t))
        cases.append((f"normalized P3xQ{2*m-1}", normalized_laplacian(pq), (0, 2 * cube.n), t))
    box = cartesian_product(complete(2), join(empty(2), complete(2)))
    cases.append(("L K2 box double cone", standard_laplacian(box), (0, 5), math.pi / 2))

    for label, h, pair, t in cases:
        res = verify_pst(h, pair, t)
        good = res.magnitude >= 1 - MAGNITUDE_TOL
        assert good, f"{label}: magnitude {res.magnitude}"
        ok = ok and good

    # searched times must land within 1e-9 of the stated ones
    searched = [
        (standard_laplacian(join(empty(2), complete(2))), (0, 1), 4.0, math.pi / 2),
        (signless_laplacian(join(empty(2), circulant_family(3))), (0, 1), 2.0, math.pi / math.sqrt(12)),
        (normalized_laplacian(path(3)), (0, 2), 4.0, math.pi),
    ]
    for h, pair, t_max, expected in searched:
        cert = search_pst(h, pair, t_max)
        assert cert.magnitude >= 1 - MAGNITUDE_TOL
        assert abs(cert.time - expected) < TIME_TOL
    _announce("1 (PST positives)", ok, f"{len(cases)} certificates + {len(searched)} searches")


def test_criterion_2_double_cone_characterization():
    results = double_cone_characterization(range(1, 11))
    ok = True
    for res in results:
        expected = res.n % 4 == 2
        assert res.has_pst == expected, f"n={res.n}"
        assert len(res.bases) >= 3 or res.n < 3  # all graphs of that order exist
        ok = ok and (res.has_pst == expected)
    _announce("2 (double-cone iff n = 2 mod 4)", ok, "n = 1..10, >= 3 bases each for n >= 3")


def _identity_corpus():
    graphs = [g for _, g in named_small_graphs()]
    graphs += random_connected_graphs(6, seed=101)
    assert len(graphs) >= 20
    assert all(g.n <= 10 for g in graphs)
    return graphs


def test_criterion_3_identity_suites():
    corpus = _identity_corpus()
    worst = {}

    # complement closure whenever nt = 0 (mod 2 pi)
    dev = 0.0
    for g in corpus:
        for condition, deviation in complement_closure_check(g, [2 * math.pi * k / g.n for k in (1, 2)]):
            assert condition
            dev = max(dev, deviation)
    assert dev < IDENTITY_TOL
    worst["complement-closure"] = dev

    # Cartesian factorization for both unnormalized Laplacians
    dev = 0.0
    pairs = [(corpus[i], corpus[(i + 7) % len(corpus)]) for i in range(0, 12, 2)]
    for g, h in pairs:
        for kind in (OperatorKind.STANDARD, OperatorKind.SIGNLESS):
            dev = max(dev, *cartesian_walk_check(operator(g, kind), operator(h, kind), TIMES))
    assert dev < IDENTITY_TOL
    worst["cartesian"] = dev

    # join closed form vs direct exponential
    dev = 0.0
    for g, h in pairs[:4]:
        l_g = standard_laplacian(g)
        joined = join(g, h)
        dec_join = eigendecompose(standard_laplacian(joined))
        for t in TIMES:
            closed = join_walk_entry(l_g, h.n, (0, min(1, g.n - 1)), t)
            direct = complex(dec_join.amplitude(0, min(1, g.n - 1), [t])[0])
            dev = max(dev, abs(closed - direct))
    assert dev < IDENTITY_TOL
    worst["join"] = dev

    # line-graph intertwinings
    dev = 0.0
    for g in corpus:
        if g.edge_count < 1:
            continue
        for devs in intertwine_check(g, TIMES):
            dev = max(dev, *devs)
    assert dev < IDENTITY_TOL
    worst["line-intertwine"] = dev

    # normalized weak product (needs minimum degree >= 1 in both factors)
    dev = 0.0
    checked = 0
    for g, h in pairs[:4]:
        if min(g.degrees().min(), h.degrees().min()) < 1:
            continue
        for chk in normalized_weak_product_walk_check(g, h, TIMES):
            dev = max(dev, chk.max_deviation)
        checked += 1
    assert checked >= 2 and dev < IDENTITY_TOL
    worst["weak-product"] = dev

    # quotient intertwining M P = P B for the three kinds
    dev = 0.0
    for g in corpus:
        p = coarsest_equitable_refinement(g, [range(g.n)])
        pm = partition_matrix(p)
        for kind in (OperatorKind.ADJACENCY, OperatorKind.STANDARD, OperatorKind.SIGNLESS):
            b = quotient(p, kind)  # read from the refinement's counts; checked here
            m = operator(g, kind).matrix
            dev = max(dev, float(np.abs(m @ pm - pm @ b).max()))
    assert dev < 1e-10
    worst["quotient"] = dev

    # lifting equality on partitions with singleton endpoints
    dev = 0.0
    lift_cases = []
    for n in (6, 8, 10):
        c = cycle(n)
        half = n // 2
        cells = [(0,)] + [(k, n - k) for k in range(1, half)] + [(half,)]
        lift_cases.append((c, check_equitable(c, cells), OperatorKind.ADJACENCY, 0, half))
    for base in (complete(4), disjoint_union(complete(2), complete(2))):
        g = join(empty(2), base)
        part = check_equitable(g, [(0,), tuple(range(2, g.n)), (1,)])
        lift_cases.append((g, part, OperatorKind.SIGNLESS, 0, 1))
    for base in (path(3), empty(5)):
        g = join(empty(2), base)
        part = check_almost_equitable(g, [(0,), tuple(range(2, g.n)), (1,)])
        lift_cases.append((g, part, OperatorKind.STANDARD, 0, 1))
    for g, part, kind, u, v in lift_cases:
        big = walk_entries(operator(g, kind), (u, v), TIMES)
        b = Hamiltonian(OperatorKind.CUSTOM, quotient(part, kind))
        small = walk_entries(b, (part.cell_of[u], part.cell_of[v]), TIMES)
        dev = max(dev, float(np.abs(np.abs(big) - np.abs(small)).max()))
    assert dev < IDENTITY_TOL
    worst["lifting"] = dev

    # path <-> cycle: the folding partition and its counts, exactly; the
    # walk magnitudes under the time dilation, by the series oracle
    dev = 0.0
    for n in range(2, 9):
        assert path_cycle_correspondence(n).holds
        m = n - 1
        a_cycle = cycle(2 * m).adjacency() if m > 1 else np.array([[0.0, 2.0], [2.0, 0.0]])
        for t in TIMES:
            lhs = walk_oracle(normalized_laplacian(path(n)).matrix, t)[n - 1, 0]
            rhs = walk_oracle(a_cycle, t / 2)[m, 0]
            dev = max(dev, abs(abs(lhs) - abs(rhs)))
    assert dev < IDENTITY_TOL
    worst["path-cycle"] = dev

    detail = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    _announce("3 (identity suites)", True, detail)


def test_criterion_4_negative_scans():
    ok = True
    rows = []
    for n in range(4, 9):
        p = path(n)
        anti = (0, n - 1)
        for kind in (OperatorKind.STANDARD, OperatorKind.SIGNLESS, OperatorKind.NORMALIZED):
            cert = search_pst(operator(p, kind), anti, 200.0)
            assert cert.magnitude < SCAN_THRESHOLD, f"P{n} {kind.value}"
            rows.append(cert.magnitude)
    for m in (1, 2, 4, 5):
        u, ends = odd_unicyclic(m)
        cert = search_pst(signless_laplacian(u), ends, 200.0)
        assert cert.magnitude < SCAN_THRESHOLD, f"U{m}"
        rows.append(cert.magnitude)
    for base in (complete(2), empty(2), path(3), cycle(3), complete(3)):
        cert = connected_double_cone_refutation(base)
        assert cert.magnitude < SCAN_THRESHOLD
        rows.append(cert.magnitude)
    _announce("4 (negative scans)", ok, f"{len(rows)} scans, max magnitude {max(rows):.6f}")


def test_criterion_5_controllability():
    for m in range(12):
        pc = cone_p4_with_pendant(m)
        assert (exact_rank(walk_matrix(pc.graph, (pc.probe,))) == pc.graph.n) == (m % 3 != 2), m
    for m in (1, 2, 4, 5):
        u, ends = odd_unicyclic(m)
        lg = line_graph(u)
        for end in ends:
            idx = next(i for i, e in enumerate(u.edges) if end in e)
            assert exact_rank(walk_matrix(lg, (idx,))) == lg.n, (m, end)
        rep = unicyclic_no_pst_pipeline(m)
        assert rep.verdict == "no-pst"
    _announce("5 (controllability)", True, "mod-3 law m=0..11; line-graph endpoints m=1,2,4,5")


def test_criterion_6_spectral_facts():
    for m in (1, 2, 3):
        clique = complete(2 * m)
        vals = eigendecompose(normalized_laplacian(clique)).values
        expected = [0.0, 1.0 + 1.0 / (2 * m - 1)]
        assert np.abs(np.sort(vals) - np.array(expected)).max() < 1e-9, f"K{2*m}"
        cube = hypercube(2 * m - 1)
        vals = eigendecompose(normalized_laplacian(cube)).values
        expected = [2.0 * k / (2 * m - 1) for k in range(2 * m)]
        assert np.abs(np.sort(vals) - np.array(expected)).max() < 1e-9, f"Q{2*m-1}"
    for n in range(2, 11):
        alpha = (n - 2) / math.sqrt(n)
        half = alpha / 2
        delta = math.sqrt(half * half + 2)
        assert abs(half / delta - (n - 2) / (n + 2)) < 1e-12
    _announce("6 (spectral facts)", True, "normalized spectra m=1..3; quotient ratio n=2..10")


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(77)
    checked = 0
    for g in random_connected_graphs(10, n_min=4, n_max=8, seed=202):
        kind = (OperatorKind.ADJACENCY, OperatorKind.STANDARD, OperatorKind.SIGNLESS)[
            int(rng.integers(3))
        ]
        h = operator(g, kind)
        dec = eigendecompose(h)
        for t in (0.4, 2.2, 11.0):
            direct = dec.matrix_at(t)
            oracle = walk_oracle(h.matrix, t)
            assert np.abs(direct - oracle).max() < 1e-8
            checked += 1
    _announce("7 (oracle equivalence)", True, f"{checked} matrix comparisons")
