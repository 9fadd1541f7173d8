import cmath
import math

import numpy as np
import pytest

from oracle import p3_alpha_fidelity, walk_oracle, weighted_p3

from lapwalk.corpus import named_small_graphs
from lapwalk.graphs import (
    cartesian_product,
    complete,
    cycle,
    disjoint_union,
    empty,
    hypercube,
    join,
    odd_unicyclic,
    path,
)
from lapwalk.linegraph import intertwine_check
from lapwalk.operators import (
    Hamiltonian,
    OperatorKind,
    adjacency,
    normalized_laplacian,
    operator,
    signless_laplacian,
    standard_laplacian,
)
from lapwalk.pst import (
    complement_closure_check,
    join_walk_entry,
    normalized_weak_product_walk_check,
    walk_entries,
)
from lapwalk.spectral import cartesian_walk_check, eigendecompose


def test_eigendecompose_k2():
    dec = eigendecompose(standard_laplacian(complete(2)))
    assert np.allclose(dec.values, [0, 2], atol=1e-12)
    assert np.allclose(dec.projectors[0], [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)
    assert np.allclose(dec.projectors[1], [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)


def test_eigendecompose_q3_normalized_clusters():
    dec = eigendecompose(normalized_laplacian(hypercube(3)))
    assert np.allclose(dec.values, [0, 2 / 3, 4 / 3, 2], atol=1e-10)
    assert dec.multiplicities == (1, 3, 3, 1)


def test_eigendecompose_c6():
    dec = eigendecompose(adjacency(cycle(6)))
    assert np.allclose(np.sort(dec.eigenvalues), [-2, -1, -1, 1, 1, 2], atol=1e-9)


def test_cluster_values_are_the_means_of_their_eigenvalues():
    # to the last bit, against splitting the spectrum and averaging each part
    rng = np.random.default_rng(3)
    spread = np.repeat([-1.0, 0.5, 2.0, 7.0], [1, 3, 40, 2]) + rng.normal(size=46) * 1e-10
    cases = [np.diag(np.sort(spread)), np.diag(rng.normal(size=9))]
    for _, g in named_small_graphs()[:12]:
        cases += [adjacency(g).matrix, standard_laplacian(g).matrix]
    cases += [standard_laplacian(join(empty(2), cycle(98))).matrix, adjacency(hypercube(6)).matrix]
    for m in cases:
        dec = eigendecompose(Hamiltonian(OperatorKind.CUSTOM, m))
        evals = dec.eigenvalues
        cuts = np.flatnonzero(np.diff(evals) > 1e-8 * (evals[-1] - evals[0])) + 1
        clusters = np.split(evals, cuts)
        assert dec.multiplicities == tuple(len(c) for c in clusters)
        assert dec.values.tobytes() == np.array([c.mean() for c in clusters]).tobytes()


def test_decomposition_invariants():
    for label, g in named_small_graphs()[:12]:
        dec = eigendecompose(standard_laplacian(g))
        total = sum(dec.projectors)
        assert np.abs(total - np.eye(g.n)).max() < 1e-10, label
        for j, pj in enumerate(dec.projectors):
            for k, pk in enumerate(dec.projectors):
                expected = pj if j == k else 0.0
                assert np.abs(pj @ pk - expected).max() < 1e-10, label
        rebuilt = sum(v * p for v, p in zip(dec.values, dec.projectors))
        scale = max(1.0, np.abs(dec.eigenvalues).max())
        assert np.abs(rebuilt - standard_laplacian(g).matrix).max() / scale < 1e-9, label


def test_eigenvector_blocks_match_projectors():
    # degenerate spectra, where a cluster holds several eigenvectors
    cases = [
        normalized_laplacian(hypercube(3)),
        adjacency(cycle(6)),
        standard_laplacian(join(empty(2), cycle(4))),
    ]
    for h in cases:
        dec = eigendecompose(h)
        assert max(dec.multiplicities) >= 2
        projectors = dec.projectors
        for t in (0.0, 0.7, math.pi, 12.5):
            expected = sum(np.exp(-1j * t * val) * p for val, p in zip(dec.values, projectors))
            assert np.abs(dec.matrix_at(t) - expected).max() < 1e-12
        for u in range(h.n):
            for v in range(h.n):
                expected = [p[v, u] for p in projectors]
                assert np.abs(dec.pair_weights(u, v) - expected).max() < 1e-12


def test_eigendecompose_rejects_asymmetric_array():
    # within np.allclose's default rtol, but not symmetric
    with pytest.raises(ValueError, match="exactly symmetric"):
        eigendecompose(Hamiltonian(OperatorKind.CUSTOM, np.array([[0.0, 1.0], [1.000001, 0.0]])))


def test_walk_identity_at_zero():
    for h in (standard_laplacian(path(4)), adjacency(cycle(5))):
        assert np.array_equal(eigendecompose(h).matrix_at(0.0), np.eye(h.n, dtype=complex))


def test_walk_k2_pst():
    mag = abs(eigendecompose(standard_laplacian(complete(2))).amplitude(0, 1, [math.pi / 2])[0])
    assert abs(mag - 1.0) < 1e-9


def test_walk_normalized_p3():
    mag = abs(eigendecompose(normalized_laplacian(path(3))).amplitude(0, 2, [math.pi])[0])
    assert abs(mag - 1.0) < 1e-9


def test_fidelity_trivial():
    amp = complex(eigendecompose(standard_laplacian(path(4))).amplitude(2, 2, [0.0])[0])
    assert abs(amp) == pytest.approx(1.0, abs=1e-12)
    assert cmath.phase(amp) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_examples():
    g = join(empty(2), complete(2))
    mag = abs(eigendecompose(standard_laplacian(g)).amplitude(0, 1, [math.pi / 2])[0])
    assert abs(mag - 1.0) < 1e-9
    from lapwalk.graphs import disjoint_union

    g2 = join(empty(2), disjoint_union(complete(2), complete(2)))
    mag2 = abs(eigendecompose(signless_laplacian(g2)).amplitude(0, 1, [math.pi / math.sqrt(8)])[0])
    assert abs(mag2 - 1.0) < 1e-9


def test_unitarity_and_group_law_random():
    rng = np.random.default_rng(17)
    gallery = named_small_graphs()
    kinds = [OperatorKind.ADJACENCY, OperatorKind.STANDARD, OperatorKind.SIGNLESS]
    for _ in range(100):
        label, g = gallery[int(rng.integers(len(gallery)))]
        kind = kinds[int(rng.integers(len(kinds)))]
        t = float(rng.uniform(0, 30))
        dec = eigendecompose(operator(g, kind))
        u = dec.matrix_at(t)
        assert np.abs(u @ u.conj().T - np.eye(g.n)).max() < 1e-9, label
        s = float(rng.uniform(0, 30))
        assert np.abs(dec.matrix_at(s) @ dec.matrix_at(t) - dec.matrix_at(s + t)).max() < 1e-9


def test_walk_matches_series_oracle():
    for label, g in named_small_graphs()[:8]:
        h = standard_laplacian(g)
        for t in (0.3, 1.7, math.pi):
            assert np.abs(eigendecompose(h).matrix_at(t) - walk_oracle(h.matrix, t)).max() < 1e-10, label


def test_regular_equivalence():
    for g, k in [(cycle(6), 2), (complete(5), 4), (hypercube(3), 3)]:
        t = 1.3
        da = eigendecompose(adjacency(g))
        ua = np.abs(da.matrix_at(t))
        ul = np.abs(eigendecompose(standard_laplacian(g)).matrix_at(t))
        uq = np.abs(eigendecompose(signless_laplacian(g)).matrix_at(t))
        un = np.abs(eigendecompose(normalized_laplacian(g)).matrix_at(t))
        ua_dilated = np.abs(da.matrix_at(t / k))
        assert np.abs(ul - ua).max() < 1e-9
        assert np.abs(uq - ua).max() < 1e-9
        assert np.abs(un - ua_dilated).max() < 1e-9


def test_bipartite_equivalence():
    for g in (path(5), hypercube(3), cycle(6)):
        dl = eigendecompose(standard_laplacian(g))
        dq = eigendecompose(signless_laplacian(g))
        for t in (0.4, math.pi, 7.0):
            ul = np.abs(dl.matrix_at(t))
            uq = np.abs(dq.matrix_at(t))
            assert np.abs(ul - uq).max() < 1e-9


def test_p3_alpha_closed_form_matches_walk():
    for alpha in np.linspace(-5, 5, 11):
        h = Hamiltonian(OperatorKind.CUSTOM, weighted_p3(float(alpha)))
        ts = np.linspace(0, 20, 21)
        for t, generic in zip(ts, walk_entries(h, (0, 2), ts)):
            assert abs(p3_alpha_fidelity(float(alpha), float(t)) - generic) < 1e-10


def test_p3_alpha_one_has_no_pst_scan():
    # n=4 double-cone case: alpha = 1; dense closed-form scan stays away from 1
    ts = np.linspace(0, 100, 200001)
    half = 0.5
    delta = math.sqrt(half**2 + 2)
    osc = np.cos(delta * ts) + 1j * (half / delta) * np.sin(delta * ts)
    mags = np.abs(-0.5 + 0.5 * np.exp(-1j * ts * half) * osc)
    assert mags.max() < 1 - 1e-6


def test_join_walk_entry_matches_direct():
    g, h = complete(2), path(3)
    l_g = standard_laplacian(g)
    joined = join(g, h)
    dec_join = eigendecompose(standard_laplacian(joined))
    rng = np.random.default_rng(23)
    for t in rng.uniform(0, 25, 20):
        closed = join_walk_entry(l_g, h.n, (0, 1), float(t))
        direct = complex(dec_join.amplitude(0, 1, [float(t)])[0])
        assert abs(closed - direct) < 1e-9
    assert join_walk_entry(l_g, 3, (0, 0), 0.0) == pytest.approx(1.0)


def test_join_walk_entry_reads_the_order_of_its_factor_and_checks_the_pair():
    # the factor's order is its Laplacian's: a 3-vertex factor beside 2
    # vertices is the 5-vertex join, whichever pair of the factor is read
    g, h = path(3), empty(2)
    l_g = standard_laplacian(g)
    dec_join = eigendecompose(standard_laplacian(join(g, h)))
    for pair in [(0, 2), (1, 1), (2, 1)]:
        for t in (0.4, 1.3, 5.0):
            direct = complex(dec_join.amplitude(*pair, [t])[0])
            assert abs(join_walk_entry(l_g, h.n, pair, t) - direct) < 1e-9
    # a vertex outside the factor raises, whether it would wrap or overrun
    for pair, vertex in [((-1, 0), -1), ((0, -1), -1), ((3, 0), 3), ((0, 3), 3)]:
        with pytest.raises(ValueError, match=f"^vertex {vertex} out of range$"):
            join_walk_entry(l_g, h.n, pair, 0.7)


def test_join_walk_entry_obeys_the_horizon_rule():
    # at t = 1e15 rounding alone could move the factor's entry by far more
    # than the gap between the thresholds, as walk_entries on the join says
    l_c5 = standard_laplacian(cycle(5))
    with pytest.raises(ValueError, match="too long"):
        walk_entries(standard_laplacian(join(cycle(5), empty(2))), (0, 2), [1e15])
    with pytest.raises(ValueError, match="too long"):
        join_walk_entry(l_c5, 2, (0, 2), 1e15)
    # inside the horizon the factor's entry is the one walk_entries reads
    inner = walk_entries(l_c5, (0, 2), [3.0])[0]
    e_n, e_mn = cmath.exp(-6j), cmath.exp(-21j)
    assert join_walk_entry(l_c5, 2, (0, 2), 3.0) == e_n * inner + (e_mn - e_n) / 5 + (1.0 - e_mn) / 7


def test_join_cross_entry():
    # between the two sides of a join the standard-Laplacian walk entry is
    # (1 - e^{-it(m+n)})/(m+n), whichever vertices are read
    g, h = complete(2), path(3)
    dec = eigendecompose(standard_laplacian(join(g, h)))
    m, n = g.n, h.n
    for t in (0.3, 1.1, 2.9, 2 * math.pi / 5):
        closed = (1.0 - cmath.exp(-1j * t * (m + n))) / (m + n)
        for u, v in [(0, m), (1, m + 1), (0, m + 2)]:
            assert abs(complex(dec.amplitude(u, v, [t])[0]) - closed) < 1e-10
    # zero exactly when t(m+n) is a multiple of 2 pi
    assert abs(complex(dec.amplitude(0, m + 1, [2 * math.pi / 5])[0])) < 1e-12


def test_cartesian_walk_check():
    dc = join(empty(2), complete(2))
    hk = standard_laplacian(complete(2))
    hdc = standard_laplacian(dc)
    assert cartesian_walk_check(hk, hdc, math.pi / 2) < 1e-9
    assert cartesian_walk_check(hk, hdc, 0.0) == 0.0
    # antipodal transfer on Q2 = K2 box K2
    q2 = cartesian_product(complete(2), complete(2))
    mag = abs(eigendecompose(standard_laplacian(q2)).amplitude(0, 3, [math.pi / 2])[0])
    assert abs(mag - 1.0) < 1e-9
    with pytest.raises(ValueError):
        cartesian_walk_check(hk, signless_laplacian(dc), 1.0)
    with pytest.raises(ValueError):
        cartesian_walk_check(adjacency(complete(2)), adjacency(dc), 1.0)


# each whole-matrix check on one input, with the number of operators it decomposes
WHOLE_MATRIX_CHECKS = {
    "complement-closure": (
        lambda times: complement_closure_check(disjoint_union(complete(2), empty(6)), times),
        2,
    ),
    "line-intertwine": (lambda times: intertwine_check(odd_unicyclic(2)[0], times), 2),
    "weak-product": (lambda times: normalized_weak_product_walk_check(path(3), complete(4), times), 3),
    "cartesian": (
        lambda times: cartesian_walk_check(standard_laplacian(path(3)), standard_laplacian(cycle(4)), times),
        3,
    ),
}


@pytest.mark.parametrize("name", sorted(WHOLE_MATRIX_CHECKS))
def test_whole_matrix_check_reads_every_time_from_one_eigensolve(name, eigh_calls):
    check, operators = WHOLE_MATRIX_CHECKS[name]
    times = (0.0, 0.1, 1.0, math.pi / 2, math.pi, 10.0, 3 * math.pi)
    singles = [check(t) for t in times]
    assert not any(isinstance(result, list) for result in singles)
    assert len(eigh_calls) == operators * len(times)
    del eigh_calls[:]
    # a sequence of times gives exactly the single-time results, in order
    assert check(times) == singles
    assert check(list(reversed(times))) == singles[::-1]
    assert check(np.array(times)) == singles
    assert check(()) == []
    # one eigensolve per operator per call, whatever the number of times
    assert len(eigh_calls) == 4 * operators
