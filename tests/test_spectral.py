import cmath
import math

import numpy as np
import pytest

from oracle import walk_oracle

from lapwalk.corpus import named_small_graphs
from lapwalk.graphs import (
    cartesian_product,
    complete,
    cycle,
    empty,
    hypercube,
    join,
    path,
)
from lapwalk.operators import (
    OperatorKind,
    adjacency,
    normalized_laplacian,
    operator,
    signless_laplacian,
    standard_laplacian,
    weighted_p3,
)
from lapwalk.spectral import (
    cartesian_walk_check,
    eigendecompose,
    join_cross_entry,
    join_walk_entry,
    p3_alpha_fidelity,
    p3_alpha_pst_condition,
    walk,
)


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
        eigendecompose(np.array([[0.0, 1.0], [1.000001, 0.0]]))


def test_walk_identity_at_zero():
    for h in (standard_laplacian(path(4)), adjacency(cycle(5))):
        assert np.array_equal(walk(h, 0.0), np.eye(h.n, dtype=complex))


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
            assert np.abs(walk(h, t) - walk_oracle(h.matrix, t)).max() < 1e-10, label


def test_regular_equivalence():
    for g, k in [(cycle(6), 2), (complete(5), 4), (hypercube(3), 3)]:
        t = 1.3
        ua = np.abs(walk(adjacency(g), t))
        ul = np.abs(walk(standard_laplacian(g), t))
        uq = np.abs(walk(signless_laplacian(g), t))
        un = np.abs(walk(normalized_laplacian(g), t))
        ua_dilated = np.abs(walk(adjacency(g), t / k))
        assert np.abs(ul - ua).max() < 1e-9
        assert np.abs(uq - ua).max() < 1e-9
        assert np.abs(un - ua_dilated).max() < 1e-9


def test_bipartite_equivalence():
    for g in (path(5), hypercube(3), cycle(6)):
        for t in (0.4, math.pi, 7.0):
            ul = np.abs(walk(standard_laplacian(g), t))
            uq = np.abs(walk(signless_laplacian(g), t))
            assert np.abs(ul - uq).max() < 1e-9


def test_p3_alpha_closed_form_matches_walk():
    for alpha in np.linspace(-5, 5, 11):
        dec = eigendecompose(weighted_p3(float(alpha)))
        for t in np.linspace(0, 20, 21):
            closed = p3_alpha_fidelity(float(alpha), float(t))
            generic = complex(dec.amplitude(0, 2, [float(t)])[0])
            assert abs(closed - generic) < 1e-10


def test_p3_alpha_pst_examples():
    assert abs(p3_alpha_fidelity(0.0, math.pi / math.sqrt(2)) + 1.0) < 1e-12
    assert p3_alpha_fidelity(1.0, 0.0) == 0.0
    assert p3_alpha_pst_condition(0.0, math.pi / math.sqrt(2))
    assert not p3_alpha_pst_condition(0.0, math.pi / (2 * math.sqrt(2)))


def test_p3_alpha_condition_agrees_with_magnitude():
    for alpha in (-2.0, 0.0, 0.7, 3.0):
        for t in np.linspace(0.1, 15, 60):
            cond = p3_alpha_pst_condition(float(alpha), float(t), tol=1e-7)
            mag = abs(p3_alpha_fidelity(float(alpha), float(t)))
            if cond:
                assert mag > 1 - 1e-7
            if mag > 1 - 1e-14:
                assert p3_alpha_pst_condition(float(alpha), float(t), tol=1e-6)


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
    dec_g = eigendecompose(standard_laplacian(g))
    joined = join(g, h)
    dec_join = eigendecompose(standard_laplacian(joined))
    rng = np.random.default_rng(23)
    for t in rng.uniform(0, 25, 20):
        closed = join_walk_entry(dec_g, g.n, h.n, (0, 1), float(t))
        direct = complex(dec_join.amplitude(0, 1, [float(t)])[0])
        assert abs(closed - direct) < 1e-9


def test_join_cross_entry():
    g, h = complete(2), path(3)
    joined = join(g, h)
    dec = eigendecompose(standard_laplacian(joined))
    m, n = g.n, h.n
    for t in (0.3, 1.1, 2.9):
        direct = complex(dec.amplitude(0, m + 1, [t])[0])
        assert abs(direct - join_cross_entry(m, n, t)) < 1e-10
    # zero exactly when t(m+n) is a multiple of 2 pi
    assert abs(join_cross_entry(2, 3, 2 * math.pi / 5)) < 1e-12
    assert abs(join_cross_entry(2, 3, 0.7)) > 1e-3
    assert join_walk_entry(eigendecompose(standard_laplacian(g)), 2, 3, (0, 0), 0.0) == pytest.approx(1.0)


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
