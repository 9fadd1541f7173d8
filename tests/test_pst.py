import math
import tracemalloc

import numpy as np
import pytest

from lapwalk import pst
from lapwalk.graphs import (
    circulant_family,
    complete,
    disjoint_union,
    empty,
    hypercube,
    join,
    path,
    weak_product,
)
from lapwalk.operators import (
    OperatorKind,
    normalized_laplacian,
    signless_laplacian,
    standard_laplacian,
)
from lapwalk.pst import (
    PstCertificate,
    complement_closure_check,
    connected_double_cone_refutation,
    cycle_pst_screen,
    double_cone_characterization,
    join_necessary_condition,
    normalized_weak_product_walk_check,
    search_pst,
    verify_pst,
    weak_product_closure_1,
    weak_product_closure_2,
)
from lapwalk.spectral import eigendecompose, p3_alpha_pst_condition, walk


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
    # certifies takes its tolerance; refutes has one threshold
    cert = PstCertificate((0, 1), OperatorKind.STANDARD, 1.0, 0.75, 0.0, pst.METHOD_GRID)
    assert cert.certifies(0.25) and not cert.certifies(0.2)


def _closure_reference(spec_g, spec_h, t, angle):
    return all(
        abs(x - round(x)) < pst.CLOSURE_TOL
        for lam in spec_g
        for mu in spec_h
        for x in [angle(t, lam, mu) / (2.0 * math.pi)]
    )


def test_weak_product_closures_match_the_scalar_loop():
    # eigenvalues k/3 and times 2 pi j land the angles on or near 2 pi Z;
    # offsets around CLOSURE_TOL put them on both sides of the tolerance
    rng = np.random.default_rng(5)
    for _ in range(300):
        spec_g = rng.integers(0, 7, size=rng.integers(0, 4)) / 3.0
        spec_h = rng.integers(0, 7, size=rng.integers(0, 4)) / 3.0
        spec_h = spec_h + rng.choice([0.0, 1e-9, 3e-9, 1e-8], size=spec_h.shape)
        t = 2.0 * math.pi * 3.0 * int(rng.integers(1, 4))
        first = _closure_reference(spec_g, spec_h, t, lambda t, lam, mu: t * mu * (lam - 1.0))
        second = _closure_reference(spec_g, spec_h, t, lambda t, lam, mu: t * lam * mu)
        assert weak_product_closure_1(list(spec_g), list(spec_h), t) is first
        assert weak_product_closure_2(list(spec_g), list(spec_h), t) is second


def test_verify_refutes_standard_p3():
    res = verify_pst(standard_laplacian(path(3)), (0, 2), math.pi)
    assert not res.certifies()
    assert res.magnitude < 1 - 1e-6
    assert res.method == pst.METHOD_REFUTED and res.refutes()
    # the method label follows pst_tol; the walk entry does not
    loose = verify_pst(standard_laplacian(path(3)), (0, 2), math.pi, pst_tol=0.5)
    assert loose.method == pst.METHOD_VERIFIED and loose.certifies(0.5)
    assert (loose.time, loose.magnitude, loose.phase) == (res.time, res.magnitude, res.phase)


def test_certificate_column_collapse():
    # unitarity: a certified column has negligible weight elsewhere
    g = join(empty(2), complete(2))
    h = standard_laplacian(g)
    cert = verify_pst(h, (0, 1), math.pi / 2)
    assert cert.certifies()
    u = walk(h, cert.time)
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
    results = double_cone_characterization(range(1, 7), t_max=50.0)
    for res in results:
        assert res.has_pst == (res.n % 4 == 2)
    r6 = next(r for r in results if r.n == 6)
    t_found = r6.witnesses[0][2]
    alpha = (6 - 2) / math.sqrt(6)
    assert p3_alpha_pst_condition(alpha, math.sqrt(6) * t_found, tol=1e-6)


def test_join_necessary_condition():
    assert join_necessary_condition(2, 2, math.pi / 2)
    assert not join_necessary_condition(2, 4, math.pi / 2)
    assert join_necessary_condition(2, 6, math.pi / 2)


def test_connected_double_cone_refutation():
    for base in (complete(2), empty(2)):
        assert connected_double_cone_refutation(base, t_max=50.0) < 1 - 1e-6
    # off-diagonal of the identity at t=0
    g = join(complete(2), complete(2))
    assert abs(walk(standard_laplacian(g), 0.0)[1, 0]) == 0.0


def test_weak_product_closure_conditions():
    spec_p3 = [0.0, 1.0, 2.0]
    spec_k4 = [0.0, 4.0 / 3.0]
    assert weak_product_closure_1(spec_p3, spec_k4, 3 * math.pi)
    spec_q3 = [2.0 * k / 3.0 for k in range(4)]
    assert weak_product_closure_1(spec_p3, spec_q3, 3 * math.pi)
    spec_k3 = [0.0, 3.0 / 2.0]
    assert not weak_product_closure_1(spec_p3, spec_k3, math.pi)
    assert weak_product_closure_2([0.0, 0.0], [1.0, 2.0], 0.37)
    assert weak_product_closure_2([0.0, 2.0], [0.0, 2.0], math.pi / 2)


def test_weak_product_closure_2_small_scan():
    # record pairs realizing the second closure among tiny transfer graphs
    candidates = [
        ("K2", complete(2), math.pi / 2),
        ("P3", path(3), math.pi),
    ]
    found = []
    for la, ga, ta in candidates:
        for lb, gb, tb in candidates:
            if ta != tb:
                continue
            sa = eigendecompose(normalized_laplacian(ga)).values
            sb = eigendecompose(normalized_laplacian(gb)).values
            if weak_product_closure_2(sa, sb, ta):
                found.append((la, lb, ta))
    # K2 x K2 at pi/2 satisfies the arithmetic condition
    assert ("K2", "K2", math.pi / 2) in found


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


def test_search_k2_ends_on_rising_edge():
    # |U(t)[1, 0]| = sin t still rises at t_max = 1, so the last bracket
    # resolves to its better end, t_max itself
    cert = search_pst(standard_laplacian(complete(2)), (0, 1), 1.0)
    assert cert.time == 1.0
    assert abs(cert.magnitude - math.sin(1.0)) < 1e-15


def test_search_k2_earliest_peak_across_blocks():
    cert = search_pst(standard_laplacian(complete(2)), (0, 1), 1000.0)
    assert abs(cert.time - math.pi / 2) < 1e-9
    assert cert.certifies()


def test_search_block_size_does_not_change_certificate(monkeypatch):
    h = normalized_laplacian(path(7))
    default = search_pst(h, (0, 6), 200.0)
    monkeypatch.setattr(pst, "SCAN_BLOCK", 7)
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
    # beyond t = 8192 adjacent floats lie further apart than refine_tol
    dec = eigendecompose(standard_laplacian(complete(2)))
    peak = math.pi / 2 + 3000 * math.pi
    t = pst._refine_peak(dec.values, dec.pair_weights(0, 1), [peak - 0.01], [peak + 0.01], 1e-12)
    assert abs(t[0] - peak) < 1e-9
    h = standard_laplacian(path(4))
    assert search_pst(h, (0, 3), 1e4).magnitude >= search_pst(h, (0, 3), 200.0).magnitude


@pytest.mark.parametrize("block", [1, 7, 450, 451, 2048])
def test_search_grid_matches_direct_exponentials(monkeypatch, block):
    # t_max = 6.475 is no multiple of the step, so the last grid point is
    # clamped to it. There |a| still rises and exceeds the point before it,
    # while at the lattice time past t_max it has fallen below: the grid
    # maximum is the last point only if that point is evaluated at t_max.
    # Block sizes 1, 450 and 451 put the last point in a block of its own
    # and in the halo of the block before it.
    h, pair, t_max = standard_laplacian(path(4)), (0, 3), 6.475
    dec = eigendecompose(h)
    step = (math.pi / dec.spectral_range) / 64
    count = math.ceil((t_max + step) / step)
    times = np.minimum(np.arange(count) * step, t_max)
    mags = np.abs(dec.amplitude(*pair, times))  # one direct exponential per point
    padded = np.concatenate([[-np.inf], mags, [-np.inf]])
    peaks = np.flatnonzero((mags >= padded[:-2]) & (mags >= padded[2:]))
    peaks = peaks[mags[peaks] >= mags.max() - pst.PEAK_CUTOFF]
    expected = {(times[max(i - 1, 0)], times[min(i + 1, count - 1)]) for i in peaks}
    lattice_last = abs(dec.amplitude(*pair, [(count - 1) * step])[0])
    assert mags[-1] > mags[-2] > lattice_last and count - 1 in peaks

    brackets = set()
    refine = pst._refine_peak

    def spy(values, weights, lo, hi, refine_tol):
        brackets.update(zip(lo, hi))
        return refine(values, weights, lo, hi, refine_tol)

    monkeypatch.setattr(pst, "SCAN_BLOCK", block)
    monkeypatch.setattr(pst, "_refine_peak", spy)
    search_pst(h, pair, t_max)
    assert brackets == expected
