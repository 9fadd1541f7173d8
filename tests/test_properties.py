"""Property tests over small random graphs (hypothesis, from the test extra)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from oracle import walk_oracle  # noqa: E402

from lapwalk.graphs import complement, empty, join, make_graph  # noqa: E402
from lapwalk.operators import operator, standard_laplacian  # noqa: E402
from lapwalk.partitions import (  # noqa: E402
    check_almost_equitable,
    check_equitable,
    coarsest_equitable_refinement,
    lift_check,
    partition_matrix,
    quotient,
)
from lapwalk.spectral import eigendecompose, join_walk_entry, walk  # noqa: E402

KINDS = ("adjacency", "standard", "signless", "normalized")
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
times = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


@st.composite
def graphs(draw, min_n=2, max_n=7, connected=False):
    """Random simple graph; ``connected`` adds a spanning path so that every
    operator, the normalized Laplacian included, is defined."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = set(draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else ())
    if connected:
        edges |= {(v, v + 1) for v in range(n - 1)}
    return make_graph(n, sorted(edges))


def _walk(g, kind, t):
    return walk(operator(g, kind), t)


@PROPERTY_SETTINGS
@given(st.data())
def test_refinement_is_equitable_and_refines_its_input(data):
    g = data.draw(graphs(min_n=0, max_n=9))
    labels = data.draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n))
    cells = [[v for v in range(g.n) if labels[v] == k] for k in sorted(set(labels))]
    p = coarsest_equitable_refinement(g, cells)
    again = check_equitable(g, p.cells)
    assert again.cells == p.cells and np.array_equal(again.degree_counts, p.degree_counts)
    for cell in p.cells:
        assert len({labels[v] for v in cell}) == 1


@PROPERTY_SETTINGS
@given(st.data())
def test_quotient_from_the_counts_intertwines_the_operator(data):
    # quotient reads B from the checked counts alone; M P = P B is checked here
    g = data.draw(graphs(min_n=0, max_n=9))
    labels = data.draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n))
    cells = [[v for v in range(g.n) if labels[v] == k] for k in sorted(set(labels))]
    p = coarsest_equitable_refinement(g, cells)
    pm = partition_matrix(p)
    for kind in ("adjacency", "standard", "signless"):
        b = quotient(p, kind)
        assert np.array_equal(b, b.T)
        assert np.abs(operator(g, kind).matrix @ pm - pm @ b).max(initial=0.0) < 1e-10
    almost = check_almost_equitable(g, p.cells)
    assert np.array_equal(quotient(almost, "standard"), quotient(p, "standard"))


@PROPERTY_SETTINGS
@given(st.data(), st.sampled_from(("adjacency", "standard", "signless")), times)
def test_walk_entry_between_singleton_cells_lifts_from_the_quotient(data, kind, t):
    g = data.draw(graphs())
    u, v = data.draw(st.permutations(range(g.n)))[:2]
    rest = [w for w in range(g.n) if w not in (u, v)]
    p = coarsest_equitable_refinement(g, [[u], [v], rest] if rest else [[u], [v]])
    assert lift_check(g, p, kind, u, v, t) < 1e-9


@PROPERTY_SETTINGS
@given(graphs(min_n=1), times)
def test_double_cone_apex_entry_depends_only_on_the_base_order(base, t):
    # the double cone over any m-vertex graph walks its apexes like the one over empty(m)
    m = base.n
    entry = _walk(join(empty(2), base), "standard", t)[1, 0]
    formula = join_walk_entry(eigendecompose(standard_laplacian(empty(2))), 2, m, (0, 1), t)
    assert abs(entry - formula) < 1e-9
    assert abs(entry - _walk(join(empty(2), empty(m)), "standard", t)[1, 0]) < 1e-9


@PROPERTY_SETTINGS
@given(graphs(connected=True), st.sampled_from(KINDS), times, times)
def test_unitarity_and_group_law(g, kind, s, t):
    u_s, u_t = _walk(g, kind, s), _walk(g, kind, t)
    assert np.abs(u_t @ u_t.conj().T - np.eye(g.n)).max() < 1e-9
    assert np.abs(u_s @ u_t - _walk(g, kind, s + t)).max() < 1e-9


@PROPERTY_SETTINGS
@given(graphs(connected=True), st.sampled_from(KINDS), times)
def test_transfer_magnitude_is_symmetric(g, kind, t):
    mags = np.abs(_walk(g, kind, t))
    assert np.abs(mags - mags.T).max() < 1e-9


@PROPERTY_SETTINGS
@given(st.data(), st.sampled_from(KINDS), times)
def test_relabelling_invariance(data, kind, t):
    g = data.draw(graphs(connected=True))
    perm = data.draw(st.permutations(range(g.n)))
    h = make_graph(g.n, [(perm[u], perm[v]) for u, v, _ in g.edges])
    u_g, u_h = _walk(g, kind, t), _walk(h, kind, t)
    assert np.abs(u_h[np.ix_(perm, perm)] - u_g).max() < 1e-9


@PROPERTY_SETTINGS
@given(graphs(connected=True), st.sampled_from(KINDS), times)
def test_walk_matches_the_series_oracle(g, kind, t):
    h = operator(g, kind)
    assert np.abs(walk(h, t) - walk_oracle(h.matrix, t)).max() < 1e-9


@PROPERTY_SETTINGS
@given(graphs(min_n=1), st.integers(-3, 3))
def test_complement_walk_runs_backwards_when_n_t_is_a_multiple_of_2pi(g, k):
    # L(complement) = nI - J - L(G), and exp(-itn) exp(itJ) = I when nt is in 2 pi Z
    t = 2.0 * np.pi * k / g.n
    u_comp = _walk(complement(g), "standard", t)
    assert np.abs(u_comp - _walk(g, "standard", -t)).max() < 1e-9
