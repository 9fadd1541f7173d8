"""Property tests over small random graphs (hypothesis, from the test extra)."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

import oracle  # noqa: E402
from oracle import partition_matrix, walk_oracle  # noqa: E402

from lapwalk.graphs import complement, empty, join, make_graph  # noqa: E402
from lapwalk.graphs import Graph  # noqa: E402
from lapwalk.operators import Hamiltonian, OperatorKind, operator, standard_laplacian  # noqa: E402
from lapwalk.partitions import (  # noqa: E402
    check_almost_equitable,
    check_equitable,
    coarsest_equitable_refinement,
    quotient,
)
from lapwalk import pst  # noqa: E402
from lapwalk.pst import join_walk_entry, walk_entries  # noqa: E402
from lapwalk.spectral import eigendecompose  # noqa: E402

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
    return eigendecompose(operator(g, kind)).matrix_at(t)


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
    big = walk_entries(operator(g, kind), (u, v), [t])[0]
    b = Hamiltonian(OperatorKind.CUSTOM, quotient(p, kind))
    assert abs(abs(big) - abs(walk_entries(b, (p.cell_of[u], p.cell_of[v]), [t])[0])) < 1e-9


@PROPERTY_SETTINGS
@given(graphs(min_n=1), times)
def test_double_cone_apex_entry_depends_only_on_the_base_order(base, t):
    # the double cone over any m-vertex graph walks its apexes like the one over empty(m)
    m = base.n
    entry = _walk(join(empty(2), base), "standard", t)[1, 0]
    formula = join_walk_entry(standard_laplacian(empty(2)), m, (0, 1), t)
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
    h = make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    u_g, u_h = _walk(g, kind, t), _walk(h, kind, t)
    assert np.abs(u_h[np.ix_(perm, perm)] - u_g).max() < 1e-9


@PROPERTY_SETTINGS
@given(graphs(connected=True), st.sampled_from(KINDS), times)
def test_walk_matches_the_series_oracle(g, kind, t):
    h = operator(g, kind)
    assert np.abs(eigendecompose(h).matrix_at(t) - walk_oracle(h.matrix, t)).max() < 1e-9


@PROPERTY_SETTINGS
@given(graphs(min_n=1), st.integers(-3, 3))
def test_complement_walk_runs_backwards_when_n_t_is_a_multiple_of_2pi(g, k):
    # L(complement) = nI - J - L(G), and exp(-itn) exp(itJ) = I when nt is in 2 pi Z
    t = 2.0 * np.pi * k / g.n
    u_comp = _walk(complement(g), "standard", t)
    assert np.abs(u_comp - _walk(g, "standard", -t)).max() < 1e-9


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(graphs(min_n=3, max_n=9, connected=True), st.sampled_from(KINDS), st.data())
def test_grid_keeps_the_maxima_of_the_blockwise_reference(g, kind, data):
    """The two-level grid keeps the maxima that evaluating every point
    keeps (``oracle.blockwise_grid_peaks``), on grids from under one cell
    to several coarse products, with t_max off the lattice. Only where more
    than PEAK_CAP maxima lie within rounding of the largest may the two
    keep different ones of those."""
    u, v = data.draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True))
    dec = eigendecompose(operator(g, kind))
    values, weights, _ = pst._support(dec.values, dec.pair_weights(u, v))
    assume(len(values) >= 2)
    step = math.pi / float(values[-1] - values[0]) / 64  # search_pst's grid
    within_blocks = st.integers(2, 2 * pst.SCAN_BLOCK)
    about_one_product = st.integers(pst.SCAN_POINTS - 2 * pst.SCAN_BLOCK, pst.SCAN_POINTS + 2 * pst.SCAN_BLOCK)
    several_products = st.integers(2 * pst.SCAN_POINTS, 3 * pst.SCAN_POINTS)
    count = data.draw(st.one_of(within_blocks, st.integers(2, 1000), about_one_product, several_products))
    t_max = (count - 1 - data.draw(st.floats(0.0, 0.99))) * step
    got = pst._grid_peaks(values, weights, step, count, t_max)
    want = oracle.blockwise_grid_peaks(values, weights, step, count, t_max)
    assert len(got) == len(want) and len(set(got.tolist())) == len(got)
    if len(want) < pst.PEAK_CAP:
        assert sorted(got) == sorted(want)
    else:
        times = np.minimum(np.union1d(got, want) * step, t_max)
        mags = np.abs(np.exp(-1j * np.outer(times, values)) @ weights)
        tied = np.union1d(got, want)[mags >= mags.max() - 1e-9]
        assert set(np.setxor1d(got, want)) <= set(tied)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_graph_rejects_exactly_the_rows_the_reference_rejects(data):
    """``Graph`` raises on its edge array exactly when the row-by-row
    reference finds a fault, with the reference's message. Valid rows get
    at most one fault: a repeated, swapped or reversed row, a row with
    u == v, or an extreme vertex."""
    n = data.draw(st.integers(0, 6))
    pairs = [[u, v] for u in range(n) for v in range(u + 1, n)]
    rows = sorted(data.draw(st.lists(st.sampled_from(pairs), unique_by=tuple, max_size=6))) if pairs else []
    fault = data.draw(st.sampled_from(["none", "repeat", "swap", "reverse", "loop", "vertex"]))
    if rows and fault != "none":
        i = data.draw(st.integers(0, len(rows) - 1))
        if fault == "repeat":
            rows.insert(i, rows[i])
        elif fault == "swap":
            j = data.draw(st.integers(0, len(rows) - 1))
            rows[i], rows[j] = rows[j], rows[i]
        elif fault == "reverse":
            rows[i] = rows[i][::-1]
        elif fault == "loop":
            rows[i] = [rows[i][0]] * 2
        else:
            rows[i][data.draw(st.integers(0, 1))] = data.draw(st.sampled_from([-1, n, -(2**63), 2**63 - 1]))
    expected = oracle.edge_rows_fault(n, rows)
    try:
        Graph(n, np.array(rows, dtype=np.intp).reshape(-1, 2))
    except ValueError as exc:
        assert str(exc) == expected
    else:
        assert expected is None


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_make_graph_matches_the_row_by_row_reference(data):
    """Loose rows in any order, with repeats, loops and vertices out of
    range mixed in: the graph, or the first fault's message, is the one the
    row-by-row reference gives."""
    n = data.draw(st.integers(-1, 7))
    vertex = st.integers(-2, 8)
    edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=12))
    want = oracle.make_graph(n, edges)
    try:
        g = make_graph(n, edges)
    except ValueError as exc:
        assert str(exc) == want
    else:
        assert (g.n, g.edges) == want
