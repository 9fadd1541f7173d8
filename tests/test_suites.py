import pytest

from lapwalk.corpus import named_small_graphs, random_connected_graphs
from lapwalk.suites import available_suites, run_suite


def test_registry_names():
    assert available_suites() == sorted(
        [
            "complement-closure",
            "double-cone",
            "signless-double-cone",
            "weak-product",
            "line-intertwine",
            "path-cycle",
            "unicyclic",
            "path-refutation",
        ]
    )


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_complement_closure_suite_passes():
    report = run_suite("complement-closure")
    assert report.passed
    assert len(report.lines) >= 20


def test_signless_double_cone_suite():
    report = run_suite("signless-double-cone")
    assert report.passed


def test_double_cone_suite_small():
    report = run_suite("double-cone", n_max=6, t_max=50.0)
    assert report.passed
    assert len(report.lines) == 6


def test_options_a_suite_does_not_take_are_rejected():
    with pytest.raises(ValueError, match="t_max"):
        run_suite("complement-closure", t_max=5.0)
    with pytest.raises(ValueError, match="n_max"):
        run_suite("weak-product", n_max=2)


def test_line_intertwine_suite_decomposes_two_operators_per_graph(eigh_calls):
    graphs = [g for _, g in named_small_graphs() if g.edge_count >= 2] + random_connected_graphs(6, seed=7)
    report = run_suite("line-intertwine")
    assert report.passed and len(report.lines) == len(graphs)
    # Q(g) and A(line(g)), once each, for all four times
    assert len(eigh_calls) == 2 * len(graphs)


def test_weak_product_suite_decomposes_p3_once(eigh_calls):
    report = run_suite("weak-product")
    assert report.passed
    # P3 once, each positive case's product and its factor H, then the six
    # operators of the two normalized walk checks
    assert len(eigh_calls) == 1 + 3 * 2 + 6
