import inspect

from lapwalk.cli import main
from lapwalk.control import unicyclic_no_pst_pipeline
from lapwalk.corpus import named_small_graphs, random_connected_graphs
from lapwalk.pst import connected_double_cone_refutation, double_cone_characterization
from lapwalk.suites import SUITES


def test_registry_names():
    assert sorted(SUITES) == sorted(
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


def test_unknown_suite(capsys):
    assert main(["verify-suite", "nope"]) == 2
    assert capsys.readouterr().out == ""


def test_complement_closure_suite_passes():
    report = SUITES["complement-closure"]()
    assert report.passed
    assert len(report.lines) >= 20


def test_signless_double_cone_suite():
    report = SUITES["signless-double-cone"]()
    assert report.passed


def test_double_cone_suite_small():
    # transfer between the apexes exactly when the base order is 2 mod 4
    report = SUITES["double-cone"]()
    assert report.passed
    assert [line.split()[2] for line in report.lines] == [f"n={n}" for n in range(1, 11)]
    assert [n for n in range(1, 11) if "pst=yes" in report.lines[n - 1]] == [2, 6, 10]


def test_every_suite_runs_at_its_fixed_sizes():
    # a suite takes no arguments, and writes one row per check at the orders
    # and horizons it fixes
    assert all(not inspect.signature(suite).parameters for suite in SUITES.values())
    # nor do the library checks behind them take a horizon of their own
    checks = (double_cone_characterization, connected_double_cone_refutation, unicyclic_no_pst_pipeline)
    assert all("t_max" not in inspect.signature(check).parameters for check in checks)
    counts = {name: len(suite().lines) for name, suite in SUITES.items()}
    assert counts == {
        "complement-closure": 44,
        "double-cone": 10,
        "signless-double-cone": 9,
        "weak-product": 14,
        "line-intertwine": 27,
        "path-cycle": 7,
        "unicyclic": 5,
        "path-refutation": 15,
    }


def test_line_intertwine_suite_decomposes_two_operators_per_graph(eigh_calls):
    graphs = [g for _, g in named_small_graphs() if g.edge_count >= 2] + random_connected_graphs(6, seed=7)
    report = SUITES["line-intertwine"]()
    assert report.passed and len(report.lines) == len(graphs)
    # Q(g) and A(line(g)), once each, for all four times
    assert len(eigh_calls) == 2 * len(graphs)


def test_weak_product_suite_decomposes_p3_once(eigh_calls):
    report = SUITES["weak-product"]()
    assert report.passed
    # P3 once, each positive case's product and its factor H, then the six
    # operators of the two normalized walk checks
    assert len(eigh_calls) == 1 + 3 * 2 + 6
