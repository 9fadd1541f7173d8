import inspect

import pytest

from lapwalk.cli import main
from lapwalk.control import unicyclic_no_pst_pipeline
from lapwalk.graphs import Graph
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
        "complement-closure": 22,
        "double-cone": 10,
        "signless-double-cone": 9,
        "weak-product": 8,
        "line-intertwine": 27,
        "path-cycle": 7,
        "unicyclic": 5,
        "path-refutation": 15,
    }


@pytest.mark.parametrize("name", ["complement-closure", "line-intertwine", "path-cycle"])
def test_identity_suite_builds_no_operator(name, eigh_calls, monkeypatch):
    # every row is an integer identity on edge arrays: no eigensolve, and no
    # dense adjacency matrix, which every graph operator is built from
    built = []
    adjacency = Graph.adjacency
    monkeypatch.setattr(Graph, "adjacency", lambda g: built.append(g.n) or adjacency(g))
    report = SUITES[name]()
    assert report.passed and all(" holds: " in line for line in report.lines)
    assert eigh_calls == [] and built == []


def test_weak_product_suite_decomposes_p3_once(eigh_calls):
    report = SUITES["weak-product"]()
    assert report.passed
    # P3 once, then each positive case's product and its factor H; the two
    # identity rows decompose nothing
    assert len(eigh_calls) == 1 + 3 * 2


@pytest.mark.parametrize("name", ["double-cone", "signless-double-cone"])
def test_cone_suites_decompose_only_their_3x3_quotients(name, eigh_calls, monkeypatch, capsys):
    # one apex-quotient search per base order, and one verify per signless
    # cone, each on the 3 x 3 quotient: no cone operator is decomposed, and
    # the double cones build no dense adjacency either
    built = []
    adjacency = Graph.adjacency
    monkeypatch.setattr(Graph, "adjacency", lambda g: built.append(g.n) or adjacency(g))
    assert main(["verify-suite", name]) == 0
    assert eigh_calls == [(3, 3)] * {"double-cone": 10, "signless-double-cone": 3}[name]
    if name == "double-cone":
        assert built == []
