import cmath
import json
import math

import pytest

from lapwalk.cli import main, parse_time
from lapwalk import io as lio
from lapwalk.graphs import cycle, empty, hypercube, join, path
from lapwalk.operators import standard_laplacian
from oracle import walk_oracle


def test_parse_time_forms():
    assert parse_time("2.5") == 2.5
    assert parse_time("pi/2") == math.pi / 2
    assert parse_time("3pi") == 3 * math.pi
    assert parse_time("pi/sqrt(8)") == math.pi / math.sqrt(8)
    assert parse_time("3pi/2") == 3 * math.pi / 2
    assert parse_time("-pi") == -math.pi
    with pytest.raises(ValueError):
        parse_time("pi; import os")
    with pytest.raises(ValueError):
        parse_time("__import__('os')")


def test_graph_build_and_show(tmp_path, capsys):
    out = tmp_path / "p3.json"
    assert main(["graph", "build", "--type", "path", "--n", "3", "--out", str(out)]) == 0
    assert out.read_text() == lio.graph_to_json(path(3))
    assert main(["graph", "show", "--graph", str(out)]) == 0
    shown = capsys.readouterr().out
    assert "n 3" in shown and "edges 2" in shown


def test_pst_verify_normalized_p3(tmp_path, capsys):
    gfile = tmp_path / "p3.json"
    lio.save_graph(path(3), gfile)
    code = main(
        [
            "pst",
            "verify",
            "--graph",
            str(gfile),
            "--kind",
            "normalized",
            "--pair",
            "0",
            "2",
            "--time",
            "3.141592653589793",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["method"] == "VerifiedAtGivenTime"
    assert payload["magnitude"] > 1 - 1e-9
    # refuted under the standard Laplacian -> exit 1
    code2 = main(
        ["pst", "verify", "--graph", str(gfile), "--kind", "laplacian", "--pair", "0", "2", "--time", "pi"]
    )
    payload2 = json.loads(capsys.readouterr().out)
    assert code2 == 1
    assert payload2["method"] == "Refuted"


@pytest.mark.parametrize(
    "tol, code, method", [(None, 1, "Refuted"), ("0.5", 0, "VerifiedAtGivenTime")]
)
def test_pst_verify_tol_sets_exit_code_and_method(tmp_path, capsys, tol, code, method):
    # standard P3 carries 0 -> 2 at pi with magnitude 2/3
    gfile = tmp_path / "p3.json"
    lio.save_graph(path(3), gfile)
    argv = ["pst", "verify", "--graph", str(gfile), "--kind", "standard", "--pair", "0", "2", "--time", "pi"]
    assert main(argv + (["--tol", tol] if tol else [])) == code
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == method
    assert abs(payload["magnitude"] - 2.0 / 3.0) < 1e-12


def test_pst_search(tmp_path, capsys):
    gfile = tmp_path / "dc.json"
    from lapwalk.graphs import complete, empty, join

    lio.save_graph(join(empty(2), complete(2)), gfile)
    code = main(
        ["pst", "search", "--graph", str(gfile), "--kind", "laplacian", "--pair", "0", "1", "--t-max", "4"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(payload["time"] - math.pi / 2) < 1e-9


def test_walk_identity_entry(tmp_path, capsys):
    gfile = tmp_path / "k2.json"
    from lapwalk.graphs import complete

    lio.save_graph(complete(2), gfile)
    code = main(
        ["walk", "--graph", str(gfile), "--kind", "laplacian", "--time", "0", "--from", "0", "--to", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "magnitude=0.0" in out


def test_fidelity_curve(tmp_path, capsys):
    gfile = tmp_path / "k2.json"
    from lapwalk.graphs import complete

    lio.save_graph(complete(2), gfile)
    code = main(
        [
            "fidelity-curve",
            "--graph",
            str(gfile),
            "--kind",
            "laplacian",
            "--pair",
            "0",
            "1",
            "--t-max",
            "pi",
            "--samples",
            "3",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,re,im,abs"
    mags = [float(ln.split(",")[3]) for ln in lines[1:]]
    assert mags[0] == pytest.approx(0.0, abs=1e-12)
    assert mags[1] == pytest.approx(1.0, abs=1e-9)
    assert mags[2] == pytest.approx(0.0, abs=1e-12)


def test_fidelity_curve_q3_peak(tmp_path, capsys):
    # antipodal entry of the normalized cube walk peaks at t = 3 pi / 2
    gfile = tmp_path / "q3.json"
    from lapwalk.graphs import hypercube

    lio.save_graph(hypercube(3), gfile)
    code = main(
        [
            "fidelity-curve",
            "--graph",
            str(gfile),
            "--kind",
            "normalized",
            "--pair",
            "0",
            "7",
            "--t-max",
            "2pi",
            "--samples",
            "5",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    mags = {float(r[0]): float(r[3]) for r in rows}
    peak_t = max(mags, key=mags.get)
    assert peak_t == pytest.approx(3 * math.pi / 2)
    assert mags[peak_t] == pytest.approx(1.0, abs=1e-9)


def test_matrix_csv(tmp_path, capsys):
    gfile = tmp_path / "k2.json"
    from lapwalk.graphs import complete

    lio.save_graph(complete(2), gfile)
    assert main(["matrix", "--graph", str(gfile), "--kind", "laplacian"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "1.0,-1.0"


def test_quotient_command(tmp_path, capsys):
    from lapwalk.graphs import complete, empty, join

    gfile = tmp_path / "dc.json"
    pfile = tmp_path / "cells.json"
    g = join(empty(2), complete(4))
    lio.save_graph(g, gfile)
    pfile.write_text(lio.cells_to_json([[0], [2, 3, 4, 5], [1]]))
    code = main(
        ["quotient", "--graph", str(gfile), "--partition", str(pfile), "--kind", "signless"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("4.0,2.0,0.0")


def test_controllable_command(tmp_path, capsys):
    gfile = tmp_path / "cone.json"
    from lapwalk.graphs import cone_p4_with_pendant

    lio.save_graph(cone_p4_with_pendant(0).graph, gfile)
    assert main(["controllable", "--graph", str(gfile), "--vertex", "1"]) == 0
    assert "rank 5/5 controllable" in capsys.readouterr().out


def test_unicyclic_command(capsys):
    code = main(["unicyclic", "--m", "1", "--t-max", "30"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict no-pst" in out


def test_verify_suite_path_cycle(capsys):
    code = main(["verify-suite", "path-cycle"])
    out = capsys.readouterr().out
    assert code == 0
    assert "suite path-cycle: PASS" in out


def test_usage_errors(tmp_path, capsys):
    assert main(["frobnicate"]) == 2
    assert main(["pst"]) == 2
    # missing graph file -> input error
    code = main(["matrix", "--graph", str(tmp_path / "nope.json"), "--kind", "laplacian"])
    assert code == 2


def test_ignored_flags_are_rejected(tmp_path):
    gfile = tmp_path / "p3.json"
    gfile.write_text(lio.graph_to_json(path(3)))
    graph = ["--graph", str(gfile), "--kind", "normalized"]
    search = ["pst", "search", *graph, "--pair", "0", "2", "--t-max", "5"]
    assert main(search + ["--tol", "1e-3"]) == 2
    assert main(["matrix", *graph, "--format", "json"]) == 2
    walk = ["walk", *graph, "--time", "1", "--from", "0", "--to", "2"]
    assert main(walk + ["--format", "csv"]) == 2
    out = tmp_path / "f"
    assert main(["verify-suite", "path-cycle", "--out", str(out)]) == 2
    assert not out.exists()


def test_round_trip_canonical(tmp_path):
    gfile = tmp_path / "g.json"
    assert main(["graph", "build", "--type", "circulant", "--n", "6", "--gens", "1,5", "--out", str(gfile)]) == 0
    text = gfile.read_text()
    g = lio.graph_from_json(text)
    assert lio.graph_to_json(g) == text


def test_refuted_reports_the_walk_phase(tmp_path, capsys):
    gfile = tmp_path / "p3.json"
    lio.save_graph(path(3), gfile)
    argv = ["pst", "verify", "--graph", str(gfile), "--kind", "standard", "--pair", "0", "1", "--time", "1"]
    assert main(argv) == 1
    payload = json.loads(capsys.readouterr().out)
    entry = walk_oracle(standard_laplacian(path(3)).matrix, 1.0)[1, 0]
    assert payload["method"] == "Refuted"
    assert abs(payload["phase"] - cmath.phase(entry)) < 1e-12
    assert abs(payload["magnitude"] - abs(entry)) < 1e-12


def test_suite_options_are_checked_before_any_suite_runs(capsys):
    assert main(["verify-suite", "complement-closure", "--t-max", "5"]) == 2
    assert main(["verify-suite", "weak-product", "--n-max", "2"]) == 2
    assert main(["verify-suite", "all", "--n-max", "3"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "kind",
    [
        "path",
        "cycle",
        "complete",
        "empty",
        "hypercube",
        "circulant",
        "circulant-family",
        "odd-unicyclic",
        "cone-p4-pendant",
    ],
)
def test_graph_build_needs_its_size_option(kind, capsys):
    assert main(["graph", "build", "--type", kind, "--gens", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"graph type {kind} needs --" in captured.err


def test_circulant_needs_its_generators(capsys):
    assert main(["graph", "build", "--type", "circulant", "--n", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: graph type circulant needs --gens\n"


def test_fidelity_curve_needs_two_samples(tmp_path, capsys):
    gfile = tmp_path / "p3.json"
    lio.save_graph(path(3), gfile)
    argv = ["fidelity-curve", "--graph", str(gfile), "--kind", "adjacency", "--pair", "0", "2"]
    assert main(argv + ["--samples", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --samples must be at least 2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["double-cone", "--n-max", "0"],
        ["double-cone", "--n-max", "-3"],
        ["path-cycle", "--n-max", "1"],
        ["path-cycle", "--n-max", "-3"],
    ],
)
def test_suite_that_checks_nothing_is_rejected(argv, capsys):
    assert main(["verify-suite", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "checks nothing" in captured.err


def test_bad_vertices_and_times_are_rejected(tmp_path, capsys):
    gfile = tmp_path / "p3.json"
    lio.save_graph(path(3), gfile)
    graph = ["--graph", str(gfile), "--kind", "standard"]
    assert main(["pst", "verify", *graph, "--pair", "0", "-1", "--time", "1"]) == 2
    assert main(["pst", "search", *graph, "--pair", "0", "7"]) == 2
    assert main(["walk", *graph, "--time", "1", "--from", "3", "--to", "0"]) == 2
    assert main(["walk", *graph, "--time", "1", "--from", "0", "--to", "-1"]) == 2
    assert main(["fidelity-curve", *graph, "--pair", "-1", "2"]) == 2
    for bad in ("nan", "inf", "-inf", "1e400", "1" * 400, "pi/0"):
        assert main(["walk", *graph, "--time", bad, "--from", "0", "--to", "1"]) == 2
        with pytest.raises(ValueError):
            parse_time(bad)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 3.7, "edges": [[0, 1.9]]}',
        '{"n": 3, "edges": [[0, true]]}',
        '{"n": "3"}',
        '{"n": 2, "edges": [[0, 1, true]]}',
        '{"n": 2, "loops": [[1.0, 2]]}',
    ],
)
def test_non_integer_graph_json_is_rejected(tmp_path, capsys, text):
    gfile = tmp_path / "g.json"
    gfile.write_text(text)
    assert main(["graph", "show", "--graph", str(gfile)]) == 2
    assert capsys.readouterr().out == ""


def test_non_integer_cell_entries_are_rejected(tmp_path, capsys):
    gfile, pfile = tmp_path / "p3.json", tmp_path / "cells.json"
    lio.save_graph(path(3), gfile)
    pfile.write_text('{"cells": [[0, 2.5], [1]]}')  # [0, 2] would be equitable
    code = main(["quotient", "--graph", str(gfile), "--partition", str(pfile), "--kind", "adjacency"])
    assert code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 3, "edges": [5]}',
        '{"n": 3, "edges": [[0, 1]], "loops": [7]}',
        '{"n": 3, "edges": 5}',
        '{"n": 3, "edges": [[0, 1, 1, 1]]}',
        '{"n": 3, "loops": [[1]]}',
        '{"n": 3, "edges": [{"u": 0, "v": 1}]}',
    ],
)
def test_malformed_graph_json_is_rejected(tmp_path, capsys, text):
    gfile = tmp_path / "g.json"
    gfile.write_text(text)
    assert main(["graph", "show", "--graph", str(gfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "entry must be" in captured.err or "must be a list" in captured.err


@pytest.mark.parametrize("cells", ['{"cells": [[0, 2], 1]}', '{"cells": 5}'])
def test_malformed_cells_are_rejected(tmp_path, capsys, cells):
    gfile, pfile = tmp_path / "p3.json", tmp_path / "cells.json"
    lio.save_graph(path(3), gfile)
    pfile.write_text(cells)
    code = main(["quotient", "--graph", str(gfile), "--partition", str(pfile), "--kind", "adjacency"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "cells" in captured.err


@pytest.mark.parametrize(
    "text",
    [
        "n 1_1\n0 1\n",  # int() reads 11
        "n 11\n0 1_0\n",  # int() reads 10
        "n 3\n+0 1\n",
        "n 3\n0 1 1_0\n",  # float() reads 10.0
        "n 3 7\n0 1\n",
        "n 3\n0 1 \u0661\n",  # float() reads the Arabic-Indic digit one as 1.0
    ],
)
def test_non_decimal_edge_list_is_rejected(tmp_path, capsys, text):
    gfile = tmp_path / "g.txt"
    gfile.write_text(text)
    assert main(["graph", "show", "--graph", str(gfile)]) == 2
    assert capsys.readouterr().out == ""


# `pst search` JSON of the six scan searches (P100 under three operators and
# Q8 at t_max=2000, double cones over C38 and C40 at 500): the peak each one
# reports. Times and phases are compared to 1e-9 and magnitudes to 1e-12,
# because their last bits follow the LAPACK build.
PINNED_SEARCHES = [
    # graph, kind, pair, t_max; then the reported time, magnitude and phase
    (
        path(100), "signless", (0, 99), "2000",
        1774.8583104854479, 0.3424079295044807, -2.8585150680195746,
    ),
    (
        path(100), "standard", (0, 99), "2000",
        1774.8583104854479, 0.3424079295044807, 0.2830775855702185,
    ),
    (
        path(100), "normalized", (0, 99), "2000",
        698.51422280105, 0.31928395624473255, 0.49014262267897846,
    ),
    (
        hypercube(8), "adjacency", (0, 255), "2000",
        1.5707963267952536, 0.9999999999999998, -1.2493672724040955e-16,
    ),
    (
        join(empty(2), cycle(38)), "standard", (0, 1), "500",
        1.5707963267951832, 0.9999999999999998, -1.0851433135122798e-11,
    ),
    (
        join(empty(2), cycle(40)), "standard", (0, 1), "500",
        472.884494190349, 0.9972037971816612, 0.07479982510039447,
    ),
]


@pytest.mark.parametrize("g, kind, pair, t_max, time, magnitude, phase", PINNED_SEARCHES)
def test_scan_search_answers_are_pinned(tmp_path, capsys, g, kind, pair, t_max, time, magnitude, phase):
    gfile = tmp_path / "g.json"
    lio.save_graph(g, gfile)
    argv = ["pst", "search", "--graph", str(gfile), "--kind", kind, "--pair", *map(str, pair)]
    assert main(argv + ["--t-max", t_max]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pair"] == list(pair) and payload["kind"] == kind
    assert payload["method"] == "GridSearchRefined"
    assert payload["time"] == pytest.approx(time, rel=0, abs=1e-9)
    assert payload["magnitude"] == pytest.approx(magnitude, rel=0, abs=1e-12)
    assert payload["phase"] == pytest.approx(phase, rel=0, abs=1e-9)
