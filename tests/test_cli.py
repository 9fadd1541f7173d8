import cmath
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from lapwalk import cli
from lapwalk.cli import main, parse_time
from lapwalk import io as lio
from lapwalk.graphs import cycle, empty, hypercube, join, make_graph, path
from lapwalk.operators import operator, standard_laplacian
from lapwalk.pst import search_pst, verify_pst, walk_entries
from lapwalk.spectral import eigendecompose
from oracle import walk_oracle

ROOT = Path(__file__).resolve().parents[1]


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


@pytest.mark.parametrize("text", ["+".join(["1"] * 3000), "-" * 5000 + "1"], ids=["sum", "signs"])
def test_time_nested_too_deep_is_an_input_error(tmp_path, capsys, text):
    gfile = tmp_path / "p3.json"
    lio.save_graph(path(3), gfile)
    argv = ["walk", "--graph", str(gfile), "--kind", "adjacency", "--from", "0", "--to", "2"]
    assert main([*argv, f"--time={text}"]) == 2  # "=": argparse reads a leading "-" as an option
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: cannot parse time")
    assert captured.err.count("\n") == 1


def test_graph_show_prints_exact_degrees(monkeypatch, capsys):
    # {:g} printed the hub's degree 1000001 as 1e+06
    star = join(empty(1), empty(1_000_001))
    monkeypatch.setattr(lio, "load_graph", lambda path: star)
    assert main(["graph", "show", "--graph", "star.json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "degrees 1000001" + " 1" * 1_000_001


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
    pfile.write_text(json.dumps({"cells": [[0], [2, 3, 4, 5], [1]]}))
    code = main(
        ["quotient", "--graph", str(gfile), "--partition", str(pfile), "--kind", "signless"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("4.0,2.0,0.0")


def test_quotient_command_prints_the_normalized_quotient(tmp_path, capsys):
    from lapwalk.graphs import complete

    gfile = tmp_path / "dc.json"
    pfile = tmp_path / "cells.json"
    lio.save_graph(join(empty(2), complete(4)), gfile)
    pfile.write_text(json.dumps({"cells": [[0], [2, 3, 4, 5], [1]]}))
    argv = ["quotient", "--graph", str(gfile), "--partition", str(pfile), "--kind"]
    # apexes of degree 4, the K4 cell of degree 5: -2/sqrt(4 * 5) = -1/sqrt(5)
    assert main([*argv, "normalized"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "1.0,-0.4472135954999579,0.0"
    assert main([*argv, "custom"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_the_custom_kind_is_named_by_its_value(tmp_path, capsys):
    # a str-mixin Enum formats as OperatorKind.CUSTOM under Python 3.11
    gfile, pfile = tmp_path / "p3.json", tmp_path / "cells.json"
    lio.save_graph(path(3), gfile)
    pfile.write_text(json.dumps({"cells": [[0, 2], [1]]}))
    quotient = ["quotient", "--graph", str(gfile), "--partition", str(pfile)]
    for argv in (["matrix", "--graph", str(gfile)], quotient):
        assert main([*argv, "--kind", "custom"]) == 2
        assert capsys.readouterr() == ("", "error: no graph operator for kind custom\n")


def test_controllable_command(tmp_path, capsys):
    gfile = tmp_path / "cone.json"
    from lapwalk.graphs import cone_p4_with_pendant

    lio.save_graph(cone_p4_with_pendant(0).graph, gfile)
    assert main(["controllable", "--graph", str(gfile), "--vertex", "1"]) == 0
    assert "rank 5/5 controllable" in capsys.readouterr().out


def test_unicyclic_command(capsys):
    code = main(["unicyclic", "--m", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict no-pst" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["pst", "verify", "--kind", "standard", "--pair", "0", "4", "--time", "3", "--tol", "0.9"],
        ["verify-suite", "double-cone", "--t-max", "1"],
        ["verify-suite", "path-cycle", "--n-max", "3"],
        ["unicyclic", "--m", "1", "--t-max", "30"],
    ],
)
def test_verdicts_take_no_tolerance_horizon_or_order(tmp_path, capsys, argv):
    # each option would change what a verdict means: a magnitude of 0.73 that
    # certifies, a theorem that fails at a short horizon, a suite that checks
    # less than its claim
    gfile = tmp_path / "p5.json"
    lio.save_graph(path(5), gfile)
    if argv[0] == "pst":
        argv = argv[:2] + ["--graph", str(gfile)] + argv[2:]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err and "Traceback" not in captured.err


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


def test_one_parser_serves_every_call(tmp_path, monkeypatch):
    # the parser is built once per process; no call's options leak into the next
    gfile = tmp_path / "p3.json"
    gfile.write_text(lio.graph_to_json(path(3)))
    horizons = []

    def recording_search(h, pair, t_max):
        horizons.append(t_max)
        return search_pst(h, pair, t_max)

    monkeypatch.setattr(cli, "search_pst", recording_search)
    search = ["pst", "search", "--graph", str(gfile), "--kind", "laplacian", "--pair", "0", "2"]
    assert main(search + ["--t-max", "5"]) == 0
    assert main(search) == 0
    assert horizons == [5.0, 50.0]
    assert cli._build_parser() is cli._build_parser()
    assert main(search + ["--t-max"]) == 2
    assert main(["frobnicate"]) == 2
    assert main(search) == 0 and horizons[-1] == 50.0


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


# graph type -> the size option it needs
SIZE_OPTIONS = {
    "path": "n",
    "cycle": "n",
    "complete": "n",
    "empty": "n",
    "hypercube": "d",
    "circulant": "n",
    "circulant-family": "m",
    "odd-unicyclic": "m",
    "cone-p4-pendant": "m",
}


@pytest.mark.parametrize(
    "kind, given",
    [pytest.param(kind, ["--gens", "1"], id=kind) for kind in SIZE_OPTIONS]
    # --n is a vertex count, and stands in for no other type's size
    + [
        pytest.param(kind, ["--n", "5"], id=f"{kind}-by-n")
        for kind, option in SIZE_OPTIONS.items()
        if option != "n"
    ],
)
def test_graph_build_needs_its_size_option(kind, given, capsys):
    assert main(["graph", "build", "--type", kind, *given]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: graph type {kind} needs --{SIZE_OPTIONS[kind]}\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--type", "path", "--n", "4", "--d", "3"], "d"),
        (["--type", "path", "--n", "4", "--gens", "1,3"], "gens"),
        (["--type", "cycle", "--n", "5", "--m", "2"], "m"),
        (["--type", "hypercube", "--n", "2", "--d", "3"], "n"),
        (["--type", "circulant", "--n", "6", "--gens", "1", "--m", "2"], "m"),
        (["--type", "odd-unicyclic", "--m", "2", "--gens", "1"], "gens"),
    ],
)
def test_graph_build_rejects_options_its_type_does_not_read(argv, flag, capsys):
    assert main(["graph", "build", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: graph type {argv[1]} does not take --{flag}\n"


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
    _show_rejects(tmp_path, capsys, text)


def _show_rejects(tmp_path, capsys, text) -> str:
    """``graph show`` on the graph JSON ``text`` exits 2 with one error
    line and prints nothing; the error line is returned."""
    gfile = tmp_path / "g.json"
    gfile.write_text(text)
    assert main(["graph", "show", "--graph", str(gfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    return captured.err


# each input is valid up to one entry, which comes after a valid one; the
# error line must name that entry
@pytest.mark.parametrize(
    "text, named",
    [
        ('{"n": 3, "edges": [[0, 1], [1, 36893488147419103232]]}', "36893488147419103232"),
        ('{"n": 3, "edges": [[0, 1], [true, 2]]}', "got True"),
        ('{"n": 3, "edges": [[0, 1], [1.0, 2]]}', "got 1.0"),
        ('{"n": 3, "edges": [[0, 1], [1, "1"]]}', "got '1'"),
        ('{"n": 3, "edges": [[0, 1], [1, 2, NaN]]}', "got [1, 2, nan]"),
        ('{"n": 3, "edges": [[0, 1, 2.5], [1, 2, Infinity]]}', "got [0, 1, 2.5]"),
        ('{"n": 3, "edges": [[0, 1], [1, 2], [1, 0]]}', "duplicate edge (0, 1)"),
        ('{"n": 3, "edges": [[0, 1], [2, 2]]}', "(2,2) is a loop"),
        ('{"n": 3, "edges": [[0, 1], [1, 3]]}', "edge (1,3) out of range"),
        ('{"n": 3, "edges": [[0, 1], [-1, 2]]}', "edge (-1,2) out of range"),
        ('{"n": 3, "loops": [[1, 0.5], [3, 0.5]]}', "got [1, 0.5]"),
        ('{"n": 3, "edges": [[0, 1, 1' + "0" * 400 + ']]}', "got [0, 1, 1000"),
    ],
)
def test_graph_json_errors_name_the_first_offending_entry(tmp_path, capsys, text, named):
    assert named in _show_rejects(tmp_path, capsys, text)


# sizes whose first array fails to allocate at once, or that no int64 holds
@pytest.mark.parametrize(
    "argv",
    [
        ["--type", "path", "--n", str(2**65)],
        ["--type", "path", "--n", str(10**15)],
        ["--type", "circulant-family", "--m", str(10**20)],
        ["--type", "circulant-family", "--m", str(10**15)],
        ["--type", "empty", "--n", str(2**65)],
        ["--type", "hypercube", "--d", "70"],
        ["--type", "circulant", "--n", str(2**65), "--gens", "1,-1"],
    ],
)
def test_graph_build_rejects_sizes_beyond_memory_at_once(argv, capsys):
    assert main(["graph", "build", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


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
        "n 3\n0 1 1_0\n",  # a third token
        "n 3 7\n0 1\n",
        "n 3\n0 1 \u0661\n",  # a third token, the Arabic-Indic digit one
    ],
)
def test_non_decimal_edge_list_is_rejected(tmp_path, capsys, text):
    gfile = tmp_path / "g.txt"
    gfile.write_text(text)
    assert main(["graph", "show", "--graph", str(gfile)]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "weight", ["inf", "1_0", "2,5", "1" * 50000 + "_"], ids=["inf", "underscore", "comma", "long-token"]
)
def test_bad_weight_after_many_lines_is_rejected_at_once(tmp_path, weight):
    # graphs are unweighted: a third token on a line is an error, whatever
    # it reads as, and the error names the line
    gfile = tmp_path / "g.txt"
    gfile.write_text("n 42\n" + "".join(f"0 {v}\n" for v in range(1, 41)) + f"0 41 {weight}\n")
    code = "import sys; from lapwalk.cli import main; sys.exit(main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code, "graph", "show", "--graph", str(gfile)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error:") and repr(f"0 41 {weight}") in done.stderr
    assert done.stderr.count("\n") == 1


# graphs are simple: each reader rejects a weight and a loop, naming the row
@pytest.mark.parametrize(
    "suffix, text, named",
    [
        (".json", '{"n": 3, "edges": [[0, 1, 2]]}', "got [0, 1, 2]"),
        (".json", '{"n": 3, "edges": [[0, 1]], "loops": [[2, 1]]}', "got [2, 1]"),
        (".txt", "n 3\n0 1\n1 2 2\n", "'1 2 2'"),
        (".txt", "n 3\n0 1\n2 2\n", "edge (2,2) is a loop"),
    ],
    ids=["json-weight", "json-loop", "edgelist-weight", "edgelist-loop"],
)
def test_weights_and_loops_are_rejected_naming_the_row(tmp_path, capsys, suffix, text, named):
    gfile = tmp_path / f"g{suffix}"
    gfile.write_text(text)
    assert main(["graph", "show", "--graph", str(gfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and named in captured.err
    assert captured.err.count("\n") == 1


def test_graph_json_loads_with_empty_or_absent_loops(tmp_path, capsys):
    shown = []
    for text in ('{"n": 3, "edges": [[1, 2], [0, 1]], "loops": []}', '{"n": 3, "edges": [[1, 2], [0, 1]]}'):
        gfile = tmp_path / "g.json"
        gfile.write_text(text)
        assert main(["graph", "show", "--graph", str(gfile)]) == 0
        shown.append(capsys.readouterr().out)
    assert shown == ["n 3\nedges 2\ndegrees 1 2 1\n0 1\n1 2\n"] * 2


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
    # the entry 1/42 - e^(-40it)/2 + 10 e^(-42it)/21 has period pi and
    # |a(pi - s)| = |a(s)|: the earliest of its equal peaks
    (
        join(empty(2), cycle(40)), "standard", (0, 1), "500",
        1.4959965017096972, 0.9972037971811801, -0.0747998250963452,
    ),
    # horizons whose grids span several scan products
    (
        path(100), "standard", (0, 99), "20000",
        15986.3325392915, 0.4705932241279774, -0.676642999679364,
    ),
    (
        path(4), "standard", (0, 3), "10000",
        7470.707495374911, 0.9999999727293148, -0.0003302767660253747,
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


@pytest.mark.parametrize("g, kind, pair, t_max", [entry[:4] for entry in PINNED_SEARCHES])
def test_search_reports_the_entry_from_all_weights(g, kind, pair, t_max):
    # the scan reads only the pair's support; the reported magnitude and
    # phase are those of verify_pst, which reads every cluster
    h = operator(g, kind)
    cert = search_pst(h, pair, float(t_max))
    check = verify_pst(h, pair, cert.time)
    assert (cert.magnitude, cert.phase) == (check.magnitude, check.phase)


def test_search_on_an_integral_support_scans_one_period(tmp_path, capsys):
    # the Q10 antipodes' support {-10, -8, ..., 10} has period pi: a horizon
    # of 1e8 scans what a horizon of 4 scans, and answers the same
    gfile = tmp_path / "q10.json"
    assert main(["graph", "build", "--type", "hypercube", "--d", "10", "--out", str(gfile)]) == 0
    argv = ["pst", "search", "--graph", str(gfile), "--kind", "adjacency", "--pair", "0", "1023"]
    answers = []
    for t_max in ("4", "1e8"):
        assert main(argv + ["--t-max", t_max]) == 0
        answers.append(json.loads(capsys.readouterr().out))
    assert answers[0] == answers[1]
    assert answers[0]["magnitude"] >= 1 - 1e-9
    assert answers[0]["time"] == pytest.approx(math.pi / 2, rel=0, abs=1e-9)


@pytest.mark.parametrize(
    "verb",
    [
        ["pst", "search", "--pair", "0", "3", "--t-max"],
        ["pst", "verify", "--pair", "0", "3", "--time"],
        ["walk", "--from", "0", "--to", "3", "--time"],
        ["fidelity-curve", "--pair", "0", "3", "--t-max"],
    ],
)
def test_pst_rejects_a_horizon_lost_to_rounding(tmp_path, capsys, verb):
    # at t = 1e300 rounding alone moves the magnitude by far more than the
    # 1e-6 between the two thresholds: the search would never return, and
    # every other verb would print rounding noise
    gfile = tmp_path / "p4.json"
    lio.save_graph(path(4), gfile)
    argv = verb[:-1] + ["--graph", str(gfile), "--kind", "standard"]
    assert main(argv + [verb[-1], "1e300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "too long" in captured.err
    assert main(argv + [verb[-1], "200"]) in (0, 1)
    assert capsys.readouterr().out


def test_out_of_memory_exits_2(monkeypatch, capsys):
    def refuse(k, a):
        raise MemoryError(f"Unable to allocate {k} GiB")

    monkeypatch.setitem(cli._BUILDERS, "complete", ("n", refuse))
    assert main(["graph", "build", "--type", "complete", "--n", "200000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: Unable to allocate 200000 GiB\n"


def test_overflow_exits_2(monkeypatch, capsys):
    def overflow(k, a):
        raise OverflowError("Python int too large to convert to C long")

    monkeypatch.setitem(cli._BUILDERS, "path", ("n", overflow))
    assert main(["graph", "build", "--type", "path", "--n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: Python int too large to convert to C long\n"


def _random_graph_file(rng, tmp_path, i):
    n = rng.randint(2, 12)
    edges = {(rng.randrange(v), v) for v in range(1, n)}  # a random tree ...
    for _ in range(rng.randint(0, n)):  # ... plus random chords
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    gfile = tmp_path / f"g{i}.json"
    lio.save_graph(make_graph(n, edges), gfile)
    return n, str(gfile)


@pytest.mark.parametrize("kind", ["adjacency", "standard", "signless", "normalized"])
def test_fidelity_curve_rows_are_the_single_time_walk_entries(tmp_path, capsys, kind):
    # every row has the bits its time gets alone, whatever the other times
    rng = random.Random(25)
    for i in range(6):
        n, gfile = _random_graph_file(rng, tmp_path, i)
        h = operator(lio.load_graph(gfile), kind)
        pair = (rng.randrange(n), rng.randrange(n))
        argv = ["fidelity-curve", "--graph", gfile, "--kind", kind, "--pair", *map(str, pair)]
        assert main(argv + ["--t-max", "25", "--samples", "37"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 37
        for row in rows:
            t, re, im, mag = row.split(",")
            amp = complex(walk_entries(h, pair, [float(t)])[0])
            assert [re, im, mag] == [repr(amp.real), repr(amp.imag), repr(abs(amp))], (gfile, pair, t)


@pytest.mark.parametrize("kind", ["adjacency", "standard", "signless", "normalized"])
def test_walk_prints_what_pst_verify_reports(tmp_path, capsys, kind):
    # both verbs read the same walk entry, so they agree bit for bit: the
    # magnitude, and the phase of re + i im
    rng = random.Random(17)
    for i in range(12):
        n, gfile = _random_graph_file(rng, tmp_path, i)
        u, v = rng.randrange(n), rng.randrange(n)
        t = repr(rng.choice([rng.uniform(0.05, 3.0), rng.uniform(3.0, 40.0)]))
        graph = ["--graph", gfile, "--kind", kind]
        assert main(["walk", *graph, "--time", t, "--from", str(u), "--to", str(v), "--format", "json"]) == 0
        walked = json.loads(capsys.readouterr().out)
        main(["pst", "verify", *graph, "--pair", str(u), str(v), "--time", t])
        verified = json.loads(capsys.readouterr().out)
        assert walked["magnitude"] == verified["magnitude"]
        assert cmath.phase(complex(walked["re"], walked["im"])) == verified["phase"]


def test_every_reader_answers_the_identity_at_time_zero(tmp_path, capsys):
    # U(0) = I exactly: 1 on the diagonal, 0 off it, whatever the rounding
    # of the eigenvectors
    rng = random.Random(3)
    for i, kind in enumerate(["adjacency", "standard", "signless", "normalized"] * 3):
        n, gfile = _random_graph_file(rng, tmp_path, i)
        h = operator(lio.load_graph(gfile), kind)
        for u, v in [(0, 0), (0, n - 1), (rng.randrange(n), rng.randrange(n))]:
            delta = float(u == v)
            graph = ["--graph", gfile, "--kind", kind]
            main(["walk", *graph, "--time", "0", "--from", str(u), "--to", str(v), "--format", "json"])
            walked = json.loads(capsys.readouterr().out)
            assert (walked["re"], walked["im"], walked["magnitude"]) == (delta, 0.0, delta)
            cert = verify_pst(h, (u, v), 0.0)
            assert (cert.magnitude, cert.phase) == (delta, 0.0)
            main(["fidelity-curve", *graph, "--pair", str(u), str(v), "--t-max", "3", "--samples", "4"])
            first = capsys.readouterr().out.splitlines()[1].split(",")
            assert [float(x) for x in first] == [0.0, delta, 0.0, delta]
            assert eigendecompose(h).amplitude(u, v, [0.0, -0.0])[0] == delta
    # a search whose only cluster is 0 answers at t = 0
    for u, v in [(0, 0), (0, 2)]:
        cert = search_pst(operator(empty(3), "adjacency"), (u, v), 10.0)
        assert (cert.time, cert.magnitude, cert.phase) == (0.0, float(u == v), 0.0)


def test_walk_memory_stays_with_the_eigensolve(tmp_path, capsys):
    # an n = 1000 eigensolve holds two 8 MB arrays; a whole complex walk
    # matrix, and the scaled eigenvectors that build it, take 16 MB more each
    gfile = tmp_path / "p1000.json"
    lio.save_graph(path(1000), gfile)
    argv = ["walk", "--graph", str(gfile), "--kind", "standard", "--time", "7.5", "--from", "0", "--to", "999"]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "magnitude=" in capsys.readouterr().out
    assert peak < 32 << 20


@pytest.mark.parametrize(
    "command, options, text",
    [
        (["graph", "build"], ["--type", "path", "--n", "1_0"], "1_0"),  # int() reads 10
        (["graph", "build"], ["--type", "path", "--n", "+3"], "+3"),
        (["graph", "build"], ["--type", "path", "--n", " 3"], " 3"),
        (["graph", "build"], ["--type", "hypercube", "--d", "٣"], "٣"),  # Arabic-Indic 3
        (["graph", "build"], ["--type", "circulant", "--gens", "1_0,6", "--n", "8"], "1_0"),
        (["graph", "build"], ["--type", "circulant", "--gens", "1,+2", "--n", "8"], "+2"),
        (["walk"], ["--time", "1", "--from", "+0", "--to", "2"], "+0"),
        (["walk"], ["--time", "1", "--from=-1_0", "--to", "2"], "-1_0"),
        (["walk"], ["--time", "1", "--from", "0", "--to", "٢"], "٢"),
        (["fidelity-curve"], ["--pair", "0", "2", "--samples", "1_0"], "1_0"),
        (["pst", "verify"], ["--pair", "0", "0x2", "--time", "1"], "0x2"),
        (["pst", "search"], ["--pair", "0", "2.0"], "2.0"),
        (["controllable"], ["--vertex", "+1"], "+1"),
        (["unicyclic"], ["--m", "1_0"], "1_0"),
    ],
)
def test_integer_options_are_ascii_decimal_digits(tmp_path, capsys, command, options, text):
    gfile = tmp_path / "p3.json"
    lio.save_graph(path(3), gfile)
    graph = {"graph": [], "unicyclic": [], "controllable": ["--graph", str(gfile)]}.get(
        command[0], ["--graph", str(gfile), "--kind", "adjacency"]
    )
    assert main([*command, *graph, *options]) == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert captured.out == "" and "Traceback" not in captured.err
    assert errors == [errors[0]] and errors[0].endswith(f"{text!r} is not an integer in decimal digits")


def test_negative_integers_still_reach_the_library(tmp_path, capsys):
    gfile = tmp_path / "p3.json"
    lio.save_graph(path(3), gfile)
    argv = ["pst", "verify", "--graph", str(gfile), "--kind", "adjacency", "--pair", "-1", "2047", "--time", "1"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: vertex -1 out of range\n")
    assert main(["graph", "build", "--type", "path", "--n", "-3"]) == 2
    assert capsys.readouterr() == ("", "error: vertex count must be nonnegative\n")
    assert main(["graph", "build", "--type", "path", "--n", "3"]) == 0
    assert lio.graph_from_json(capsys.readouterr().out) == path(3)


@pytest.mark.parametrize("text", ["True", "False+pi", "0x10", "0b11", "0o7", "1_0", "1j", "2*True"])
def test_times_read_decimal_literals_only(tmp_path, capsys, text):
    # each of these was a number to Python: 1.0, pi, 16, 3, 7 and 10
    gfile = tmp_path / "p3.json"
    lio.save_graph(path(3), gfile)
    graph = ["--graph", str(gfile), "--kind", "adjacency", "--pair", "0", "2"]
    for argv in (["pst", "verify", *graph, "--time", text], ["fidelity-curve", *graph, "--t-max", text]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: cannot parse time {text!r}\n")
    with pytest.raises(ValueError):
        parse_time(text)
    assert [parse_time(t) for t in ("10", "1e1", "1E+1", "10.", "100e-1", "2.5pi")] == [10.0] * 5 + [2.5 * math.pi]


def test_controllable_refuses_two_to_the_21_vertices(tmp_path, capsys):
    gfile = tmp_path / "empty.json"
    assert main(["graph", "build", "--type", "empty", "--n", str(2**21), "--out", str(gfile)]) == 0
    assert main(["controllable", "--graph", str(gfile), "--vertex", "0"]) == 2
    assert capsys.readouterr() == ("", "error: exact rank needs fewer than 2^21 vertices, got 2097152\n")
