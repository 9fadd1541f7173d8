"""Command-line frontend.

Verbs: graph build|show, matrix, walk, fidelity-curve, pst verify|search,
quotient, controllable, unicyclic, verify-suite. Exit codes: 0 when the
command succeeded and any assertion held, 1 when an assertion failed
(refuted transfer, failing suite), 2 on usage or input errors.

Times are accepted either as decimals or as symbolic expressions over pi and
sqrt ("pi/2", "3pi", "pi/sqrt(8)"), parsed exactly and converted to float
once.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import io as lio
from .control import exact_rank, unicyclic_no_pst_pipeline, walk_matrix
from .graphs import (
    Graph,
    circulant,
    circulant_family,
    complete,
    cone_p4_with_pendant,
    cycle,
    empty,
    hypercube,
    odd_unicyclic,
    path,
)
from .operators import OperatorKind, operator
from .partitions import check_almost_equitable, check_equitable, quotient
from .pst import search_pst, verify_pst
from .spectral import eigendecompose, walk
from .suites import available_suites, suite_for

__all__ = ["main", "parse_time"]


def parse_time(text: str) -> float:
    """Parse a finite time given as a decimal or a pi/sqrt expression."""
    # allow "3pi" and "2sqrt(2)" shorthand
    src = re.sub(r"(?<=[\d.)])\s*(?=pi|sqrt|\()", "*", text.strip())
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError:
        raise ValueError(f"cannot parse time {text!r}") from None

    def ev(node) -> float:
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id == "pi":
            return math.pi
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sqrt":
            if len(node.args) != 1:
                raise ValueError("sqrt takes one argument")
            return math.sqrt(ev(node.args[0]))
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
            a, b = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Add):
                return a + b
            if isinstance(node.op, ast.Sub):
                return a - b
            if isinstance(node.op, ast.Mult):
                return a * b
            return a / b
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            val = ev(node.operand)
            return -val if isinstance(node.op, ast.USub) else val
        raise ValueError(f"cannot parse time {text!r}")

    try:
        value = ev(tree)
    except ArithmeticError:  # division by zero, or an integer too large for a float
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"time {text!r} is not a finite number")
    return value


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _vertices(g: Graph, *vertices: int) -> tuple[int, ...]:
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    return vertices


def _generators(text: str) -> list[int]:
    if not text:
        raise ValueError("graph type circulant needs --gens")
    return [int(s) for s in text.split(",")]


# graph type -> (its size option, builder from that size and the arguments);
# --n stands in for a missing --d or --m
_BUILDERS = {
    "path": ("n", lambda k, a: path(k)),
    "cycle": ("n", lambda k, a: cycle(k)),
    "complete": ("n", lambda k, a: complete(k)),
    "empty": ("n", lambda k, a: empty(k)),
    "hypercube": ("d", lambda k, a: hypercube(k)),
    "circulant": ("n", lambda k, a: circulant(k, _generators(a.gens))),
    "circulant-family": ("m", lambda k, a: circulant_family(k)),
    "odd-unicyclic": ("m", lambda k, a: odd_unicyclic(k).graph),
    "cone-p4-pendant": ("m", lambda k, a: cone_p4_with_pendant(k).graph),
}


def _cmd_graph(args) -> int:
    if args.action == "build":
        option, build = _BUILDERS[args.type]
        size = args.n if getattr(args, option) is None else getattr(args, option)
        if size is None:
            alias = "" if option == "n" else " (or --n)"
            raise ValueError(f"graph type {args.type} needs --{option}{alias}")
        g = build(size, args)
        _emit(lio.graph_to_json(g), args.out)
        return 0
    g = lio.load_graph(args.graph)
    lines = [f"n {g.n}", f"edges {g.edge_count}", f"loops {len(g.loops)}"]
    degs = g.degrees()
    lines.append("degrees " + " ".join(f"{d:g}" for d in degs))
    for u, v, w in g.edges:
        lines.append(f"{u} {v}" if w == 1.0 else f"{u} {v} {w!r}")
    for v, w in g.loops:
        lines.append(f"loop {v} {w!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_matrix(args) -> int:
    g = lio.load_graph(args.graph)
    h = operator(g, args.kind)
    _emit(lio.matrix_to_csv(h.matrix), args.out)
    return 0


def _cmd_walk(args) -> int:
    g = lio.load_graph(args.graph)
    h = operator(g, args.kind)
    src, dst = _vertices(g, args.src, args.dst)
    t = parse_time(args.time)
    amp = complex(walk(h, t)[dst, src])
    payload = {
        "from": args.src,
        "to": args.dst,
        "kind": h.kind.value,
        "time": t,
        "re": amp.real,
        "im": amp.imag,
        "magnitude": abs(amp),
    }
    if args.format == "json":
        _emit(json.dumps(payload) + "\n", args.out)
    else:
        _emit(
            f"entry {args.src}->{args.dst} at t={t!r}: magnitude={abs(amp)!r} "
            f"re={amp.real!r} im={amp.imag!r}\n",
            args.out,
        )
    return 0


def _cmd_fidelity_curve(args) -> int:
    if args.samples < 2:
        raise ValueError("--samples must be at least 2")
    g = lio.load_graph(args.graph)
    h = operator(g, args.kind)
    u, v = _vertices(g, *args.pair)
    t_max = parse_time(args.t_max)
    ts = np.linspace(0.0, t_max, args.samples)
    amps = eigendecompose(h).amplitude(u, v, ts)
    _emit(lio.curve_to_csv(zip(ts, amps)), args.out)
    return 0


def _cmd_pst(args) -> int:
    g = lio.load_graph(args.graph)
    h = operator(g, args.kind)
    pair = _vertices(g, *args.pair)
    if args.action == "verify":
        if not 0.0 <= args.tol < 1.0:  # also false for nan
            raise ValueError(f"--tol must be a number in [0, 1), got {args.tol!r}")
        t = parse_time(args.time)
        res = verify_pst(h, pair, t, pst_tol=args.tol)
        _emit(json.dumps(res.payload()) + "\n", args.out)
        return 0 if res.certifies(args.tol) else 1
    t_max = parse_time(args.t_max)
    cert = search_pst(h, pair, t_max)
    _emit(json.dumps(cert.payload()) + "\n", args.out)
    return 0


def _cmd_quotient(args) -> int:
    g = lio.load_graph(args.graph)
    cells = lio.cells_from_json(Path(args.partition).read_text())
    kind = OperatorKind.from_name(args.kind)
    if kind == OperatorKind.STANDARD:
        part = check_almost_equitable(g, cells)
    else:
        part = check_equitable(g, cells)
    text = lio.matrix_to_csv(quotient(part, kind))
    text += "# neighbor counts d[j,k] (nan = unconstrained diagonal)\n"
    text += lio.matrix_to_csv(part.degree_counts)
    _emit(text, args.out)
    return 0


def _cmd_controllable(args) -> int:
    g = lio.load_graph(args.graph)
    rank = exact_rank(walk_matrix(g, (args.vertex,)))
    verdict = "controllable" if rank == g.n else "not-controllable"
    _emit(f"vertex {args.vertex}: rank {rank}/{g.n} {verdict}\n", args.out)
    return 0


def _cmd_unicyclic(args) -> int:
    rep = unicyclic_no_pst_pipeline(args.m, t_max=parse_time(args.t_max))
    lines = [
        f"m {rep.m}",
        f"line-graph order {rep.line_order}",
        f"pendant-edge pair {rep.line_pair[0]} {rep.line_pair[1]}",
        f"ranks {rep.ranks[0]} {rep.ranks[1]}",
        f"endpoints controllable {rep.ranks[0] == rep.line_order} {rep.ranks[1] == rep.line_order}",
        f"scan max magnitude {rep.scan.magnitude!r} at t={rep.scan.time!r}",
        f"verdict {rep.verdict}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if rep.scan.refutes() else 1


def _cmd_verify_suite(args) -> int:
    names = available_suites() if args.name == "all" else [args.name]
    options = {}
    if args.n_max is not None:
        options["n_max"] = args.n_max
    if args.t_max is not None:
        options["t_max"] = parse_time(args.t_max)
    suites = [suite_for(name, options) for name in names]  # all checked before any prints
    all_ok = True
    for suite in suites:
        report = suite(**options)
        for line in report.lines:
            print(line)
        print(f"suite {report.name}: {'PASS' if report.passed else 'FAIL'}")
        all_ok = all_ok and report.passed
    return 0 if all_ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lapwalk",
        description="Quantum walks on graphs relative to adjacency and Laplacian operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, t_max=None, samples=False):
        p.add_argument("--out", help="write output to this file instead of stdout")
        if t_max is not None:
            p.add_argument("--t-max", dest="t_max", default=t_max)
        if samples:
            p.add_argument("--samples", type=int, default=201)

    p_graph = sub.add_parser("graph", help="build or inspect graphs")
    graph_sub = p_graph.add_subparsers(dest="action", required=True)
    p_build = graph_sub.add_parser("build")
    p_build.add_argument("--type", required=True, choices=sorted(_BUILDERS))
    p_build.add_argument("--n", type=int, default=None)
    p_build.add_argument("--d", type=int, default=None)
    p_build.add_argument("--m", type=int, default=None)
    p_build.add_argument("--gens", default="")
    add_common(p_build)
    p_build.set_defaults(func=_cmd_graph)
    p_show = graph_sub.add_parser("show")
    p_show.add_argument("--graph", required=True)
    add_common(p_show)
    p_show.set_defaults(func=_cmd_graph)

    p_matrix = sub.add_parser("matrix", help="dump an operator matrix as CSV")
    p_matrix.add_argument("--graph", required=True)
    p_matrix.add_argument("--kind", required=True)
    add_common(p_matrix)
    p_matrix.set_defaults(func=_cmd_matrix)

    p_walk = sub.add_parser("walk", help="one walk-operator entry")
    p_walk.add_argument("--graph", required=True)
    p_walk.add_argument("--kind", required=True)
    p_walk.add_argument("--time", required=True)
    p_walk.add_argument("--from", dest="src", type=int, required=True)
    p_walk.add_argument("--to", dest="dst", type=int, required=True)
    p_walk.add_argument("--format", choices=("json", "text"), default="text")
    add_common(p_walk)
    p_walk.set_defaults(func=_cmd_walk)

    p_curve = sub.add_parser("fidelity-curve", help="CSV of the walk entry over time")
    p_curve.add_argument("--graph", required=True)
    p_curve.add_argument("--kind", required=True)
    p_curve.add_argument("--pair", nargs=2, type=int, required=True)
    add_common(p_curve, t_max="10", samples=True)
    p_curve.set_defaults(func=_cmd_fidelity_curve)

    p_pst = sub.add_parser("pst", help="verify or search for perfect state transfer")
    pst_sub = p_pst.add_subparsers(dest="action", required=True)
    p_verify = pst_sub.add_parser("verify")
    p_verify.add_argument("--graph", required=True)
    p_verify.add_argument("--kind", required=True)
    p_verify.add_argument("--pair", nargs=2, type=int, required=True)
    p_verify.add_argument("--time", required=True)
    p_verify.add_argument("--tol", type=float, default=1e-9)
    add_common(p_verify)
    p_verify.set_defaults(func=_cmd_pst)
    p_search = pst_sub.add_parser("search")
    p_search.add_argument("--graph", required=True)
    p_search.add_argument("--kind", required=True)
    p_search.add_argument("--pair", nargs=2, type=int, required=True)
    add_common(p_search, t_max="50")
    p_search.set_defaults(func=_cmd_pst)

    p_quot = sub.add_parser("quotient", help="quotient matrix of a partition")
    p_quot.add_argument("--graph", required=True)
    p_quot.add_argument("--partition", required=True)
    p_quot.add_argument("--kind", required=True)
    add_common(p_quot)
    p_quot.set_defaults(func=_cmd_quotient)

    p_ctrl = sub.add_parser("controllable", help="exact walk-matrix rank of a vertex")
    p_ctrl.add_argument("--graph", required=True)
    p_ctrl.add_argument("--vertex", type=int, required=True)
    add_common(p_ctrl)
    p_ctrl.set_defaults(func=_cmd_controllable)

    p_uni = sub.add_parser("unicyclic", help="odd-unicyclic no-transfer pipeline")
    p_uni.add_argument("--m", type=int, required=True)
    add_common(p_uni, t_max="200")
    p_uni.set_defaults(func=_cmd_unicyclic)

    p_suite = sub.add_parser("verify-suite", help="run a named verification suite")
    p_suite.add_argument("name", choices=available_suites() + ["all"])
    p_suite.add_argument("--n-max", dest="n_max", type=int, default=None)
    p_suite.add_argument("--t-max", dest="t_max", default=None)
    p_suite.set_defaults(func=_cmd_verify_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
