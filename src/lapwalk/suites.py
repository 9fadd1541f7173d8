"""Named verification suites behind `lapwalk verify-suite`.

Each suite re-checks one block of claims at fixed tolerances and returns a
SuiteReport with one line per check. Suites are deterministic.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import linegraph, pst
from .control import unicyclic_no_pst_pipeline
from .corpus import named_small_graphs, random_connected_graphs
from .graphs import (
    circulant_family,
    complete,
    empty,
    hypercube,
    join,
    path,
    weak_product,
)
from .operators import (
    OperatorKind,
    normalized_laplacian,
    operator,
    signless_laplacian,
)
from .partitions import check_equitable, path_cycle_correspondence, quotient
from .pst import search_pst, verify_pst
from .spectral import eigendecompose

__all__ = ["SuiteReport", "SUITES", "run_suite", "suite_for", "available_suites"]

IDENTITY_TOL = 1e-9
TIMES = (0.1, 1.0, math.pi, 10.0)
SIGNLESS_CONE_MS = (2, 3, 4)  # signless double cones over circulant_family(m)
UNICYCLIC_MS = (1, 2, 3, 4, 5)  # pendant path lengths of the odd unicyclic graphs
REFUTED_PATH_ORDERS = (4, 5, 6, 7, 8)  # paths whose end-to-end transfer is refuted


@dataclass(frozen=True)
class SuiteReport:
    name: str
    passed: bool
    lines: tuple[str, ...]


def _report(name: str, rows: Iterable[tuple[bool, str]]) -> SuiteReport:
    rows = list(rows)
    if not rows:  # a run that checks nothing proves nothing
        raise ValueError(f"suite {name} checks nothing with these options")
    passed = all(ok for ok, _ in rows)
    lines = tuple(f"{'ok  ' if ok else 'FAIL'} {text}" for ok, text in rows)
    return SuiteReport(name, passed, lines)


# -- suites -------------------------------------------------------------------


def suite_complement_closure() -> SuiteReport:
    """exp(-itL(complement)) equals exp(+itL(g)) whenever |V| t is a multiple
    of 2 pi, across the named gallery."""

    def check(label, g):
        rows = []
        for k in (1, 2):
            t = 2.0 * math.pi * k / g.n
            condition, deviation = pst.complement_closure_check(g, t)
            ok = condition and deviation < IDENTITY_TOL
            rows.append((ok, f"complement-closure {label} t=2pi*{k}/{g.n} dev={deviation:.2e}"))
        return rows

    rows = [row for label, g in named_small_graphs() for row in check(label, g)]
    return _report("complement-closure", rows)


def suite_double_cone(n_max: int = 10, t_max: float = 50.0) -> SuiteReport:
    results = pst.double_cone_characterization(range(1, n_max + 1), t_max=t_max)
    rows = []
    for res in results:
        expected = res.n % 4 == 2
        ok = res.has_pst == expected
        best = max(cert.magnitude for _, cert in res.witnesses)
        rows.append(
            (
                ok,
                f"double-cone n={res.n} pst={'yes' if res.has_pst else 'no'} "
                f"expected={'yes' if expected else 'no'} best-magnitude={best:.9f} "
                f"bases={len(res.witnesses)}",
            )
        )
    return _report("double-cone", rows)


def suite_signless_double_cone() -> SuiteReport:
    rows = []
    for m in SIGNLESS_CONE_MS:
        base = circulant_family(m)
        degs = base.degrees()
        regular_ok = base.n == 2 * m and degs.min() == degs.max() == m - 1
        rows.append((regular_ok, f"circulant-family m={m} is ({2*m},{m-1})-regular"))
        g = join(empty(2), base)
        t = math.pi / (2.0 * math.sqrt(m))
        res = verify_pst(signless_laplacian(g), (0, 1), t)
        rows.append(
            (
                res.certifies(),
                f"signless double cone m={m} t=pi/(2*sqrt({m})) magnitude={res.magnitude:.12f}",
            )
        )
        part = check_equitable(g, [(0,), tuple(range(2, g.n)), (1,)])
        b = quotient(part, OperatorKind.SIGNLESS)
        n = 2 * m
        expected = n * np.eye(3) + math.sqrt(n) * path(3).adjacency()
        dev = float(np.abs(b - expected).max())
        rows.append((dev < 1e-12, f"signless quotient m={m} matches nI+sqrt(n)A(P3) dev={dev:.2e}"))
    return _report("signless-double-cone", rows)


def suite_weak_product() -> SuiteReport:
    rows = []
    positives = [
        ("P3xK4", path(3), complete(4), 3.0 * math.pi),
        ("P3xQ3", path(3), hypercube(3), 3.0 * math.pi),
        ("P3xK2", path(3), complete(2), math.pi),
    ]
    for label, g, h, t in positives:
        prod = weak_product(g, h)
        pair = (0 * h.n + 0, 2 * h.n + 0)
        res = verify_pst(normalized_laplacian(prod), pair, t)
        rows.append((res.certifies(), f"weak-product {label} t={t / math.pi:g}pi magnitude={res.magnitude:.12f}"))
        spec_g = eigendecompose(normalized_laplacian(g)).values
        spec_h = eigendecompose(normalized_laplacian(h)).values
        cond = pst.weak_product_closure_1(spec_g, spec_h, t)
        rows.append((cond, f"weak-product {label} closure condition holds"))
    pairs = [("P3", path(3), "K4", complete(4)), ("P4", path(4), "K3", complete(3))]
    for gl, g, hl, h in pairs:
        for t in TIMES:
            chk = pst.normalized_weak_product_walk_check(g, h, t)
            ok = chk.max_deviation < IDENTITY_TOL
            rows.append(
                (
                    ok,
                    f"weak-product identity {gl}x{hl} t={t:g} op-dev={chk.operator_deviation:.2e} "
                    f"walk-dev={chk.walk_deviation:.2e}",
                )
            )
    return _report("weak-product", rows)


def suite_line_intertwine() -> SuiteReport:
    graphs = [(label, g) for label, g in named_small_graphs() if g.edge_count >= 2]
    graphs += [(f"rand{i}", g) for i, g in enumerate(random_connected_graphs(6, seed=7))]

    def check(label, g):
        worst = 0.0
        for t in TIMES:
            worst = max(worst, max(linegraph.intertwine_check(g, t)))
        return (worst < IDENTITY_TOL, f"line-intertwine {label} max-dev={worst:.2e}")

    return _report("line-intertwine", [check(label, g) for label, g in graphs])


def suite_path_cycle(n_max: int = 8) -> SuiteReport:
    rows = []
    for n in range(2, n_max + 1):
        rep = path_cycle_correspondence(n)
        ok = (
            rep.quotient_deviation < 1e-12
            and rep.identity_deviation < 1e-12
            and rep.walk_deviation < IDENTITY_TOL
        )
        rows.append(
            (
                ok,
                f"path-cycle n={n} quotient-dev={rep.quotient_deviation:.2e} "
                f"identity-dev={rep.identity_deviation:.2e} walk-dev={rep.walk_deviation:.2e}",
            )
        )
    return _report("path-cycle", rows)


def suite_unicyclic(t_max: float = 200.0) -> SuiteReport:
    def check(m):
        rep = unicyclic_no_pst_pipeline(m, t_max=t_max)
        return (
            rep.scan.refutes(),
            f"unicyclic m={m} verdict={rep.verdict} ranks={rep.ranks[0]},{rep.ranks[1]}/"
            f"{rep.line_order} scan-max={rep.scan.magnitude:.9f}",
        )

    return _report("unicyclic", [check(m) for m in UNICYCLIC_MS])


def suite_path_refutation(t_max: float = 200.0) -> SuiteReport:
    kinds = (OperatorKind.STANDARD, OperatorKind.SIGNLESS, OperatorKind.NORMALIZED)

    def check(n, kind):
        cert = search_pst(operator(path(n), kind), (0, n - 1), t_max)
        return (
            cert.refutes(),
            f"path-refutation P{n} {kind.value} max-magnitude={cert.magnitude:.9f} "
            f"at t={cert.time:.6f}",
        )

    return _report("path-refutation", [check(n, kind) for kind in kinds for n in REFUTED_PATH_ORDERS])


SUITES: dict[str, Callable[..., SuiteReport]] = {
    "complement-closure": suite_complement_closure,
    "double-cone": suite_double_cone,
    "signless-double-cone": suite_signless_double_cone,
    "weak-product": suite_weak_product,
    "line-intertwine": suite_line_intertwine,
    "path-cycle": suite_path_cycle,
    "unicyclic": suite_unicyclic,
    "path-refutation": suite_path_refutation,
}


def available_suites() -> list[str]:
    return sorted(SUITES)


def suite_for(name: str, options: dict) -> Callable[..., SuiteReport]:
    """The suite called ``name``; ValueError when there is none or when it
    does not take every one of ``options``."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join(available_suites())}")
    unknown = sorted(set(options) - set(inspect.signature(SUITES[name]).parameters))
    if unknown:
        raise ValueError(f"suite {name!r} does not take {', '.join(unknown)}")
    return SUITES[name]


def run_suite(name: str, **options) -> SuiteReport:
    return suite_for(name, options)(**options)
