"""Named verification suites behind `lapwalk verify-suite`.

Each suite re-checks one block of claims at fixed orders, horizons and
tolerances, takes no arguments and returns a SuiteReport with one line per
check. Suites are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import linegraph, pst
from .control import unicyclic_no_pst_pipeline
from .corpus import named_small_graphs, random_connected_graphs
from .graphs import (
    circulant_family,
    complement,
    complete,
    empty,
    hypercube,
    join,
    line_graph,
    path,
    weak_product,
)
from .operators import (
    Hamiltonian,
    OperatorKind,
    normalized_laplacian,
    operator,
)
from .partitions import check_equitable, quotient
from .pst import SCAN_T_MAX, path_cycle_correspondence, search_pst, verify_pst
from .spectral import eigendecompose

__all__ = ["SuiteReport", "SUITES"]

DOUBLE_CONE_ORDERS = range(1, 11)  # orders of the base graphs of the standard double cones
PATH_CYCLE_ORDERS = range(2, 9)  # orders n of the path-cycle correspondences
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
    passed = all(ok for ok, _ in rows)
    lines = tuple(f"{'ok  ' if ok else 'FAIL'} {text}" for ok, text in rows)
    return SuiteReport(name, passed, lines)


# -- suites -------------------------------------------------------------------


def suite_complement_closure() -> SuiteReport:
    """A(G) + A(complement) = J - I across the named gallery, from which
    exp(-itL(complement)) = exp(+itL(g)) whenever |V| t is a multiple of
    2 pi (``pst.complement_identity``)."""

    def check(label, g):
        rep = pst.complement_identity(g, complement(g))
        return (rep.holds, f"complement-closure {label} {rep}")

    return _report("complement-closure", [check(label, g) for label, g in named_small_graphs()])


def suite_double_cone() -> SuiteReport:
    results = pst.double_cone_characterization(DOUBLE_CONE_ORDERS)
    rows = []
    for res in results:
        expected = res.n % 4 == 2
        ok = res.has_pst == expected
        rows.append(
            (
                ok,
                f"double-cone n={res.n} pst={'yes' if res.has_pst else 'no'} "
                f"expected={'yes' if expected else 'no'} best-magnitude={res.certificate.magnitude:.9f} "
                f"bases={len(res.bases)}",
            )
        )
    return _report("double-cone", rows)


def suite_signless_double_cone() -> SuiteReport:
    """Each cone's apexes are singleton cells 0 and 2 of its checked
    equitable partition, so their walk is the one between those cells of the
    3 x 3 quotient (Bachman et al., QIC 12, 2012), which each row reads."""
    rows = []
    for m in SIGNLESS_CONE_MS:
        base = circulant_family(m)
        degs = base.degrees()
        regular_ok = base.n == 2 * m and degs.min() == degs.max() == m - 1
        rows.append((regular_ok, f"circulant-family m={m} is ({2*m},{m-1})-regular"))
        g = join(empty(2), base)
        part = check_equitable(g, [(0,), tuple(range(2, g.n)), (1,)])
        b = quotient(part, OperatorKind.SIGNLESS)
        t = math.pi / (2.0 * math.sqrt(m))
        res = verify_pst(Hamiltonian(OperatorKind.CUSTOM, b), (0, 2), t)
        rows.append(
            (
                res.certifies(),
                f"signless double cone m={m} t=pi/(2*sqrt({m})) magnitude={res.magnitude:.12f}",
            )
        )
        n = 2 * m
        expected = n * np.eye(3) + math.sqrt(n) * path(3).adjacency()
        dev = float(np.abs(b - expected).max())
        rows.append((dev < 1e-12, f"signless quotient m={m} matches nI+sqrt(n)A(P3) dev={dev:.2e}"))
    return _report("signless-double-cone", rows)


def suite_weak_product() -> SuiteReport:
    rows = []
    g = path(3)  # every positive case is P3 x H, so P3's spectrum is read once
    spec_g = eigendecompose(normalized_laplacian(g)).values
    positives = [
        ("P3xK4", complete(4), 3.0 * math.pi),
        ("P3xQ3", hypercube(3), 3.0 * math.pi),
        ("P3xK2", complete(2), math.pi),
    ]
    for label, h, t in positives:
        prod = weak_product(g, h)
        pair = (0 * h.n + 0, 2 * h.n + 0)
        res = verify_pst(normalized_laplacian(prod), pair, t)
        rows.append((res.certifies(), f"weak-product {label} t={t / math.pi:g}pi magnitude={res.magnitude:.12f}"))
        spec_h = eigendecompose(normalized_laplacian(h)).values
        cond = pst.weak_product_closure_1(spec_g, spec_h, t)
        rows.append((cond, f"weak-product {label} closure condition holds"))
    pairs = [("P3", path(3), "K4", complete(4)), ("P4", path(4), "K3", complete(3))]
    for gl, g, hl, h in pairs:
        rep = pst.weak_product_identity(g, h, weak_product(g, h))
        rows.append((rep.holds, f"weak-product identity {gl}x{hl} {rep}"))
    return _report("weak-product", rows)


def suite_line_intertwine() -> SuiteReport:
    graphs = [(label, g) for label, g in named_small_graphs() if g.edge_count >= 2]
    graphs += [(f"rand{i}", g) for i, g in enumerate(random_connected_graphs(6, seed=7))]

    def check(label, g):
        rep = linegraph.line_identity(g, line_graph(g))
        return (rep.holds, f"line-intertwine {label} {rep}")

    return _report("line-intertwine", [check(label, g) for label, g in graphs])


def suite_path_cycle() -> SuiteReport:
    def check(n):
        rep = path_cycle_correspondence(n)
        return (rep.holds, f"path-cycle n={n} {rep}")

    return _report("path-cycle", [check(n) for n in PATH_CYCLE_ORDERS])


def suite_unicyclic() -> SuiteReport:
    def check(m):
        rep = unicyclic_no_pst_pipeline(m)
        return (
            rep.scan.refutes(),
            f"unicyclic m={m} verdict={rep.verdict} ranks={rep.ranks[0]},{rep.ranks[1]}/"
            f"{rep.line_order} scan-max={rep.scan.magnitude:.9f}",
        )

    return _report("unicyclic", [check(m) for m in UNICYCLIC_MS])


def suite_path_refutation() -> SuiteReport:
    kinds = (OperatorKind.STANDARD, OperatorKind.SIGNLESS, OperatorKind.NORMALIZED)

    def check(n, kind):
        cert = search_pst(operator(path(n), kind), (0, n - 1), SCAN_T_MAX)
        return (
            cert.refutes(),
            f"path-refutation P{n} {kind.value} max-magnitude={cert.magnitude:.9f} "
            f"at t={cert.time:.6f}",
        )

    return _report("path-refutation", [check(n, kind) for kind in kinds for n in REFUTED_PATH_ORDERS])


SUITES: dict[str, Callable[[], SuiteReport]] = {
    "complement-closure": suite_complement_closure,
    "double-cone": suite_double_cone,
    "signless-double-cone": suite_signless_double_cone,
    "weak-product": suite_weak_product,
    "line-intertwine": suite_line_intertwine,
    "path-cycle": suite_path_cycle,
    "unicyclic": suite_unicyclic,
    "path-refutation": suite_path_refutation,
}
