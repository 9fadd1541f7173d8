"""Workload inputs, job lists and output checks for the lapwalk benchmark.

Every input graph is generated here from the seed, in plain Python, and
written as graph JSON; lapwalk only ever sees those files. Every job's output
is checked against a reference that does not use lapwalk's spectral engine:
closed forms, known theorems, or identities that must hold to rounding.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

WORKLOADS = ("suites", "scan", "walk-dense", "exact-rank")

# Thresholds as documented by lapwalk: a certificate needs magnitude
# >= 1 - 1e-9, a scan refutation means nothing above 1 - 1e-6 was seen.
PST_TOL = 1e-9
REFUTE_THRESHOLD = 1.0 - 1e-6
# Walk entries and closure identities must hold to this absolute tolerance.
ENTRY_TOL = 1e-9
# A prime below 2^31, so products of residues fit in int64.
RANK_PRIME = 2147483647

SUITE_NAMES = (
    "complement-closure",
    "double-cone",
    "line-intertwine",
    "path-cycle",
    "path-refutation",
    "signless-double-cone",
    "unicyclic",
    "weak-product",
)


@dataclass
class Job:
    """One unit of work: ``run`` calls lapwalk and returns its output,
    ``check`` decides from that output alone whether it is correct."""

    id: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def execute(job: Job) -> Any:
    """Run a job; an exception is returned as the output so that the check
    counts it as a failure and the pass goes on."""
    try:
        return job.run()
    except Exception as exc:  # a raising job is a failed job, not a dead run
        return exc


def passed(job: Job, output: Any) -> bool:
    if isinstance(output, BaseException):
        return False
    try:
        return bool(job.check(output))
    except Exception:  # a malformed output fails its check
        return False


# -- graph generation (independent of lapwalk.graphs) -------------------------

Edges = list[tuple[int, int]]


def _canon(edges) -> Edges:
    return sorted({(min(u, v), max(u, v)) for u, v in edges})


def path_edges(n: int) -> Edges:
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n: int) -> Edges:
    return _canon((i, (i + 1) % n) for i in range(n))


def hypercube_edges(d: int) -> Edges:
    return [(x, x | 1 << b) for x in range(1 << d) for b in range(d) if not x >> b & 1]


def double_cone_edges(b: int) -> Edges:
    """join(empty(2), C_b): apexes 0 and 1, base cycle on 2..b+1."""
    base = [(u + 2, v + 2) for u, v in cycle_edges(b)]
    return _canon(base + [(a, v) for a in (0, 1) for v in range(2, b + 2)])


def random_connected_edges(rng: random.Random, n: int, m: int) -> Edges:
    """Uniform random spanning tree order plus random extra edges, m in all."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def odd_unicyclic_line_graph(m: int) -> tuple[int, Edges, tuple[int, int]]:
    """Line graph of the triangle with two m-edge pendant paths (spine
    0..2m+1, apex 2m+2 on spine vertices m and m+1), with the line-graph
    vertices of the two pendant end edges."""
    apex = 2 * m + 2
    src = [(i, i + 1) for i in range(2 * m + 1)] + [(m, apex), (m + 1, apex)]
    line = [
        (i, j)
        for i in range(len(src))
        for j in range(i + 1, len(src))
        if len(set(src[i]) & set(src[j])) == 1
    ]
    ends = (src.index((0, 1)), src.index((2 * m, 2 * m + 1)))
    return len(src), line, ends


def relabel(n: int, edges: Edges, perm: list[int]) -> Edges:
    return _canon((perm[u], perm[v]) for u, v in edges)


def write_graph(path: Path, n: int, edges: Edges) -> str:
    path.write_text(json.dumps({"n": n, "edges": [list(e) for e in edges], "loops": []}))
    return str(path)


# -- references -----------------------------------------------------------------


def path_walk_entry(n: int, u: int, v: int, t: float) -> complex:
    """exp(-itL(P_n))[v, u] from the closed-form path spectrum
    lambda_k = 2 - 2cos(pi k/n), eigenvectors cos(pi k (j + 1/2)/n)."""
    k = np.arange(n)
    lam = 2.0 - 2.0 * np.cos(np.pi * k / n)
    norm = np.where(k == 0, 1.0 / n, 2.0 / n)
    vu = np.cos(np.pi * k * (u + 0.5) / n)
    vv = np.cos(np.pi * k * (v + 0.5) / n)
    return complex(np.sum(np.exp(-1j * t * lam) * norm * vu * vv))


def modular_walk_rank(n: int, edges: Edges, source: int, prime: int) -> int:
    """Rank of the walk matrix [e_s, A e_s, ..., A^(n-1) e_s] over GF(prime).

    It never exceeds the rank over the rationals and equals it unless the
    prime divides every nonzero maximal minor of the integer matrix; a lower
    rank would show as a failed check, never as a false pass.
    """
    a = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        a[u, v] = a[v, u] = 1
    x = np.zeros(n, dtype=np.int64)
    x[source] = 1
    cols = []
    for _ in range(n):
        cols.append(x)
        x = (a @ x) % prime
    m = np.array(cols).T
    rank = 0
    for c in range(n):
        nz = np.nonzero(m[rank:, c])[0]
        if not len(nz):
            continue
        m[[rank, rank + nz[0]]] = m[[rank + nz[0], rank]]
        m[rank] = m[rank] * pow(int(m[rank, c]), prime - 2, prime) % prime
        m[rank + 1 :] = (m[rank + 1 :] - np.outer(m[rank + 1 :, c], m[rank]) % prime) % prime
        rank += 1
    return rank


# -- lapwalk entry points ---------------------------------------------------------


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str


def cli(argv: list[str]) -> CliResult:
    """``lapwalk <argv>`` in-process, the way the console script runs it."""
    import lapwalk.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lapwalk.cli.main(argv)
    return CliResult(code, out.getvalue())


def _load(path: str):
    import lapwalk.io

    return lapwalk.io.load_graph(path)


# -- checks -------------------------------------------------------------------------


def check_suite(name: str) -> Callable[[CliResult], bool]:
    def check(res: CliResult) -> bool:
        *rows, verdict = res.stdout.splitlines()
        return res.code == 0 and verdict == f"suite {name}: PASS" and bool(rows) and all(r.startswith("ok  ") for r in rows)

    return check


def check_search(pair: tuple[int, int], kind: str, certify: bool) -> Callable[[CliResult], bool]:
    def check(res: CliResult) -> bool:
        cert = json.loads(res.stdout)
        mag = cert["magnitude"]
        verdict = mag >= 1.0 - PST_TOL if certify else mag < REFUTE_THRESHOLD
        return res.code == 0 and cert["pair"] == list(pair) and cert["kind"] == kind and verdict

    return check


def check_walk(expected: complex) -> Callable[[CliResult], bool]:
    def check(res: CliResult) -> bool:
        entry = json.loads(res.stdout)
        return res.code == 0 and abs(complex(entry["re"], entry["im"]) - expected) < ENTRY_TOL

    return check


def check_rank(order: int, expected: int, full: bool) -> Callable[[CliResult], bool]:
    def check(res: CliResult) -> bool:
        m = re.fullmatch(r"vertex \d+: rank (\d+)/(\d+) (not-controllable|controllable)\n", res.stdout)
        rank, n = int(m.group(1)), int(m.group(2))
        verdict = "controllable" if full else "not-controllable"
        return res.code == 0 and n == order and rank == expected and (rank == n) == full and m.group(3) == verdict

    return check


def check_deviation(dev: float) -> bool:
    return dev < ENTRY_TOL


# -- workloads ----------------------------------------------------------------------


def _perm(rng: random.Random, n: int) -> list[int]:
    p = list(range(n))
    rng.shuffle(p)
    return p


def suites_jobs(seed: int, workdir: Path) -> list[Job]:
    """``verify-suite all`` at default sizes, run as its eight per-suite
    verbs so that each suite is timed on its own; it takes no input files."""
    return [
        Job(f"verify-suite-{name}", lambda name=name: cli(["verify-suite", name]), check_suite(name))
        for name in SUITE_NAMES
    ]


def _search_job(jid, workdir, rng, n, edges, kind, pair, t_max, certify) -> Job:
    perm = _perm(rng, n)
    f = write_graph(workdir / f"{jid}.json", n, relabel(n, edges, perm))
    u, v = perm[pair[0]], perm[pair[1]]
    argv = ["pst", "search", "--graph", f, "--kind", kind, "--pair", str(u), str(v), "--t-max", str(t_max)]
    return Job(jid, lambda: cli(argv), check_search((u, v), kind, certify))


def scan_jobs(seed: int, workdir: Path) -> list[Job]:
    """``pst search`` on randomly relabelled graphs; relabelling changes the
    input files but neither the spectra nor the verdicts."""
    rng = random.Random(seed)
    jobs = [
        _search_job(f"P100-{kind}", workdir, rng, 100, path_edges(100), kind, (0, 99), 2000, False)
        for kind in ("signless", "standard", "normalized")
    ]
    jobs.append(_search_job("Q8-adjacency", workdir, rng, 256, hypercube_edges(8), "adjacency", (0, 255), 2000, True))
    for b in (38, 40):
        jobs.append(
            _search_job(f"cone-C{b}", workdir, rng, b + 2, double_cone_edges(b), "standard", (0, 1), 500, b % 4 == 2)
        )
    return jobs


def walk_dense_jobs(seed: int, workdir: Path) -> list[Job]:
    """Whole walk matrices: CLI walk entries on P300 and the closure checks."""
    import lapwalk.linegraph
    import lapwalk.operators
    import lapwalk.pst
    import lapwalk.spectral

    rng = random.Random(seed)
    jobs = []
    n = 300
    perm = _perm(rng, n)
    p300 = write_graph(workdir / "P300.json", n, relabel(n, path_edges(n), perm))
    for i in range(3):
        t = rng.uniform(1.0, 100.0)
        argv = ["walk", "--graph", p300, "--kind", "standard", "--time", repr(t),
                "--from", str(perm[0]), "--to", str(perm[n - 1]), "--format", "json"]
        jobs.append(Job(f"walk-P300-{i}", lambda argv=argv: cli(argv), check_walk(path_walk_entry(n, 0, n - 1, t))))

    rand = write_graph(workdir / "rand150.json", 150, random_connected_edges(rng, 150, 2200))
    c200 = write_graph(workdir / "C200.json", 200, relabel(200, cycle_edges(200), _perm(rng, 200)))
    for jid, f, order in (("closure-rand150", rand, 150), ("closure-C200", c200, 200)):

        def closure(f=f, order=order):
            return lapwalk.pst.complement_closure_check(_load(f), 2.0 * math.pi / order)

        jobs.append(Job(jid, closure, lambda out: out[0] and check_deviation(out[1])))

    c150 = write_graph(workdir / "C150.json", 150, relabel(150, cycle_edges(150), _perm(rng, 150)))
    t_line = rng.uniform(1.0, 100.0)
    jobs.append(Job(
        "intertwine-C150",
        lambda: lapwalk.linegraph.intertwine_check(_load(c150), t_line),
        lambda devs: all(check_deviation(d) for d in devs),
    ))

    p12 = write_graph(workdir / "P12.json", 12, path_edges(12))
    c12 = write_graph(workdir / "C12.json", 12, cycle_edges(12))
    t_box, t_weak = rng.uniform(1.0, 100.0), rng.uniform(1.0, 100.0)

    def box():
        lap = lapwalk.operators.standard_laplacian
        return lapwalk.spectral.cartesian_walk_check(lap(_load(p12)), lap(_load(c12)), t_box)

    def weak():
        return lapwalk.pst.normalized_weak_product_walk_check(_load(p12), _load(c12), t_weak).max_deviation

    jobs.append(Job("cartesian-P12xC12", box, check_deviation))
    jobs.append(Job("weak-product-P12xC12", weak, check_deviation))
    return jobs


def exact_rank_jobs(seed: int, workdir: Path) -> list[Job]:
    """``controllable`` on both pendant edges of the odd unicyclic line graph;
    the walk matrix has full rank iff m is not divisible by 3, and its exact
    rank is recomputed here over a large prime field."""
    rng = random.Random(seed)
    jobs = []
    for m in (80, 81, 100):
        n, edges, ends = odd_unicyclic_line_graph(m)
        perm = _perm(rng, n)
        f = write_graph(workdir / f"line-unicyclic-{m}.json", n, relabel(n, edges, perm))
        for side, e in zip("ab", ends):
            expected = modular_walk_rank(n, edges, e, RANK_PRIME)
            argv = ["controllable", "--graph", f, "--vertex", str(perm[e])]
            jobs.append(Job(f"rank-m{m}-{side}", lambda argv=argv: cli(argv), check_rank(n, expected, m % 3 != 0)))
    return jobs


BUILDERS: dict[str, Callable[[int, Path], list[Job]]] = {
    "suites": suites_jobs,
    "scan": scan_jobs,
    "walk-dense": walk_dense_jobs,
    "exact-rank": exact_rank_jobs,
}
