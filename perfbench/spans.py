"""Outside-in tracing of lapwalk: wrap functions where they are imported.

The tracer replaces each traced function everywhere lapwalk holds a
reference to it: module globals, dict values such as the
suite table, and class attributes for methods. Each call records a span
(name, layer, start, end, parent, job id) in memory; ``restore`` puts every
original object back. Nothing inside lapwalk is changed or needs to know.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import math
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from jobs import SUITE_NAMES

# Layers are lapwalk's modules; io is reported with cli.
LAYER_MODULES = {
    "graphs": "graphs",
    "operators": "operators",
    "spectral": "spectral",
    "pst": "pst",
    "partitions": "partitions",
    "linegraph": "linegraph",
    "control": "control",
    "suites": "suites",
    "cli": "cli",
    "io": "cli",
}
TRACE_LAYER = "trace"

# name, unit for every per-layer metric, in report order.
LAYER_METRICS = [
    ("graphs.calls", "count"),
    ("graphs.busy_s", "s"),
    ("operators.calls", "count"),
    ("operators.busy_s", "s"),
    ("spectral.eigendecompose_calls", "count"),
    ("spectral.eigh_s", "s"),
    ("spectral.cluster_s", "s"),
    ("spectral.projector_bytes", "B_computed"),
    ("spectral.repeat_frac", "ratio"),
    ("spectral.matrix_at_calls", "count"),
    ("spectral.matrix_at_s", "s"),
    ("spectral.amplitude_calls", "count"),
    ("spectral.amplitude_s", "s"),
    ("pst.search_calls", "count"),
    ("pst.grid_s", "s"),
    ("pst.grid_points", "pts_computed"),
    ("pst.refine_calls", "count"),
    ("pst.refine_s", "s"),
    ("pst.verify_calls", "count"),
    ("pst.verify_s", "s"),
    ("partitions.busy_s", "s"),
    ("linegraph.busy_s", "s"),
    ("control.walk_matrix_s", "s"),
    ("control.exact_rank_s", "s"),
    ("control.rank_calls", "count"),
    ("control.max_entry_bits", "bits"),
    *[(f"suites.{name}_s", "s") for name in SUITE_NAMES],
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: int | None
    job: str | None
    end: float = math.nan
    attrs: dict = field(default_factory=dict)


@dataclass
class _Target:
    name: str
    layer: str
    original: Callable
    hook: Callable[[Span, Callable, tuple, dict, Any], None] | None = None


def _on_eigendecompose(span: Span, fn, args, kwargs, dec) -> None:
    matrix = np.ascontiguousarray(getattr(args[0], "matrix", args[0]), dtype=float)
    span.attrs["key"] = hashlib.blake2b(matrix.tobytes(), digest_size=16).digest()
    span.attrs["spread"] = dec.spectral_range
    span.attrs["projector_bytes"] = sum(p.nbytes for p in dec.projectors)


def _on_search(span: Span, fn, args, kwargs, cert) -> None:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    span.attrs["t_max"] = float(bound.arguments["t_max"])
    span.attrs["grid_density"] = int(bound.arguments["grid_density"])


def _on_walk_matrix(span: Span, fn, args, kwargs, wm) -> None:
    span.attrs["max_entry_bits"] = max((abs(x).bit_length() for row in wm.rows for x in row), default=0)


class Tracer:
    """Collects spans from wrapped lapwalk functions.

    Spans are kept in a list; a span's parent is the innermost open span of
    the same thread or, for a worker thread of lapwalk's own pool, the
    innermost open span of the main thread that is waiting on it.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job: str | None = None
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        self._sites: list[tuple[Any, Any, Callable]] = []

    # -- span bookkeeping ----------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str) -> tuple[list[int], int]:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = Span(name, layer, 0.0, parent, self.job)
        with self._lock:
            self.spans.append(span)
            idx = len(self.spans) - 1
        stack.append(idx)
        span.start = time.perf_counter()
        return stack, idx

    def _close(self, stack: list[int], idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        stack.pop()
        return span

    def _wrap(self, target: _Target) -> Callable:
        fn, name, layer, hook = target.original, target.name, target.layer, target.hook

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, idx = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._close(stack, idx)
            if hook is not None:
                # hook work gets its own span so it is nobody's self time
                hstack, hidx = self._open(f"{name}.hook", TRACE_LAYER)
                try:
                    hook(span, fn, args, kwargs, result)
                finally:
                    self._close(hstack, hidx)
            return result

        return traced

    # -- installing and restoring -------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at every site in lapwalk that refers
        to it."""
        wrappers = {id(t.original): self._wrap(t) for t in _targets()}
        modules = [m for name, m in list(sys.modules.items()) if name == "lapwalk" or name.startswith("lapwalk.")]

        def patch(owner, key, original):
            if isinstance(owner, dict):
                owner[key] = wrappers[id(original)]
            else:
                setattr(owner, key, wrappers[id(original)])
            self._sites.append((owner, key, original))

        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    patch(module, attr, value)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            patch(value, key, item)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for meth, item in list(vars(value).items()):
                        if id(item) in wrappers:
                            patch(value, meth, item)
        patch(np.linalg, "eigh", np.linalg.eigh)

    def restore(self) -> None:
        for owner, key, original in reversed(self._sites):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._sites.clear()

    def patched_sites(self) -> list[tuple[Any, Any, Callable]]:
        """(owner, attribute or key, original) for every site patched."""
        return list(self._sites)


def _targets() -> list[_Target]:
    """Public functions of every layer module, the methods other layers
    call on graphs and decompositions, the suite functions, pst's peak
    refinement (refinement has no public entry point) and numpy's eigh."""
    import lapwalk

    hooks = {"spectral.eigendecompose": _on_eigendecompose, "pst.search_pst": _on_search,
             "control.walk_matrix": _on_walk_matrix}
    targets = []
    for modname, layer in LAYER_MODULES.items():
        module = importlib.import_module(f"lapwalk.{modname}")
        for attr in getattr(module, "__all__", ()):
            value = getattr(module, attr)
            if inspect.isfunction(value) and value.__module__ == module.__name__:
                name = f"{modname}.{attr}"
                targets.append(_Target(name, layer, value, hooks.get(name)))
        if modname == "suites":
            for suite, fn in module.SUITES.items():
                targets.append(_Target(f"suites.{suite}", layer, fn))
    targets.append(_Target("pst._refine_peak", "pst", lapwalk.pst._refine_peak))
    for cls, layer, methods in (
        (lapwalk.graphs.Graph, "graphs", ("adjacency", "degrees")),
        (lapwalk.spectral.EigenDecomposition, "spectral", ("matrix_at", "amplitude", "pair_weights")),
    ):
        for meth in methods:
            targets.append(_Target(f"{layer}.{cls.__name__}.{meth}", layer, vars(cls)[meth]))
    targets.append(_Target("np.linalg.eigh", "spectral", np.linalg.eigh))
    seen = set()
    unique = []
    for t in targets:
        if id(t.original) not in seen:
            seen.add(id(t.original))
            unique.append(t)
    return unique


# -- deriving per-layer metrics -------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(max(s.end - s.start - covered, 0.0))
    return out


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass (spans carry indices into this list)."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def dur(names):
        return sum(spans[i].end - spans[i].start for n in names for i in by_name.get(n, ()))

    def count(names):
        return sum(len(by_name.get(n, ())) for n in names)

    def selfsum(layer):
        return sum(t for s, t in zip(spans, selfs) if s.layer == layer)

    def entries(layer):
        return sum(
            1 for s in spans if s.layer == layer and (s.parent is None or spans[s.parent].layer != layer)
        )

    decs = [spans[i] for i in by_name.get("spectral.eigendecompose", ())]
    seen, repeats = set(), 0
    for d in decs:
        repeats += d.attrs["key"] in seen
        seen.add(d.attrs["key"])
    grid_points = 0
    search_self = 0.0
    for i in by_name.get("pst.search_pst", ()):
        s = spans[i]
        search_self += selfs[i]
        spread = next(
            (c.attrs["spread"] for c in decs if c.parent == i), None
        )
        if spread:
            step = (math.pi / spread) / s.attrs["grid_density"]
            grid_points += len(np.arange(0.0, s.attrs["t_max"] + step, step))
    walk_mats = [spans[i] for i in by_name.get("control.walk_matrix", ())]
    m = {
        "graphs.calls": entries("graphs"),
        "graphs.busy_s": selfsum("graphs"),
        "operators.calls": entries("operators"),
        "operators.busy_s": selfsum("operators"),
        "spectral.eigendecompose_calls": len(decs),
        "spectral.eigh_s": dur(["np.linalg.eigh"]),
        "spectral.cluster_s": sum(selfs[i] for i in by_name.get("spectral.eigendecompose", ())),
        "spectral.projector_bytes": sum(d.attrs["projector_bytes"] for d in decs),
        "spectral.repeat_frac": repeats / len(decs) if decs else 0.0,
        "spectral.matrix_at_calls": count(["spectral.EigenDecomposition.matrix_at"]),
        "spectral.matrix_at_s": dur(["spectral.EigenDecomposition.matrix_at"]),
        "spectral.amplitude_calls": count(["spectral.EigenDecomposition.amplitude"]),
        "spectral.amplitude_s": dur(["spectral.EigenDecomposition.amplitude"]),
        "pst.search_calls": count(["pst.search_pst"]),
        "pst.grid_s": search_self,
        "pst.grid_points": grid_points,
        "pst.refine_calls": count(["pst._refine_peak"]),
        "pst.refine_s": dur(["pst._refine_peak"]),
        "pst.verify_calls": count(["pst.verify_pst"]),
        "pst.verify_s": dur(["pst.verify_pst"]),
        "partitions.busy_s": selfsum("partitions"),
        "linegraph.busy_s": selfsum("linegraph"),
        "control.walk_matrix_s": dur(["control.walk_matrix"]),
        "control.exact_rank_s": dur(["control.exact_rank"]),
        "control.rank_calls": count(["control.exact_rank"]),
        "control.max_entry_bits": max((w.attrs["max_entry_bits"] for w in walk_mats), default=0),
        "cli.self_s": selfsum("cli"),
    }
    for suite in SUITE_NAMES:
        m[f"suites.{suite}_s"] = dur([f"suites.{suite}"])
    return m


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Each metric's median over the traced passes (counts repeat exactly
    from pass to pass)."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
