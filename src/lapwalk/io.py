"""File formats: graph JSON, edge-list text, partition JSON, CSV dumps.

Graph JSON is ``{"n": int, "edges": [[u,v] or [u,v,w]], "loops": [[v,w]]}``.
Counts, vertices and cell entries must be JSON integers and weights JSON
numbers; anything else (``3.7``, ``"3"``, ``true``) is a ValueError, never
truncated, and so is an ``edges``, ``loops`` or ``cells`` entry that is not
a list of the right length.
The writer is canonical (sorted edges, weight omitted when it is exactly 1,
compact separators, trailing newline) so that load -> save round-trips
canonical files byte for byte. The edge-list format has a ``n <count>``
header followed by ``u v [w]`` lines; a line with u == v denotes a loop. The
count and the vertices must be plain decimal digits and a weight a decimal
number.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterable

import numpy as np

from .graphs import Graph, make_graph

__all__ = [
    "graph_to_json",
    "graph_from_json",
    "graph_to_edgelist",
    "graph_from_edgelist",
    "save_graph",
    "load_graph",
    "cells_from_json",
    "cells_to_json",
    "matrix_to_csv",
    "curve_to_csv",
]


def _edge_payload(u: int, v: int, w: float) -> list:
    return [u, v] if w == 1.0 else [u, v, w]


def graph_to_json(g: Graph) -> str:
    payload = {
        "n": g.n,
        "edges": [_edge_payload(u, v, w) for u, v, w in g.edges],
        "loops": [[v, w] for v, w in g.loops],
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _integer(x, what: str) -> int:
    """A JSON integer; floats, strings and booleans (an int subclass) are errors."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def _weight(x) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"weight must be a number, got {x!r}")
    return float(x)


def _lists(payload: dict, key: str, lengths: tuple[int, ...] | None, shape: str) -> list:
    """``payload[key]`` (empty when absent), checked to be a list of lists
    whose lengths are in ``lengths`` (any length when None)."""
    items = payload.get(key, [])
    if not isinstance(items, list):
        raise ValueError(f"'{key}' must be a list, got {items!r}")
    for item in items:
        if not isinstance(item, list) or (lengths is not None and len(item) not in lengths):
            raise ValueError(f"each '{key}' entry must be {shape}, got {item!r}")
    return items


def graph_from_json(text: str) -> Graph:
    payload = json.loads(text)
    if not isinstance(payload, dict) or "n" not in payload:
        raise ValueError("graph JSON must be an object with an 'n' field")
    edges = [
        [_integer(v, "edge endpoint") for v in e[:2]] + [_weight(w) for w in e[2:]]
        for e in _lists(payload, "edges", (2, 3), "[u, v] or [u, v, w]")
    ]
    loops = [
        (_integer(v, "loop vertex"), _weight(w))
        for v, w in _lists(payload, "loops", (2,), "[v, w]")
    ]
    return make_graph(_integer(payload["n"], "n"), edges, loops)


def graph_to_edgelist(g: Graph) -> str:
    lines = [f"n {g.n}"]
    for u, v, w in g.edges:
        lines.append(f"{u} {v}" if w == 1.0 else f"{u} {v} {w!r}")
    for v, w in g.loops:
        lines.append(f"{v} {v}" if w == 1.0 else f"{v} {v} {w!r}")
    return "\n".join(lines) + "\n"


# decimal literals, which is how repr() writes a finite float; float() also
# reads '1_0', 'inf' and the digits of other scripts
_DECIMAL_FLOAT = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def _decimal(text: str, what: str) -> int:
    """Plain decimal digits only; ``int`` also reads '1_0', '+1' and the
    digits of other scripts."""
    if not re.fullmatch("[0-9]+", text):
        raise ValueError(f"{what} must be written in decimal digits, got {text!r}")
    return int(text)


def graph_from_edgelist(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    header = lines[0].split() if lines else []
    if len(header) != 2 or header[0] != "n":
        raise ValueError("edge list must start with a 'n <count>' header")
    n = _decimal(header[1], "vertex count")
    edges = []
    loops = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) not in (2, 3):
            raise ValueError(f"bad edge line: {ln!r}")
        u, v = _decimal(parts[0], "vertex"), _decimal(parts[1], "vertex")
        if len(parts) == 3 and not _DECIMAL_FLOAT.fullmatch(parts[2]):
            raise ValueError(f"weight must be a decimal number, got {parts[2]!r}")
        w = float(parts[2]) if len(parts) == 3 else 1.0
        if u == v:
            loops.append((u, w))
        else:
            edges.append((u, v, w))
    return make_graph(n, edges, loops)


def save_graph(g: Graph, path: str | Path) -> None:
    p = Path(path)
    text = graph_to_json(g) if p.suffix == ".json" else graph_to_edgelist(g)
    p.write_text(text)


def load_graph(path: str | Path) -> Graph:
    p = Path(path)
    text = p.read_text()
    if p.suffix == ".json":
        return graph_from_json(text)
    return graph_from_edgelist(text)


def cells_from_json(text: str) -> list[list[int]]:
    payload = json.loads(text)
    if not isinstance(payload, dict) or "cells" not in payload:
        raise ValueError("partition JSON must be an object with a 'cells' field")
    cells = _lists(payload, "cells", None, "a list of vertices")
    return [[_integer(v, "cell entry") for v in cell] for cell in cells]


def cells_to_json(cells: Iterable[Iterable[int]]) -> str:
    return json.dumps({"cells": [list(c) for c in cells]}, separators=(",", ":")) + "\n"


def matrix_to_csv(matrix: np.ndarray) -> str:
    """Full-precision CSV, one row per line."""
    m = np.asarray(matrix)
    rows = [",".join(repr(float(x)) for x in row) for row in np.atleast_2d(m)]
    return "\n".join(rows) + "\n"


def curve_to_csv(rows: Iterable[tuple[float, complex]]) -> str:
    """Fidelity-curve CSV with columns t, re, im, abs."""
    out = ["t,re,im,abs"]
    for t, amp in rows:
        a = complex(amp)
        out.append(f"{float(t)!r},{a.real!r},{a.imag!r},{abs(a)!r}")
    return "\n".join(out) + "\n"
