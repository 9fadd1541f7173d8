"""File formats: graph JSON, edge-list text, partition JSON, CSV dumps.

Graph JSON is ``{"n": int, "edges": [[u,v], ...], "loops": []}``; graphs have
no loops, so ``loops`` must be empty when present. Counts, vertices and cell
entries must be JSON integers; anything else (``3.7``, ``"3"``, ``true``) is
a ValueError, never truncated, and so is an ``edges`` or ``cells`` entry
that is not a list of the right length, a weighted ``[u, v, w]`` included.
The writer is canonical (sorted edges, compact separators, trailing
newline) so that load -> save round-trips canonical files byte for byte.
The edge-list format has a ``n <count>`` header followed by ``u v`` lines.
The count and the vertices must be plain decimal digits, and a line with
u == v is a loop, an error.
"""

from __future__ import annotations

import json
import re
from itertools import chain
from pathlib import Path
from typing import Iterable

import numpy as np

from .graphs import Graph, make_graph

__all__ = [
    "edge_lines",
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


def graph_to_json(g: Graph) -> str:
    payload = {"n": g.n, "edges": g.ends.tolist(), "loops": []}
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _integer(x, what: str) -> int:
    """A JSON integer; floats, strings and booleans (an int subclass) are errors."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def _lists(payload: dict, key: str, lengths: tuple[int, ...] | None, shape: str) -> list:
    """``payload[key]`` (empty when absent), checked to be a list of lists
    whose lengths are in ``lengths`` (any length when None)."""
    items = payload.get(key, [])
    if not isinstance(items, list):
        raise ValueError(f"'{key}' must be a list, got {items!r}")
    if set(map(type, items)) <= {list} and (lengths is None or set(map(len, items)) <= set(lengths)):
        return items
    for item in items:  # name the first offending entry
        if not isinstance(item, list) or (lengths is not None and len(item) not in lengths):
            raise ValueError(f"each '{key}' entry must be {shape}, got {item!r}")
    return items


def _integers(items: list, what: str) -> list:
    """``items``, checked to hold only JSON integers by the types of all
    entries at once; on failure, name the first offending entry."""
    if not set(map(type, chain.from_iterable(items))) <= {int}:
        for x in chain.from_iterable(items):
            _integer(x, what)
    return items


def graph_from_json(text: str) -> Graph:
    payload = json.loads(text)
    if not isinstance(payload, dict) or "n" not in payload:
        raise ValueError("graph JSON must be an object with an 'n' field")
    edges = _integers(_lists(payload, "edges", (2,), "[u, v]"), "edge endpoint")
    _lists(payload, "loops", (), "absent (graphs have no loops)")  # any entry is an error
    return make_graph(_integer(payload["n"], "n"), edges)


def edge_lines(g: Graph) -> list[str]:
    """One ``u v`` line per edge, in edge order."""
    return list(map("{} {}".format, *g.ends.T.tolist()))


def graph_to_edgelist(g: Graph) -> str:
    return "\n".join([f"n {g.n}", *edge_lines(g)]) + "\n"


def _decimal(text: str, what: str) -> int:
    """Plain decimal digits only; ``int`` also reads '1_0', '+1' and the
    digits of other scripts."""
    if not re.fullmatch("[0-9]+", text):
        raise ValueError(f"{what} must be written in decimal digits, got {text!r}")
    return int(text)


def graph_from_edgelist(text: str) -> Graph:
    rows = list(filter(None, map(str.split, text.splitlines())))
    header = rows[0] if rows else []
    if len(header) != 2 or header[0] != "n":
        raise ValueError("edge list must start with a 'n <count>' header")
    n = _decimal(header[1], "vertex count")
    rows = rows[1:]
    # all vertex tokens by one regular expression (split() leaves no empty
    # token and no whitespace inside one); make_graph reads the digits and
    # rejects a line whose two vertices are the same number
    if not (set(map(len, rows)) <= {2} and re.fullmatch("[0-9]*", "".join(chain.from_iterable(rows)))):
        for parts in rows:  # name the first offending line
            if len(parts) != 2:
                raise ValueError(f"bad edge line: {' '.join(parts)!r}")
            _decimal(parts[0], "vertex"), _decimal(parts[1], "vertex")
    return make_graph(n, rows)


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
    return _integers(_lists(payload, "cells", None, "a list of vertices"), "cell entry")


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
