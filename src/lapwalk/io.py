"""File formats: graph JSON, edge-list text, partition JSON, CSV dumps.

Graph JSON is ``{"n": int, "edges": [[u,v], ...], "loops": []}``; graphs have
no loops, so ``loops`` must be empty when present. The readers only parse
text: an ``edges`` or ``cells`` entry that is not a list of the right length,
a weighted ``[u, v, w]`` included, is a ValueError here, and the counts,
vertices and cell entries go on as parsed to ``make_graph`` and the
partition checks, whose integer gate (``graphs._indices``) rejects anything
but an integer (``3.7``, ``"3"``, ``true``) by name, never truncating it.
The writer is canonical (sorted edges, compact separators, trailing
newline) so that load -> save round-trips canonical files byte for byte.
The edge-list format has a ``n <count>`` header followed by ``u v`` lines.
The count and the vertices must be plain decimal digits, which ``_decimal``
turns into ints, and a line with u == v is a loop, an error.
"""

from __future__ import annotations

import json
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
    "matrix_to_csv",
    "curve_to_csv",
]


def graph_to_json(g: Graph) -> str:
    payload = {"n": g.n, "edges": g.ends.tolist(), "loops": []}
    return json.dumps(payload, separators=(",", ":")) + "\n"


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


def graph_from_json(text: str) -> Graph:
    payload = json.loads(text)
    if not isinstance(payload, dict) or "n" not in payload:
        raise ValueError("graph JSON must be an object with an 'n' field")
    edges = _lists(payload, "edges", (2,), "[u, v]")
    _lists(payload, "loops", (), "absent (graphs have no loops)")  # any entry is an error
    return make_graph(payload["n"], edges)


def edge_lines(g: Graph) -> list[str]:
    """One ``u v`` line per edge, in edge order."""
    return list(map("{} {}".format, *g.ends.T.tolist()))


def graph_to_edgelist(g: Graph) -> str:
    return "\n".join([f"n {g.n}", *edge_lines(g)]) + "\n"


def _decimal(text: str, what: str) -> int:
    """Plain decimal digits only (ASCII digits are 0-9); ``int`` also reads
    '1_0', '+1' and the digits of other scripts."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{what} must be written in decimal digits, got {text!r}")
    return int(text)


def graph_from_edgelist(text: str) -> Graph:
    rows = list(filter(None, map(str.split, text.splitlines())))
    header = rows[0] if rows else []
    if len(header) != 2 or header[0] != "n":
        raise ValueError("edge list must start with a 'n <count>' header")
    n, rows = _decimal(header[1], "vertex count"), rows[1:]
    # every vertex token at once (split() leaves no empty token and no
    # whitespace inside one); make_graph rejects a line whose two vertices
    # are the same number
    digits = "".join(chain.from_iterable(rows))
    if set(map(len, rows)) - {2} or not (digits.isascii() and digits.isdigit() or not digits):
        for parts in rows:  # name the first offending line
            if len(parts) != 2:
                raise ValueError(f"bad edge line: {' '.join(parts)!r}")
            _decimal(parts[0], "vertex"), _decimal(parts[1], "vertex")
    vertices = list(map(int, chain.from_iterable(rows)))
    return make_graph(n, zip(vertices[::2], vertices[1::2]))


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
    return _lists(payload, "cells", None, "a list of vertices")


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
