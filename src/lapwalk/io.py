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
from itertools import chain, compress
from operator import itemgetter, not_
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
    edges, weights = g.ends.tolist(), g.weights.tolist()
    for i in np.flatnonzero(g.weights != 1.0).tolist():  # a weight of exactly 1 is left out
        edges[i].append(weights[i])
    payload = {"n": g.n, "edges": edges, "loops": list(map(list, g.loops))}
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
    if set(map(type, items)) <= {list} and (lengths is None or set(map(len, items)) <= set(lengths)):
        return items
    for item in items:  # name the first offending entry
        if not isinstance(item, list) or (lengths is not None and len(item) not in lengths):
            raise ValueError(f"each '{key}' entry must be {shape}, got {item!r}")
    return items


def _numbers(items: list, ints: int, what: str) -> None:
    """Check that the first ``ints`` entries of every item are JSON integers
    and any further entry a JSON number, by the types of all entries at
    once, and when there are floats among them, of the leading entries;
    on failure, name the first offending entry."""
    kinds = set(map(type, chain.from_iterable(items)))
    if kinds <= {int}:
        return
    leading = chain.from_iterable(map(itemgetter(slice(ints)), items))
    if kinds <= {int, float} and set(map(type, leading)) <= {int}:
        return
    for item in items:
        for x in item[:ints]:
            _integer(x, what)
        for w in item[ints:]:
            _weight(w)


def graph_from_json(text: str) -> Graph:
    payload = json.loads(text)
    if not isinstance(payload, dict) or "n" not in payload:
        raise ValueError("graph JSON must be an object with an 'n' field")
    edges = _lists(payload, "edges", (2, 3), "[u, v] or [u, v, w]")
    _numbers(edges, 2, "edge endpoint")
    loops = _lists(payload, "loops", (2,), "[v, w]")
    _numbers(loops, 1, "loop vertex")
    return make_graph(_integer(payload["n"], "n"), edges, loops)


def edge_lines(g: Graph) -> list[str]:
    """One ``u v`` line per edge, in edge order, with `` w`` (the weight's
    repr) appended when the weight is not exactly 1."""
    lines = list(map("{} {}".format, *g.ends.T.tolist()))
    weights = g.weights.tolist()
    for i in np.flatnonzero(g.weights != 1.0).tolist():
        lines[i] = f"{lines[i]} {weights[i]!r}"
    return lines


def graph_to_edgelist(g: Graph) -> str:
    lines = [f"n {g.n}", *edge_lines(g)]
    for v, w in g.loops:
        lines.append(f"{v} {v}" if w == 1.0 else f"{v} {v} {w!r}")
    return "\n".join(lines) + "\n"


# decimal literals, which is how repr() writes a finite float; float() also
# reads '1_0', 'inf' and the digits of other scripts. Each literal matches
# one way only, so a failing match does not backtrack through digit splits.
_DECIMAL_FLOAT = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?")


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
    # token and no whitespace inside one), and the weight tokens one by one
    vertex_text = "".join(chain.from_iterable(map(itemgetter(slice(2)), rows)))
    weight_tokens = chain.from_iterable(map(itemgetter(slice(2, None)), rows))
    if not (
        set(map(len, rows)) <= {2, 3}
        and re.fullmatch("[0-9]*", vertex_text)
        and all(map(_DECIMAL_FLOAT.fullmatch, weight_tokens))
    ):
        for parts in rows:  # name the first offending line
            if len(parts) not in (2, 3):
                raise ValueError(f"bad edge line: {' '.join(parts)!r}")
            _decimal(parts[0], "vertex"), _decimal(parts[1], "vertex")
            if len(parts) == 3 and not _DECIMAL_FLOAT.fullmatch(parts[2]):
                raise ValueError(f"weight must be a decimal number, got {parts[2]!r}")
    # a line with u == v is a loop; decimal digits name the same vertex
    # exactly when they agree without their leading zeros
    loop = [parts[0].lstrip("0") == parts[1].lstrip("0") for parts in rows]
    edges = list(compress(rows, map(not_, loop)))
    loops = [[parts[0], parts[2] if len(parts) == 3 else 1.0] for parts in compress(rows, loop)]
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
