"""Symmetric matrices attached to a graph: adjacency, the three Laplacians
and the normalized incidence matrix.

All constructors build their matrices symmetrically entry by entry, so
``matrix == matrix.T`` holds exactly (no after-the-fact symmetrization). A
graph operator keeps its graph and builds its matrix on first read.
Graphs are simple, so A, L and Q of a graph have integer entries. The four
operator formulas are written once, in
``_operator_matrix``, which a graph's operators and the quotients of
``partitions.quotient`` share.
"""

from __future__ import annotations

import math
from functools import cached_property
from enum import Enum

import numpy as np

from .graphs import Graph

__all__ = [
    "OperatorKind",
    "Hamiltonian",
    "adjacency",
    "standard_laplacian",
    "signless_laplacian",
    "normalized_laplacian",
    "operator",
    "incidence",
]


class OperatorKind(str, Enum):
    ADJACENCY = "adjacency"
    STANDARD = "standard"
    SIGNLESS = "signless"
    NORMALIZED = "normalized"
    CUSTOM = "custom"

    @classmethod
    def from_name(cls, name: str) -> "OperatorKind":
        alias = {"laplacian": "standard", "a": "adjacency", "l": "standard", "q": "signless"}
        key = name.strip().lower()
        key = alias.get(key, key)
        try:
            return cls(key)
        except ValueError:
            raise ValueError(f"unknown operator kind {name!r}") from None


class Hamiltonian:
    """Real symmetric matrix tagged with the operator kind it came from.

    A graph operator (every kind but CUSTOM) is its graph and kind:
    ``operator`` builds it, and its n x n ``matrix`` is built on first read,
    read-only and checked as a CUSTOM matrix is, so a reader that needs only
    the graph (``n``, or ``pst``'s quotient route) never builds it. A CUSTOM
    Hamiltonian is its matrix, which must be square, finite and exactly
    symmetric; it is checked and copied read-only at construction."""

    def __init__(self, kind: OperatorKind, matrix=None, graph: Graph | None = None) -> None:
        kind = OperatorKind(kind)
        if kind == OperatorKind.CUSTOM:
            if matrix is None or graph is not None:
                raise ValueError("a custom Hamiltonian takes a matrix and no graph")
            object.__setattr__(self, "matrix", _checked(matrix))
        elif graph is None or matrix is not None:
            raise ValueError(f"a {kind.value} Hamiltonian takes a graph and no matrix")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "graph", graph)

    def __setattr__(self, name, value):
        raise AttributeError("a Hamiltonian is immutable")

    @cached_property
    def matrix(self) -> np.ndarray:
        g = self.graph
        return _checked(_operator_matrix(self.kind, g.adjacency(), g.degrees()))

    @property
    def n(self) -> int:
        return self.matrix.shape[0] if self.graph is None else self.graph.n


def _checked(matrix) -> np.ndarray:
    """A read-only float copy of a square, finite, exactly symmetric matrix."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    if not (m == m.T).all():
        raise ValueError("matrix must be exactly symmetric")
    m = m.copy()
    m.setflags(write=False)
    return m


def _operator_matrix(
    kind: OperatorKind, a: np.ndarray, degrees: np.ndarray, row: str = "vertex"
) -> np.ndarray:
    """The one place the operator formulas live: A, diag(d) - A,
    diag(d) + A or I - D^{-1/2} A D^{-1/2} for the symmetric matrix ``a``
    and the row degrees d. ``operator`` passes a graph's adjacency and
    degrees; ``partitions.quotient`` passes an equitable quotient's, and
    ``row`` names what a row stands for in the error of a normalized
    Laplacian with a row of degree zero."""
    if kind == OperatorKind.ADJACENCY:
        return a
    if kind == OperatorKind.STANDARD:
        return np.diag(degrees) - a
    if kind == OperatorKind.SIGNLESS:
        return np.diag(degrees) + a
    if kind == OperatorKind.NORMALIZED:
        _require_edges(degrees, row)
        scale = 1.0 / np.sqrt(degrees)
        return np.eye(len(a)) - a * np.outer(scale, scale)
    raise ValueError(f"no graph operator for kind {kind.value}")


def _require_edges(degrees: np.ndarray, row: str) -> None:
    """The normalized Laplacian's guard: no row of degree zero."""
    if len(degrees) and degrees.min() < 1:
        v = int(np.argmin(degrees))
        raise ValueError(f"normalized Laplacian undefined: {row} {v} is isolated")


def operator(g: Graph, kind: OperatorKind | str) -> Hamiltonian:
    """The operator of ``kind`` on ``g`` (``_operator_matrix``), its matrix
    built on first read; the normalized Laplacian is defined for graphs with
    minimum degree one, and a kind without a graph operator (CUSTOM) or an
    isolated vertex under the normalized kind raises here, at once."""
    k = kind if isinstance(kind, OperatorKind) else OperatorKind.from_name(kind)
    if k == OperatorKind.CUSTOM:
        raise ValueError(f"no graph operator for kind {k.value}")
    if k == OperatorKind.NORMALIZED:
        _require_edges(g.degrees(), "vertex")
    return Hamiltonian(k, graph=g)


def adjacency(g: Graph) -> Hamiltonian:
    return operator(g, OperatorKind.ADJACENCY)


def standard_laplacian(g: Graph) -> Hamiltonian:
    return operator(g, OperatorKind.STANDARD)


def signless_laplacian(g: Graph) -> Hamiltonian:
    return operator(g, OperatorKind.SIGNLESS)


def normalized_laplacian(g: Graph) -> Hamiltonian:
    return operator(g, OperatorKind.NORMALIZED)


def incidence(g: Graph) -> np.ndarray:
    """Normalized n x m vertex-edge incidence: entry 1/sqrt(2) where the
    vertex lies on the edge. Column i is edge i of ``g.edges``, which is
    vertex i of ``line_graph(g)``."""
    b = np.zeros((g.n, g.edge_count))
    b[g.ends, np.arange(g.edge_count)[:, None]] = 1.0 / math.sqrt(2.0)
    return b

