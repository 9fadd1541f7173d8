"""Symmetric matrices attached to a graph: adjacency, the three Laplacians
and the normalized incidence matrix.

All constructors build their matrices symmetrically entry by entry, so
``matrix == matrix.T`` holds exactly (no after-the-fact symmetrization).
Graphs are simple, so A, L and Q of a graph have integer entries. The four
operator formulas are written once, in
``_operator_matrix``, which a graph's operators and the quotients of
``partitions.quotient`` share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Real symmetric matrix tagged with the operator kind it came from."""

    kind: OperatorKind
    matrix: np.ndarray
    graph: Graph | None = None

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        if not np.isfinite(m).all():
            raise ValueError("matrix has non-finite entries")
        if not (m == m.T).all():
            raise ValueError("matrix must be exactly symmetric")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


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
        if len(degrees) and degrees.min() < 1:
            v = int(np.argmin(degrees))
            raise ValueError(f"normalized Laplacian undefined: {row} {v} is isolated")
        scale = 1.0 / np.sqrt(degrees)
        return np.eye(len(a)) - a * np.outer(scale, scale)
    raise ValueError(f"no graph operator for kind {kind.value}")


def operator(g: Graph, kind: OperatorKind | str) -> Hamiltonian:
    """The operator of ``kind`` on ``g`` (``_operator_matrix``); the
    normalized Laplacian is defined for graphs with minimum degree one."""
    k = kind if isinstance(kind, OperatorKind) else OperatorKind.from_name(kind)
    return Hamiltonian(k, _operator_matrix(k, g.adjacency(), g.degrees()), g)


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

