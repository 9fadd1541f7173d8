"""Eigendecomposition with eigenvalue clustering, walk operator evaluation,
and closed-form walk entries for joins and the weighted three-vertex path.

The walk is always evaluated through the spectral decomposition
U(t) = V diag(exp(-i t theta)) V^T, never by series summation: unitarity is
then exact up to the orthogonality error of V no matter how large t gets.
Eigenvalues are grouped into clusters and every eigenvector of a cluster
shares the cluster's mean eigenvalue theta_k, so degenerate spectra
(hypercubes, products) stay stable. The spectral projector of cluster k is
E_k = V_k V_k^T over the cluster's block of columns V_k; it is never stored,
and entries E_k[v, u] come out as per-cluster sums of V[v, j] V[u, j].
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .graphs import cartesian_product
from .operators import Hamiltonian, OperatorKind, operator

__all__ = [
    "EigenDecomposition",
    "eigendecompose",
    "walk",
    "p3_alpha_fidelity",
    "p3_alpha_pst_condition",
    "join_walk_entry",
    "join_cross_entry",
    "cartesian_walk_check",
]


def walk_sum(values: np.ndarray, weights: np.ndarray, times) -> np.ndarray:
    """sum_k weights[k] exp(-i t values[k]) at every time t (one row per
    time). ``weights`` may carry several columns, each summed on its own."""
    return np.exp(-1j * np.outer(times, values)) @ weights


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues, the orthonormal eigenvectors ``vectors`` (one
    per column, as returned by ``eigh``) and the eigenvalue clusters: cluster
    k is the next ``multiplicities[k]`` columns and ``values[k]`` its mean
    eigenvalue."""

    eigenvalues: np.ndarray
    values: np.ndarray
    vectors: np.ndarray
    multiplicities: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @property
    def spectral_range(self) -> float:
        if self.n == 0:
            return 0.0
        return float(self.eigenvalues[-1] - self.eigenvalues[0])

    @property
    def _starts(self) -> np.ndarray:
        """Index of the first column of every cluster."""
        return np.cumsum((0,) + self.multiplicities[:-1])

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        """Dense n x n projector of every cluster, built on each access; the
        engine works from the eigenvector blocks instead."""
        return tuple(
            self.vectors[:, a : a + m] @ self.vectors[:, a : a + m].T
            for a, m in zip(self._starts, self.multiplicities)
        )

    def pair_weights(self, source: int, target: int) -> np.ndarray:
        """Entry (target, source) of every cluster projector; the walk entry
        is then sum_k weights[k] * exp(-i t values[k])."""
        v = self.vectors
        return np.add.reduceat(v[target] * v[source], self._starts)

    def amplitude(self, source: int, target: int, times) -> np.ndarray:
        """Walk entry from ``source`` to ``target`` at every time."""
        return walk_sum(self.values, self.pair_weights(source, target), times)

    def matrix_at(self, t: float) -> np.ndarray:
        if t == 0.0:
            return np.eye(self.n, dtype=complex)
        phases = np.exp(-1j * t * np.repeat(self.values, self.multiplicities))
        return (self.vectors * phases) @ self.vectors.T


def eigendecompose(source: Hamiltonian | np.ndarray) -> EigenDecomposition:
    """Symmetric eigensolve with eigenvalue clustering.

    Consecutive eigenvalues closer than 1e-8 times the spectral range fall
    into one cluster, whose eigenvectors then share the cluster mean; this
    keeps the cluster projectors well defined on degenerate spectra.
    """
    if not isinstance(source, Hamiltonian):
        source = Hamiltonian(OperatorKind.CUSTOM, source)
    m = source.matrix
    try:
        evals, evecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh rarely fails
        raise RuntimeError(f"eigensolver failed: {exc}") from exc

    if len(evals) == 0:
        return EigenDecomposition(evals, evals, evecs, ())
    cluster_tol = 1e-8 * float(evals[-1] - evals[0])
    clusters = np.split(evals, np.flatnonzero(np.diff(evals) > cluster_tol) + 1)
    return EigenDecomposition(
        eigenvalues=evals,
        values=np.array([c.mean() for c in clusters]),
        vectors=evecs,
        multiplicities=tuple(len(c) for c in clusters),
    )


def walk(source: Hamiltonian | np.ndarray, t: float) -> np.ndarray:
    """exp(-i t M) as a dense matrix; exactly the identity at t = 0."""
    return eigendecompose(source).matrix_at(float(t))


# -- closed forms -----------------------------------------------------------


def p3_alpha_fidelity(alpha: float, t: float) -> complex:
    """Antipodal walk entry of the weighted three-vertex path, in closed form:
    -1/2 + (exp(-i t a/2)/2) (cos(D t) + i (a/2)/D sin(D t)), D^2 = (a/2)^2 + 2.
    """
    half = alpha / 2.0
    delta = math.sqrt(half * half + 2.0)
    osc = math.cos(delta * t) + 1j * (half / delta) * math.sin(delta * t)
    return -0.5 + 0.5 * cmath.exp(-1j * t * half) * osc


def p3_alpha_pst_condition(alpha: float, t: float, tol: float = 1e-9) -> bool:
    """Exact transfer condition for the weighted path:
    exp(-i t alpha/2) cos(D t) = -1."""
    half = alpha / 2.0
    delta = math.sqrt(half * half + 2.0)
    return abs(cmath.exp(-1j * t * half) * math.cos(delta * t) + 1.0) < tol


def join_walk_entry(
    g_dec: EigenDecomposition, m: int, n: int, pair: tuple[int, int], t: float
) -> complex:
    """Walk entry inside the m-vertex factor of a join with an n-vertex graph,
    relative to the standard Laplacian:

        e^{-itn} <u|e^{-itL(G)}|v> + (e^{-it(m+n)} - e^{-itn})/m
                                   + (1 - e^{-it(m+n)})/(m+n).

    ``g_dec`` is the decomposition of L(G) alone.
    """
    u, v = pair
    inner = complex(g_dec.amplitude(u, v, [t])[0])
    e_n = cmath.exp(-1j * t * n)
    e_mn = cmath.exp(-1j * t * (m + n))
    return e_n * inner + (e_mn - e_n) / m + (1.0 - e_mn) / (m + n)


def join_cross_entry(m: int, n: int, t: float) -> complex:
    """Walk entry between the two sides of a join under the standard
    Laplacian: (1 - e^{-it(m+n)})/(m+n), independent of the vertices."""
    return (1.0 - cmath.exp(-1j * t * (m + n))) / (m + n)


def cartesian_walk_check(h_g: Hamiltonian, h_h: Hamiltonian, t: float) -> float:
    """Max-norm deviation between the walk on the box product and the
    Kronecker product of the factor walks, for standard/signless Laplacians."""
    if h_g.kind != h_h.kind:
        raise ValueError("factors must use the same operator kind")
    if h_g.kind not in (OperatorKind.STANDARD, OperatorKind.SIGNLESS):
        raise ValueError("factorization holds for the standard or signless Laplacian")
    if h_g.graph is None or h_h.graph is None:
        raise ValueError("both Hamiltonians must carry their source graph")
    product = cartesian_product(h_g.graph, h_h.graph)
    direct = walk(operator(product, h_g.kind), t)
    factored = np.kron(walk(h_g, t), walk(h_h, t))
    return float(np.abs(direct - factored).max())
