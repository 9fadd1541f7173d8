"""Eigendecomposition with eigenvalue clustering, walk operator evaluation
and the Cartesian product check.

The walk is always evaluated through the spectral decomposition
U(t) = V diag(exp(-i t theta)) V^T, never by series summation: unitarity is
then exact up to the orthogonality error of V no matter how large t gets.
Eigenvalues are grouped into clusters and every eigenvector of a cluster
shares the cluster's mean eigenvalue theta_k, so degenerate spectra
(hypercubes, products) stay stable. The spectral projector of cluster k is
E_k = V_k V_k^T over the cluster's block of columns V_k; it is never stored.
A walk entry U(t)[v, u] = sum_k E_k[v, u] exp(-i t theta_k) reads only the
pair weights E_k[v, u], per-cluster sums of V[v, j] V[u, j] (``amplitude``).
The whole matrix U(t) (``matrix_at``) serves the checks that compare whole
matrices; each of them decomposes its operators once per call and reads
every one of its times from those decompositions.

``eigendecompose`` reads ``Hamiltonian.matrix``, which a graph operator
builds on first read. A pair's walk entries need less: ``pst._pair_spectrum``
decomposes the pair's k x k equitable quotient in place of a graph operator
of order n >= ``pst.QUOTIENT_MIN`` (64) when the pair's coarsest equitable
refinement has at most floor(sqrt(n)) cells. Failing that, for u != v, it
decomposes the two halves of the operator over an involutive automorphism
that swaps the pair, each of order about n / 2, and clusters their merged
spectra by this module's one rule (``_clusters``). Either way no n x n
matrix is built; otherwise, and for a CUSTOM matrix, it decomposes the
whole operator here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from .graphs import cartesian_product
from .operators import Hamiltonian, OperatorKind, operator

__all__ = [
    "EigenDecomposition",
    "eigendecompose",
    "cartesian_walk_check",
]


T = TypeVar("T")


def per_time(times: float | Sequence[float], check: Callable[[float], T]) -> T | list[T]:
    """``check(t)`` at a single time, or the list of ``check(t)`` over a
    sequence of times, in order."""
    if np.ndim(times) == 0:
        return check(float(times))
    return [check(float(t)) for t in times]


def entry_sum(values: np.ndarray, weights: np.ndarray, times, start: float) -> np.ndarray:
    """sum_k weights[k] exp(-i t values[k]) at every time t: one walk entry,
    exactly ``start``, the identity's entry, at t = 0.

    Each time is its own (1 x k)(k x 1) product: one (times x k) product
    rounds its rows unlike one-row products, so an entry would depend on
    which other times are asked with it. Here each gets the bits it gets
    alone."""
    phases = np.exp(-1j * np.outer(times, values))[:, None, :]
    return np.where(np.equal(times, 0.0), start, (phases @ weights[:, None])[:, 0, 0])


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
        """Walk entry from ``source`` to ``target`` at every time; exactly
        I[target, source] at t = 0, as ``matrix_at`` is."""
        return entry_sum(self.values, self.pair_weights(source, target), times, float(source == target))

    def matrix_at(self, t: float) -> np.ndarray:
        """exp(-i t M) as a dense matrix; exactly the identity at t = 0."""
        if t == 0.0:
            return np.eye(self.n, dtype=complex)
        phases = np.exp(-1j * t * np.repeat(self.values, self.multiplicities))
        return (self.vectors * phases) @ self.vectors.T


def eigendecompose(h: Hamiltonian) -> EigenDecomposition:
    """Symmetric eigensolve with eigenvalue clustering.

    Consecutive eigenvalues closer than 1e-8 times the spectral range fall
    into one cluster (``_clusters``), whose eigenvectors then share the
    cluster mean; this keeps the cluster projectors well defined on
    degenerate spectra.
    """
    try:
        evals, evecs = np.linalg.eigh(h.matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh rarely fails
        raise RuntimeError(f"eigensolver failed: {exc}") from exc
    sizes, values = _clusters(evals)
    return EigenDecomposition(
        eigenvalues=evals,
        values=values,
        vectors=evecs,
        multiplicities=tuple(sizes.tolist()),
    )


def _clusters(evals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sizes and mean values of the clusters of the ascending
    eigenvalues ``evals``: consecutive eigenvalues closer than 1e-8 times
    the spectral range fall into one cluster. ``eigendecompose`` and
    ``pst``'s merge of two halves share this one rule."""
    if len(evals) == 0:
        return np.zeros(0, dtype=np.intp), evals
    cluster_tol = 1e-8 * float(evals[-1] - evals[0])
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(evals) > cluster_tol) + 1, [len(evals)]))
    sizes = np.diff(bounds)
    values = evals[bounds[:-1]]  # the mean of a single eigenvalue is that eigenvalue
    for k in np.flatnonzero(sizes > 1).tolist():
        values[k] = evals[bounds[k] : bounds[k + 1]].sum() / sizes[k]  # as ndarray.mean computes it
    return sizes, values


def cartesian_walk_check(
    h_g: Hamiltonian, h_h: Hamiltonian, times: float | Sequence[float]
) -> float | list[float]:
    """Max-norm deviation between the walk on the box product and the
    Kronecker product of the factor walks, for standard/signless Laplacians,
    at each time (see ``per_time``). The product and both factors are each
    decomposed once per call."""
    if h_g.kind != h_h.kind:
        raise ValueError("factors must use the same operator kind")
    if h_g.kind not in (OperatorKind.STANDARD, OperatorKind.SIGNLESS):
        raise ValueError("factorization holds for the standard or signless Laplacian")
    if h_g.graph is None or h_h.graph is None:
        raise ValueError("both Hamiltonians must carry their source graph")
    product = cartesian_product(h_g.graph, h_h.graph)
    d_product = eigendecompose(operator(product, h_g.kind))
    d_g, d_h = eigendecompose(h_g), eigendecompose(h_h)

    def deviation(t: float) -> float:
        factored = np.kron(d_g.matrix_at(t), d_h.matrix_at(t))
        return float(np.abs(d_product.matrix_at(t) - factored).max())

    return per_time(times, deviation)
