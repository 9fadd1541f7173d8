"""Walk matrices, exact integer rank, vertex controllability, and the
pipeline refuting endpoint transfer on the odd unicyclic family.

Walk matrix entries grow like lambda_max^(n-1), so floating-point rank would
be hopelessly ill-conditioned exactly where the mod-3 controllability
pattern matters; rank is therefore exact.

A walk matrix W = [e_S, A e_S, ..., A^{n-1} e_S] is a Krylov matrix, so its
rank is the degree d of the minimal polynomial mu of A relative to e_S, and
it is found without elimination. Berlekamp-Massey modulo a prime p gives the
linear complexity L_p of s_k = e_S^T A^k e_S (k <= 2n - 2, read off the
columns because A is symmetric); mu annihilates s, so L_p <= d. L_p = n
settles full rank. Otherwise the connection polynomials of the primes that
share the largest L are combined by the Chinese remainder theorem into
integer coefficients a_i (mu is monic and integral by Gauss's lemma), and
the exact relation c_L = sum a_i c_i on the columns proves d <= L. Primes
come lazily, descending from ``RANK_PRIME``; only finitely many fall short of
d, so the loop ends.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Iterable, Iterator

import numpy as np

from .graphs import Graph, _require_unweighted, line_graph, odd_unicyclic
from .linegraph import _pendant_edge_index
from .operators import signless_laplacian
from .pst import PstCertificate, search_pst

__all__ = [
    "WalkMatrix",
    "walk_matrix",
    "exact_rank",
    "is_controllable",
    "unicyclic_no_pst_pipeline",
    "UnicyclicReport",
]

_BUILT = object()  # held by walk_matrix, the only constructor of a WalkMatrix


@dataclass(frozen=True)
class WalkMatrix:
    """Columns e_S, A e_S, ..., A^{n-1} e_S as exact integers (rows indexed by
    vertex, columns by power). Only walk_matrix builds one (a direct call
    raises TypeError), so its columns are Krylov columns of a symmetric 0/1
    matrix, which ``exact_rank`` relies on."""

    rows: tuple[tuple[int, ...], ...]
    subset: tuple[int, ...]
    _proof: InitVar[object] = None

    def __post_init__(self, _proof):
        if _proof is not _BUILT:
            raise TypeError("a WalkMatrix comes from walk_matrix")

    @property
    def n(self) -> int:
        return len(self.rows)


def walk_matrix(g: Graph, subset: Iterable[int]) -> WalkMatrix:
    _require_unweighted(g, "walk_matrix")
    s = tuple(sorted({int(v) for v in subset}))
    for v in s:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    src, dst = g.ends.T
    columns = np.zeros((g.n, g.n), dtype=object)  # Python ints: no overflow
    columns[list(s), :1] = 1  # e_S; a slice, so that n = 0 works too
    for k in range(1, g.n):
        # (A x)[v] sums x over the neighbours of v: both ends of every edge
        np.add.at(columns[:, k], src, columns[dst, k - 1])
        np.add.at(columns[:, k], dst, columns[src, k - 1])
    return WalkMatrix(tuple(map(tuple, columns.tolist())), s, _BUILT)


# below 2^31, so a product of two residues stays inside int64
RANK_PRIME = 2**31 - 19


def _is_prime(q: int) -> bool:
    """Miller-Rabin on the bases 2, 3, 5, 7: exact below 3,215,031,751."""
    if q < 11:
        return q in (2, 3, 5, 7)
    odd, twos = q - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for base in (2, 3, 5, 7):
        x = pow(base, odd, q)
        if x in (1, q - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def _primes() -> Iterator[int]:
    """The primes at or below RANK_PRIME, descending."""
    return (q for q in range(RANK_PRIME, 1, -1) if _is_prime(q))


def _berlekamp_massey(s: np.ndarray, p: int) -> tuple[int, np.ndarray]:
    """Linear complexity L of the residues s mod p and the connection
    polynomial c (length L + 1, c[0] = 1) of a shortest recurrence:
    sum_i c[i] s[k - i] = 0 mod p for L <= k < len(s)."""
    c, b = np.zeros(len(s) + 1, dtype=np.int64), np.zeros(len(s) + 1, dtype=np.int64)
    c[0] = b[0] = 1
    length, shift, b_discrepancy = 0, 1, 1
    for k in range(len(s)):
        # residues below 2^31: every product fits int64, and so does their sum mod p
        discrepancy = int((c[: length + 1] * s[k - length : k + 1][::-1] % p).sum() % p)
        if discrepancy == 0:
            shift += 1
            continue
        scale = discrepancy * pow(b_discrepancy, -1, p) % p
        previous = c.copy()
        c[shift:] = (c[shift:] - scale * b[: len(c) - shift] % p) % p
        if 2 * length <= k:
            length, b, b_discrepancy, shift = k + 1 - length, previous, discrepancy, 1
        else:
            shift += 1
    return length, c[: length + 1]


def _symmetric(residues: list[int], modulus: int) -> tuple[int, ...]:
    """Residues lifted to (-modulus/2, modulus/2]."""
    return tuple(r - modulus if 2 * r > modulus else r for r in residues)


def _krylov_relation(w: WalkMatrix) -> tuple[int, ...] | None:
    """The integer coefficients a_0 ... a_{L-1} of the first dependent
    column of the walk matrix, c_L = sum_i a_i c_i, proven exactly on the
    columns; x^L - sum_i a_i x^i is then the minimal polynomial of A relative
    to e_S. None when the n columns are independent.

    Each prime's Berlekamp-Massey complexity L_p is a lower bound on the
    rank. The primes sharing the largest L_p seen so far are combined by the
    Chinese remainder theorem; once one more prime leaves the symmetric lift
    unchanged, the relation is checked exactly, and its truth bounds the rank
    above by L."""
    n = w.n
    columns = np.array(w.rows, dtype=object).reshape(n, n)
    best, modulus, residues, lift = -1, 1, [], ()
    for p in _primes():
        reduced = (columns % p).astype(np.int64)
        s = np.empty(max(2 * n - 1, 0), dtype=np.int64)
        # s_2j = c_j.c_j and s_2j+1 = c_j.c_j+1 are e_S^T A^k e_S, A being symmetric;
        # each product is below 2^62 and each column sum below n p
        s[0::2] = (reduced * reduced % p).sum(axis=0) % p
        s[1::2] = (reduced[:, :-1] * reduced[:, 1:] % p).sum(axis=0) % p
        length, connection = _berlekamp_massey(s, p)
        if length == n:  # L_p <= rank <= n
            return None
        if length < best:
            continue
        coefficients = [int(-x) % p for x in connection[:0:-1]]  # a_0 ... a_{L-1} mod p
        if length > best:
            best, modulus, residues = length, p, coefficients
            lift = _symmetric(residues, modulus)
            continue
        inverse = pow(modulus, -1, p)
        residues = [r + modulus * ((x - r) * inverse % p) for r, x in zip(residues, coefficients)]
        modulus *= p
        previous, lift = lift, _symmetric(residues, modulus)
        if lift == previous and (columns[:, :best].dot(np.array(lift, dtype=object)) == columns[:, best]).all():
            return lift
    # only finitely many primes fall short of the rank, far fewer than lie below 2^31
    raise RuntimeError("the primes below 2^31 ran out before the Krylov relation was proven")


def exact_rank(w: WalkMatrix) -> int:
    """Rank over the rationals of a walk matrix: the degree of its Krylov
    relation (see ``_krylov_relation``), a Berlekamp-Massey lower bound
    modulo primes and an exact column relation as the upper bound."""
    if not isinstance(w, WalkMatrix):
        raise TypeError("exact_rank takes a WalkMatrix from walk_matrix")
    relation = _krylov_relation(w)
    return w.n if relation is None else len(relation)


def is_controllable(g: Graph, subset: Iterable[int]) -> bool:
    """Whether the walk matrix of e_S has full rank n.

    For S = {u} this is the negation of "some eigenvector of A vanishes at
    u". Write A = sum_theta theta E_theta over its distinct eigenvalues.
    Then A^k e_u = sum_theta theta^k E_theta e_u, and the Vandermonde matrix
    of distinct eigenvalues is invertible, so the columns span exactly the
    nonzero E_theta e_u: the rank is the number of eigenvalues theta with
    E_theta e_u != 0. It is n exactly when every eigenvalue is simple and
    every E_theta e_u = x_theta x_theta[u] (x_theta a unit eigenvector) is
    nonzero. So the rank falls below n exactly when
    - some eigenvalue is repeated: its eigenspace, of dimension >= 2, holds
      a nonzero vector orthogonal to e_u, which vanishes at u; or
    - the eigenvector x_theta of some simple eigenvalue has x_theta[u] = 0.
    """
    return exact_rank(walk_matrix(g, subset)) == g.n


@dataclass(frozen=True)
class UnicyclicReport:
    """Outcome of the endpoint-transfer refutation on the triangle with two
    m-edge pendant paths."""

    m: int
    verdict: str  # "no-pst" | "inconclusive"
    line_pair: tuple[int, int]
    ranks: tuple[int, int]
    line_order: int  # a rank equal to it means that pendant edge is controllable
    scan: PstCertificate  # best signless walk entry between the endpoints


def unicyclic_no_pst_pipeline(m: int, t_max: float = 200.0) -> UnicyclicReport:
    """Refute endpoint transfer on the odd unicyclic graph via line-graph
    controllability, cross-checked by a bounded scan of the signless walk.

    The controllability route works whenever m is not divisible by 3, and
    the pipeline raises if it fails there; the m = 0 (mod 3) cases are
    reported as inconclusive (scan evidence only), since there the probe
    vertices do admit vanishing eigenvectors. A report therefore stands
    exactly when ``scan.refutes()`` holds.
    """
    if m < 1:
        raise ValueError("pendant paths need at least one edge")
    u_graph, (end1, end2) = odd_unicyclic(m)
    lg = line_graph(u_graph)
    e1, e2 = _pendant_edge_index(u_graph, end1), _pendant_edge_index(u_graph, end2)
    r1 = exact_rank(walk_matrix(lg, (e1,)))
    r2 = exact_rank(walk_matrix(lg, (e2,)))

    scan = search_pst(signless_laplacian(u_graph), (end1, end2), t_max)

    if m % 3 == 0:
        verdict = "inconclusive"
    else:
        if r1 != lg.n or r2 != lg.n:
            raise RuntimeError(
                f"expected both pendant edges of the line graph controllable for m={m}, "
                f"got ranks {r1},{r2} of {lg.n}"
            )
        verdict = "no-pst"
    return UnicyclicReport(
        m=m,
        verdict=verdict,
        line_pair=(e1, e2),
        ranks=(r1, r2),
        line_order=lg.n,
        scan=scan,
    )
