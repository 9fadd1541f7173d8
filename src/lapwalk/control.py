"""Walk matrices, exact integer rank, vertex controllability, and the
pipeline refuting endpoint transfer on the odd unicyclic family.

Walk matrix entries grow like lambda_max^(n-1), so floating-point rank would
be hopelessly ill-conditioned exactly where the mod-3 controllability
pattern matters; rank is therefore exact.

A walk matrix W = [e_S, A e_S, ..., A^{n-1} e_S] is a Krylov matrix, so its
rank is the degree d of the minimal polynomial mu of A relative to e_S, and
it is found without elimination and without W. Berlekamp-Massey modulo a
prime p gives the linear complexity L_p of s_k = e_S^T A^k e_S
(k <= 2n - 2), whose residues come from int64 matvecs starting at e_S;
mu annihilates s, so L_p <= d. L_p = n settles full rank.

A deficient rank is proven first with eigenvector witnesses, at the first
prime (Godsil, "Controllable subsets in graphs", Ann. Comb. 16, 2012): an
integer y != 0 with A y = lambda y and e_S^T y = 0 is orthogonal to every
column, since y^T A^k e_S = lambda^k y^T e_S = 0. For every integer root
lambda of mu_p with |lambda| <= max degree (one vectorised Horner over all
candidates), q = mu_p / (x - lambda) maps a random z and e_S into the
lambda-eigenspace mod p whenever mu_p is the minimal polynomial of A, and
a combination of the two is orthogonal to e_S; scaled to a leading 1 and
lifted symmetrically, it is kept only if both A y = lambda y and
e_S^T y = 0 hold exactly in int64. Witnesses of distinct eigenvalues are
independent, so n - L_p of them prove d <= L_p. A lift that is wrong only
fails its check.

When they fall short (an irrational eigenvalue, large eigenvector entries,
an eigenvalue whose whole eigenspace is orthogonal to e_S, or too few
witnesses), the loop goes on from the first prime's run: the connection
polynomials of the primes that share the largest L are combined
by the Chinese remainder theorem into integer coefficients a_i (mu is monic
and integral by Gauss's lemma), and the exact relation
(A^L - sum a_i A^i) e_S = 0, evaluated by Horner in Python ints, proves
d <= L. Horner is tried as soon as the longest lifted coefficient is
``_HEADROOM`` (8) bits shorter than the CRT modulus. A coefficient that
wrapped lands about uniformly in (-M/2, M/2], so a wrong lift passes that
gate with probability about 2^-8 per wrapped coefficient, and a false pass
costs only one failed Horner check before the next prime: both bounds stay
exact. Primes come lazily, descending from ``RANK_PRIME``; only finitely
many fall short of d, so the loop ends. No prime's residues or
Berlekamp-Massey run is computed twice.

Every residue is below 2^21, so a product of two is below 2^42, and a sum
of fewer than 2^21 such products stays inside int64: every dot product is
one exact int64 ``@`` on graphs with n < 2^21 vertices, and ``exact_rank``
refuses larger ones (a single prime's 2n - 2 matvecs would take hours
there anyway).

The engine behind ``exact_rank`` takes the graph's one cached arc array
(``Graph._arcs``: tails and heads, both directions of every edge) and one
integer start vector x, built once as e_S: every matvec, int64 residues,
witness stacks (``_stacked``) and Python-int Horner alike, reads the edges
from the arcs. The big-integer columns themselves are built only when
``WalkMatrix.rows`` is read.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .graphs import Graph, _vertices, line_graph, odd_unicyclic
from .linegraph import _pendant_edge_index
from .operators import signless_laplacian
from .pst import SCAN_T_MAX, PstCertificate, search_pst

__all__ = [
    "WalkMatrix",
    "walk_matrix",
    "exact_rank",
    "unicyclic_no_pst_pipeline",
    "UnicyclicReport",
]

_BUILT = object()  # held by walk_matrix, the only constructor of a WalkMatrix


@dataclass(frozen=True)
class WalkMatrix:
    """The walk matrix of e_S in the graph: columns e_S, A e_S, ...,
    A^{n-1} e_S as exact integers (rows indexed by vertex, columns by power).
    It holds the graph and the sorted subset; ``rows`` is built when first
    read and kept. Only walk_matrix builds one (a direct call raises
    TypeError), so its columns are Krylov columns of a symmetric 0/1 matrix,
    which ``exact_rank`` relies on."""

    _graph: Graph
    subset: tuple[int, ...]
    _proof: InitVar[object] = None

    def __post_init__(self, _proof):
        if _proof is not _BUILT:
            raise TypeError("a WalkMatrix comes from walk_matrix")

    @property
    def n(self) -> int:
        return self._graph.n

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        arcs = self._graph._arcs
        columns = np.zeros((self.n, self.n), dtype=object)  # Python ints: no overflow
        columns[list(self.subset), :1] = 1  # e_S; a slice, so that n = 0 works too
        for k in range(1, self.n):
            columns[:, k] = _adjacency_times(arcs, columns[:, k - 1])
        return tuple(map(tuple, columns.tolist()))


def walk_matrix(g: Graph, subset: Iterable[int]) -> WalkMatrix:
    return WalkMatrix(g, tuple(np.unique(_vertices(g.n, subset)).tolist()), _BUILT)


# the largest prime below 2^21: a product of two residues is below 2^42, so
# a sum of up to 2^21 of them (a dot product over fewer than _ORDER_BOUND
# vertices) stays inside int64
RANK_PRIME = 2**21 - 9
_ORDER_BOUND = 2**21


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
    sum_i c[i] s[k - i] = 0 mod p for L <= k < len(s).

    c never reaches past its length L, so only the live prefix is updated:
    c[shift : shift + len(b)] with b the connection before the last length
    change, and b is copied only when the length grows."""
    c = np.zeros(len(s) + 1, dtype=np.int64)
    c[0] = 1
    b = c[:1].copy()
    # reversed, so that s[k - i] for i = 0 ... L is the forward slice ending at len(s) - k + L
    backward = s[::-1]
    length, shift, b_inverse = 0, 1, 1  # b_inverse: 1 / b's discrepancy mod p
    for k in range(len(s)):
        # L + 1 products below 2^42; L stays at most n for walk residues
        discrepancy = int(c[: length + 1] @ backward[len(s) - 1 - k : len(s) - k + length]) % p
        if discrepancy == 0:
            shift += 1
            continue
        scale = discrepancy * b_inverse % p
        grows = 2 * length <= k
        if grows:
            previous = c[: length + 1].copy()
        live = c[shift : shift + len(b)]
        live -= scale * b  # products below 2^42, so differences above -2^42
        live %= p
        if grows:
            length, b, b_inverse, shift = k + 1 - length, previous, pow(discrepancy, -1, p), 1
        else:
            shift += 1
    return length, c[: length + 1]


# A lift is checked once its longest coefficient is this many bits shorter
# than the CRT modulus. A coefficient that wrapped lands about uniformly in
# (-M/2, M/2], so a wrong lift passes with probability about 2^-8 per wrapped
# coefficient, and then costs one failed Horner check.
_HEADROOM = 8


def _symmetric(residues: list[int], modulus: int) -> tuple[int, ...]:
    """Residues lifted to (-modulus/2, modulus/2]."""
    return tuple(r - modulus if 2 * r > modulus else r for r in residues)


def _adjacency_times(arcs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x, in the dtype of x, over a graph's ``_arcs``: (A x)[v] sums x over
    the neighbours of v."""
    tails, heads = arcs
    y = np.zeros(len(x), dtype=x.dtype)
    np.add.at(y, tails, x[heads])
    return y


def _walk_residues(arcs: np.ndarray, x: np.ndarray, p: int) -> np.ndarray:
    """s_k = x^T A^k x mod p for k <= 2n - 2, from v_j = A^j x mod p:
    s_2j = v_j.v_j and s_2j+1 = v_j.v_j+1, A being symmetric."""
    n = len(x)
    s = np.empty(max(2 * n - 1, 0), dtype=np.int64)
    v = x % p
    s[:1] = int(v @ v) % p  # a slice, so that n = 0 works too
    for j in range(1, n):
        # (A v)[u] sums deg(u) < 2^21 residues below 2^21: below 2^42
        previous, v = v, _adjacency_times(arcs, v) % p
        s[2 * j - 1] = int(previous @ v) % p
        s[2 * j] = int(v @ v) % p
    return s


def _annihilates(arcs: np.ndarray, x: np.ndarray, relation: tuple[int, ...]) -> bool:
    """Whether (A^L - sum_i a_i A^i) x = 0 exactly, by Horner in Python
    ints: v <- A v - a_i x from v = x, for i = L - 1 down to 0. Each step
    subtracts a_i x on x's support only (one or two entries for e_S)."""
    support = np.flatnonzero(x)
    x_support = x[support].astype(object)
    v = x.astype(object)  # Python ints: no overflow
    for a in reversed(relation):
        v = _adjacency_times(arcs, v)
        v[support] -= a * x_support
    return not v.any()


def _prime_runs(arcs: np.ndarray, x: np.ndarray) -> Iterator[tuple[int, int, np.ndarray]]:
    """Each prime p, descending, with the Berlekamp-Massey complexity L_p and
    connection polynomial of the walk residues mod p, run lazily."""
    for p in _primes():
        yield (p, *_berlekamp_massey(_walk_residues(arcs, x, p), p))


def _krylov_relation(
    arcs: np.ndarray, x: np.ndarray, runs: Iterator[tuple[int, int, np.ndarray]] | None = None
) -> tuple[int, ...] | None:
    """The integer coefficients a_0 ... a_{L-1} of the first dependent
    column of the Krylov matrix [x, A x, ..., A^{n-1} x],
    c_L = sum_i a_i c_i, proven exactly as (A^L - sum_i a_i A^i) x = 0;
    x^L - sum_i a_i x^i is then the minimal polynomial of A relative to x.
    None when the n columns are independent. The columns themselves are
    never built.

    Each prime's Berlekamp-Massey complexity L_p of the residues
    x^T A^k x mod p (``_walk_residues``) is a lower bound on the rank.
    The primes sharing the largest L_p seen so far are combined by the
    Chinese remainder theorem; once the longest coefficient of the symmetric
    lift is ``_HEADROOM`` bits shorter than the modulus, the relation is
    checked exactly (``_annihilates``), and its truth bounds the rank above
    by L. A false check only sends the loop on to the next prime. ``runs``
    continues the primes a caller has already run (``_prime_runs``)."""
    n = len(x)
    best, modulus, residues = -1, 1, []
    for p, length, connection in _prime_runs(arcs, x) if runs is None else runs:
        if length == n:  # L_p <= rank <= n
            return None
        if length < best:
            continue
        coefficients = [int(-x) % p for x in connection[:0:-1]]  # a_0 ... a_{L-1} mod p
        if length > best:
            best, modulus, residues = length, p, coefficients
        else:
            inverse = pow(modulus, -1, p)
            residues = [r + modulus * ((x - r) * inverse % p) for r, x in zip(residues, coefficients)]
            modulus *= p
        lift = _symmetric(residues, modulus)
        longest = max(map(abs, lift), default=0).bit_length()
        if longest + _HEADROOM <= modulus.bit_length() and _annihilates(arcs, x, lift):
            return lift
    # only finitely many primes fall short of the rank or leave a wrong lift,
    # but nothing bounds that number below the 155,611 primes below 2^21
    raise RuntimeError("the primes below 2^21 ran out before the Krylov relation was proven")


def _stacked(arcs: np.ndarray, k: int) -> np.ndarray:
    """The arcs of k disjoint copies of the graph, vertex v of copy j
    numbered v k + j: ``_adjacency_times`` over them multiplies every column
    of a raveled (n, k) stack by A."""
    return (arcs[..., None] * k + np.arange(k)).reshape(2, -1)


def _eigenvector_candidates(
    arcs: np.ndarray, x: np.ndarray, p: int, connection: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The integers lambda with |lambda| <= max degree that are roots of
    mu_p = x^L + c[1] x^(L-1) + ... + c[L] (the connection polynomial
    reversed), and for each one a column y: a vector of the lambda-eigenspace
    orthogonal to the start vector x, if mu_p is the minimal polynomial of A
    and the eigenvector has small integer entries. No column is trusted
    (``_is_witness`` checks them). None are built when fewer roots than
    n - L exist.

    With q = mu_p / (x - lambda), q(A) maps every vector into the
    lambda-eigenspace when mu_p(A) = 0, and for a random z
    y = (x^T q(A) x) q(A) z - (x^T q(A) z) q(A) x has x^T y = 0.
    The stack [x, z] of every root is evaluated at once by Horner mod p
    (L - 1 matvecs), q's coefficients coming from synthetic division as it
    goes. Each column is scaled so that its first nonzero entry is 1 and
    lifted to (-p/2, p/2]."""
    n, length = len(x), len(connection) - 1
    degree = int(np.bincount(arcs[0], minlength=n).max())
    candidates = np.arange(-degree, degree + 1)
    residues = candidates % p
    values = np.zeros(len(candidates), dtype=np.int64)
    for c in connection.tolist():  # Horner over every candidate at once
        values = (values * residues + c) % p
    roots, lam = candidates[values == 0], residues[values == 0]
    r = len(roots)
    if r < n - length:
        return roots[:0], np.zeros((n, 0), dtype=np.int64)
    # z of 16 bits: A u sums fewer than 2^21 residues, below 2^42, and
    # z q_i < 2^37, so one reduction per step keeps A u + stack q inside int64
    stack = np.zeros((n, 1, 2), dtype=np.int64)
    stack[:, 0, 0] = x % p
    stack[:, 0, 1] = np.random.default_rng(0).integers(0, 2**16, n)
    stacked = _stacked(arcs, 2 * r)
    q = np.ones(r, dtype=np.int64)  # q's leading coefficient, c[0] = 1
    u = np.repeat(stack, r, axis=1)  # column pair i holds [q(A) x, q(A) z] for root i
    for c in connection[1:length].tolist():
        q = (c + lam * q) % p
        u = (_adjacency_times(stacked, u.ravel()).reshape(n, r, 2) + stack * q[:, None]) % p
    qe, qz = u[..., 0], u[..., 1]
    y = ((x @ qe) % p * qz % p - (x @ qz) % p * qe % p) % p
    first = y[(y != 0).argmax(axis=0), np.arange(r)]  # 0 for a zero column, which stays zero
    y = y * np.array([pow(int(f), -1, p) if f else 0 for f in first], dtype=np.int64) % p
    return roots, y - p * (2 * y > p)


def _is_witness(arcs: np.ndarray, x: np.ndarray, roots: np.ndarray, y: np.ndarray) -> np.ndarray:
    """For each column y_i, whether it is nonzero, A y_i = lambda_i y_i and
    x^T y_i = 0, exactly in int64: entries at most 2^20 in size and fewer
    than 2^21 vertices keep A y_i, lambda_i y_i and x^T y_i below 2^41 for
    a 0/1 start vector. Such a y_i is orthogonal to every Krylov column
    A^k x, as y_i^T A^k x = lambda_i^k y_i^T x = 0."""
    n, r = y.shape
    ay = _adjacency_times(_stacked(arcs, r), y.ravel()).reshape(n, r)
    return y.any(axis=0) & (ay == y * roots).all(axis=0) & (x @ y == 0)


def exact_rank(w: WalkMatrix) -> int:
    """Rank over the rationals of a walk matrix. The first prime's
    Berlekamp-Massey complexity L is a lower bound; L = n settles it.
    Otherwise n - L exactly checked integer eigenvectors orthogonal to e_S
    (``_eigenvector_candidates``, ``_is_witness``) bound it above by L:
    they belong to distinct eigenvalues, so they are independent. Failing
    that, the Krylov relation (``_krylov_relation``) is lifted over further
    primes, continuing from the first, and its degree is the rank. It never
    reads ``w.rows``.

    For S = {u}, rank n (u controllable) is the negation of "some
    eigenvector of A vanishes at u". Write A = sum_theta theta E_theta over
    its distinct eigenvalues. Then A^k e_u = sum_theta theta^k E_theta e_u,
    and the Vandermonde matrix of distinct eigenvalues is invertible, so the
    columns span exactly the nonzero E_theta e_u: the rank is the number of
    eigenvalues theta with E_theta e_u != 0. It is n exactly when every
    eigenvalue is simple and every E_theta e_u = x_theta x_theta[u]
    (x_theta a unit eigenvector) is nonzero. So the rank falls below n
    exactly when
    - some eigenvalue is repeated: its eigenspace, of dimension >= 2, holds
      a nonzero vector orthogonal to e_u, which vanishes at u; or
    - the eigenvector x_theta of some simple eigenvalue has x_theta[u] = 0.
    The eigenvector witness covers the first case when theta is an integer
    with a small integer eigenvector orthogonal to e_u (the odd unicyclic
    line graphs' -1). It does not cover the second: there the whole
    eigenspace is orthogonal to e_u, theta is no root of the relative
    minimal polynomial, and the CRT relation proves the rank instead."""
    if not isinstance(w, WalkMatrix):
        raise TypeError("exact_rank takes a WalkMatrix from walk_matrix")
    if w.n >= _ORDER_BOUND:
        raise ValueError(f"exact rank needs fewer than 2^21 vertices, got {w.n}")
    arcs, x = w._graph._arcs, np.zeros(w.n, dtype=np.int64)
    x[list(w.subset)] = 1
    runs = _prime_runs(arcs, x)
    first = next(runs)
    p, length, connection = first
    if length < w.n:
        roots, y = _eigenvector_candidates(arcs, x, p, connection)
        if _is_witness(arcs, x, roots, y).sum() >= w.n - length:
            return length
    relation = _krylov_relation(arcs, x, chain([first], runs))
    return w.n if relation is None else len(relation)


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


def unicyclic_no_pst_pipeline(m: int) -> UnicyclicReport:
    """Refute endpoint transfer on the odd unicyclic graph via line-graph
    controllability, cross-checked by a scan of the signless walk up to
    SCAN_T_MAX.

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

    scan = search_pst(signless_laplacian(u_graph), (end1, end2), SCAN_T_MAX)

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
