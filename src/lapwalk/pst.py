"""Perfect state transfer verification, time search, and the closure and
impossibility condition checkers.

Every transfer verdict is a PstCertificate, and only the record compares
its magnitude with a threshold. Certification and refutation use different
thresholds on purpose: ``certifies`` requires magnitude >= 1 - 1e-9, while
``refutes`` only asserts that the magnitude stays below 1 - 1e-6; after a
scan that means nothing above it was seen on a bounded horizon. Scan
refutation is evidence, not proof, and the gap keeps the two regimes from
touching: a magnitude inside it satisfies neither.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .graphs import Graph, complement, complete, cycle, empty, join, path, weak_product
from .operators import (
    Hamiltonian,
    OperatorKind,
    normalized_laplacian,
    standard_laplacian,
)
from .spectral import eigendecompose, walk, walk_sum

__all__ = [
    "PST_TOL",
    "REFUTE_THRESHOLD",
    "METHOD_VERIFIED",
    "METHOD_GRID",
    "METHOD_REFUTED",
    "PstCertificate",
    "verify_pst",
    "search_pst",
    "complement_closure_check",
    "double_cone_characterization",
    "DoubleConeResult",
    "join_necessary_condition",
    "connected_double_cone_refutation",
    "weak_product_closure_1",
    "weak_product_closure_2",
    "normalized_weak_product_walk_check",
    "WeakProductCheck",
    "cycle_pst_screen",
    "CycleScreen",
]

PST_TOL = 1e-9
REFUTE_THRESHOLD = 1.0 - 1e-6

METHOD_VERIFIED = "VerifiedAtGivenTime"
METHOD_GRID = "GridSearchRefined"
METHOD_REFUTED = "Refuted"


@dataclass(frozen=True)
class PstCertificate:
    """The walk entry U(time)[pair[1], pair[0]] as magnitude and phase, and
    the ``method`` that chose the time: the only PST answer."""

    pair: tuple[int, int]
    kind: OperatorKind
    time: float
    magnitude: float
    phase: float
    method: str

    def certifies(self, pst_tol: float = PST_TOL) -> bool:
        return self.magnitude >= 1.0 - pst_tol

    def refutes(self) -> bool:
        return self.magnitude < REFUTE_THRESHOLD

    def payload(self) -> dict:
        return {
            "pair": list(self.pair),
            "kind": self.kind.value,
            "time": self.time,
            "magnitude": self.magnitude,
            "phase": self.phase,
            "method": self.method,
        }


def verify_pst(
    h: Hamiltonian, pair: tuple[int, int], t: float, pst_tol: float = PST_TOL
) -> PstCertificate:
    """The walk entry at the given time, with method METHOD_VERIFIED when it
    certifies under ``pst_tol`` and METHOD_REFUTED otherwise."""
    dec = eigendecompose(h)
    amp = complex(dec.amplitude(pair[0], pair[1], [t])[0])
    cert = PstCertificate(tuple(pair), h.kind, float(t), abs(amp), cmath.phase(amp), METHOD_VERIFIED)
    return cert if cert.certifies(pst_tol) else replace(cert, method=METHOD_REFUTED)


SCAN_BLOCK = 2048  # grid points search_pst evaluates at once
PEAK_CAP = 400  # most grid maxima refined per search
PEAK_CUTOFF = 0.05  # grid maxima further than this below the best are not refined
REFINE_TOL = 1e-12  # bracket width at which search_pst stops bisecting a peak


def _refine_peak(values, weights, lo, hi, refine_tol):
    """Time of the magnitude maximum inside every bracket [lo[j], hi[j]].

    Where d|a|^2/dt = 2 Re(conj(a) a') falls from >= 0 at lo to <= 0 at hi,
    its sign is bisected, over all such brackets at once, until the bracket
    is at most ``refine_tol`` wide or holds no float strictly inside, and
    the midpoint is returned. Any other bracket resolves to its end of
    larger magnitude (lo on a tie)."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    a_and_da = np.column_stack([weights, -1j * values * weights])  # a and da/dt

    def amp_and_slope(ts):
        a, da = walk_sum(values, a_and_da, ts).T
        return np.abs(a), (a.conjugate() * da).real

    mag_lo, slope_lo = amp_and_slope(lo)
    mag_hi, slope_hi = amp_and_slope(hi)
    rising = (slope_lo >= 0.0) & (slope_hi <= 0.0)
    active = np.flatnonzero(rising & (hi - lo > refine_tol))
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        up = amp_and_slope(mid)[1] >= 0.0
        lo[active[up]] = mid[up]
        hi[active[~up]] = mid[~up]
        # beyond t = 8192 adjacent floats lie more than 1e-12 apart
        active = active[hi[active] - lo[active] > np.maximum(refine_tol, np.spacing(lo[active]))]
    return np.where(rising, 0.5 * (lo + hi), np.where(mag_hi > mag_lo, hi, lo))


def search_pst(
    h: Hamiltonian,
    pair: tuple[int, int],
    t_max: float,
    grid_density: int = 64,
) -> PstCertificate:
    """Best walk-entry magnitude over [0, t_max]; a candidate certificate.

    The magnitude is sampled on a uniform grid with ``grid_density`` points
    per pi/spectral-range period, ``SCAN_BLOCK`` (2048) points at a time, so
    memory does not grow with t_max. Grid point t = (start + j) * step has
    phases exp(-i start step theta) exp(-i j step theta): the second factor,
    for j = -1 .. SCAN_BLOCK, is one table per search, so a block costs one
    row of exponentials at its start, folded into the weights, and one
    contraction with the table. The last point, clamped to t_max, is off
    that lattice and evaluated directly. Grid magnitudes then differ from
    direct exponentials by rounding, at most about
    eps * t_max * max|theta| * sum|w|. Of the grid maxima (points no neighbour
    exceeds), the ``PEAK_CAP`` (400) largest, ties going to interior points
    before t = 0 and t_max, are kept unless more than ``PEAK_CUTOFF`` (0.05)
    below the largest. One bisection refines them all inside their
    neighbour brackets to ``REFINE_TOL`` (1e-12); a bracket where the
    magnitude does not rise and then fall resolves to its better end.
    Starting from t = 0 and in order of grid magnitude, a refined peak
    becomes the result when it is more than 1e-15 larger, or within 1e-15
    and earlier. The result asserts transfer only through ``certifies``.
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    dec = eigendecompose(h)
    values, weights = dec.values, dec.pair_weights(*pair)

    def certificate(t: float) -> PstCertificate:
        amp = complex(walk_sum(values, weights, [t])[0])
        return PstCertificate(tuple(pair), h.kind, float(t), abs(amp), cmath.phase(amp), METHOD_GRID)

    if dec.spectral_range == 0.0:  # the magnitude never changes
        return certificate(0.0)
    step = (math.pi / dec.spectral_range) / grid_density
    count = math.ceil((t_max + step) / step)  # grid t = i * step, as in arange(0, t_max + step, step)

    def times(index):
        return np.minimum(index * step, t_max)

    table = np.exp(-1j * np.outer(np.arange(-1, min(SCAN_BLOCK, count) + 1) * step, values))
    last_mag = abs(walk_sum(values, weights, [times(count - 1)])[0])
    peaks = np.empty(0, dtype=int)
    peak_mags = np.empty(0)
    for start in range(0, count, SCAN_BLOCK):
        index = np.arange(start - 1, min(start + SCAN_BLOCK, count) + 1)
        # einsum keeps this contraction out of BLAS: a threaded product per
        # block leaves the BLAS workers spinning between blocks
        shifted = weights * np.exp(-1j * (start * step) * values)
        mags = np.abs(np.einsum("tk,k->t", table[: len(index)], shifted))
        mags[index == count - 1] = last_mag
        mags[(index < 0) | (index == count)] = -np.inf  # outside the grid
        is_peak = (mags[1:-1] >= mags[:-2]) & (mags[1:-1] >= mags[2:])
        peaks = np.concatenate([peaks, index[1:-1][is_peak]])
        peak_mags = np.concatenate([peak_mags, mags[1:-1][is_peak]])
        top = np.lexsort((peaks, (peaks == 0) | (peaks == count - 1), -peak_mags))[:PEAK_CAP]
        top = top[peak_mags[top] >= peak_mags.max(initial=-np.inf) - PEAK_CUTOFF]
        peaks, peak_mags = peaks[top], peak_mags[top]

    lo = times(np.maximum(peaks - 1, 0))
    hi = times(np.minimum(peaks + 1, count - 1))
    refined = _refine_peak(values, weights, lo, hi, REFINE_TOL)
    best_t, best_mag = 0.0, abs(walk_sum(values, weights, [0.0])[0])
    for t, mag in zip(refined, np.abs(walk_sum(values, weights, refined))):
        if mag > best_mag + 1e-15 or (abs(mag - best_mag) <= 1e-15 and t < best_t):
            best_t, best_mag = t, mag
    return certificate(best_t)


# -- standard Laplacian closures ---------------------------------------------


CLOSURE_TOL = 1e-8  # distance from an integer allowed in the weak-product closures
INTEGER_TOL = 1e-9  # distance from an integer allowed to a value counted as one


def _near_integers(x, tol: float) -> bool:
    """Whether every entry of x lies within tol of an integer."""
    x = np.asarray(x, dtype=float)
    return bool((np.abs(x - np.round(x)) < tol).all())


def complement_closure_check(g: Graph, t: float) -> tuple[bool, float]:
    """Condition |V| t in 2 pi Z together with the max-norm deviation of
    exp(-itL(complement)) from exp(+itL(g)); the deviation is reported whether
    or not the condition holds."""
    condition = _near_integers(g.n * t / (2.0 * math.pi), INTEGER_TOL)
    u_comp = walk(standard_laplacian(complement(g)), t)
    u_back = walk(standard_laplacian(g), t).conjugate()  # exp(+itL) for real L
    deviation = float(np.abs(u_comp - u_back).max())
    return condition, deviation


def join_necessary_condition(m: int, n: int, t: float) -> bool:
    """Transfer inside a join forces t(m+n) in 2 pi Z."""
    return _near_integers(t * (m + n) / (2.0 * math.pi), INTEGER_TOL)


@dataclass(frozen=True)
class DoubleConeResult:
    """The apex-to-apex search over each base graph of order n, by label."""

    n: int
    witnesses: tuple[tuple[str, PstCertificate], ...]

    @property
    def has_pst(self) -> bool:
        """The verdict every witness agrees on."""
        return self.witnesses[0][1].certifies()


def _cone_bases(n: int) -> list[tuple[str, Graph]]:
    out = [("empty", empty(n))]
    if n >= 2:
        out.append(("complete", complete(n)))
        out.append(("path", path(n)))
    if n >= 3:
        out.append(("cycle", cycle(n)))
    return out


def double_cone_characterization(
    ns: Iterable[int], t_max: float = 50.0
) -> list[DoubleConeResult]:
    """Search for transfer between the two apexes of the double cone over
    several base graphs of each order, under the standard Laplacian. The
    verdict must agree across base graphs of the same order (it only depends
    on the order); a disagreement raises."""
    results = []
    for n in ns:
        if n < 1:
            raise ValueError("base order must be at least 1")
        witnesses = []
        for label, base in _cone_bases(n):
            g = join(empty(2), base)
            cert = search_pst(standard_laplacian(g), (0, 1), t_max)
            if not cert.certifies() and not cert.refutes():
                raise RuntimeError(
                    f"ambiguous double-cone magnitude {cert.magnitude!r} for n={n} ({label})"
                )
            witnesses.append((label, cert))
        if len({cert.certifies() for _, cert in witnesses}) != 1:
            raise RuntimeError(f"double-cone verdict depends on the base graph at n={n}")
        results.append(DoubleConeResult(n, tuple(witnesses)))
    return results


def connected_double_cone_refutation(base: Graph, t_max: float = 50.0) -> PstCertificate:
    """The best walk entry found between the two adjacent apexes of K2 + G
    under the standard Laplacian. No such cone ever reaches magnitude one;
    the scan documents the bounded-horizon evidence."""
    g = join(complete(2), base)
    return search_pst(standard_laplacian(g), (0, 1), t_max)


# -- normalized Laplacian weak products --------------------------------------


def weak_product_closure_1(spec_g: Sequence[float], spec_h: Sequence[float], t: float) -> bool:
    """True when t * mu * (lambda - 1) lies in 2 pi Z for every lambda in the
    first spectrum and mu in the second (both normalized-Laplacian spectra)."""
    angles = np.outer(t * np.asarray(spec_h, float), np.asarray(spec_g, float) - 1.0)
    return _near_integers(angles / (2.0 * math.pi), CLOSURE_TOL)


def weak_product_closure_2(spec_g: Sequence[float], spec_h: Sequence[float], t: float) -> bool:
    """True when t * lambda * mu lies in 2 pi Z for every pair of eigenvalues."""
    angles = np.outer(t * np.asarray(spec_g, float), np.asarray(spec_h, float))
    return _near_integers(angles / (2.0 * math.pi), CLOSURE_TOL)


@dataclass(frozen=True)
class WeakProductCheck:
    operator_deviation: float
    walk_deviation: float

    @property
    def max_deviation(self) -> float:
        return max(self.operator_deviation, self.walk_deviation)


def normalized_weak_product_walk_check(g: Graph, h: Graph, t: float) -> WeakProductCheck:
    """Check both halves of the weak-product story for the normalized
    Laplacian: the operator identity

        L(G x H) = L(G) (x) I + I (x) L(H) - L(G) (x) L(H)

    entrywise, and the walk formula
    sum_{k,l} exp(-it(lambda_k + mu_l - lambda_k mu_l)) E_k (x) F_l against
    the directly exponentiated product operator. The formula is evaluated on
    the eigenvector pairs, as W diag(phase) W^T with W = V_G (x) V_H."""
    lg = normalized_laplacian(g)
    lh = normalized_laplacian(h)
    prod = weak_product(g, h)
    lp = normalized_laplacian(prod)
    ng, nh = g.n, h.n
    composed = (
        np.kron(lg.matrix, np.eye(nh))
        + np.kron(np.eye(ng), lh.matrix)
        - np.kron(lg.matrix, lh.matrix)
    )
    op_dev = float(np.abs(lp.matrix - composed).max())

    dg = eigendecompose(lg)
    dh = eigendecompose(lh)
    lam = np.repeat(dg.values, dg.multiplicities)[:, None]
    mu = np.repeat(dh.values, dh.multiplicities)[None, :]
    phase = np.exp(-1j * t * (lam + mu - lam * mu)).ravel()
    w = np.kron(dg.vectors, dh.vectors)
    formula = (w * phase) @ w.T
    direct = walk(lp, t)
    walk_dev = float(np.abs(direct - formula).max())
    return WeakProductCheck(op_dev, walk_dev)


# -- path / cycle screen ------------------------------------------------------


@dataclass(frozen=True)
class CycleScreen:
    """Verdict for antipodal transfer on the even cycle standing in for the
    n-vertex path under the normalized Laplacian."""

    n: int
    cycle_order: int
    possible: bool
    reason: str  # "integer-spectrum" | "integrality" | "theorem"
    witness: float | None = None  # a non-integer eigenvalue, when that decided


def cycle_pst_screen(n: int) -> CycleScreen:
    """Integrality screen on the eigenvalues 2 cos(2 pi k / (2(n-1))) of the
    cycle C_{2(n-1)}.

    Vertex-transitive graphs need an integer spectrum for transfer, so any
    eigenvalue far from every integer refutes. C_6 (the n = 4 case) has an
    integer spectrum, where the screen alone is inconclusive; there the known
    conclusion (possible only for n in {2, 3}) is reported with reason
    "theorem" rather than re-derived.
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    order = 2 * (n - 1)
    for k in range(order):
        ev = 2.0 * math.cos(2.0 * math.pi * k / order)
        if not _near_integers(ev, INTEGER_TOL):
            return CycleScreen(n, order, False, "integrality", ev)
    if n in (2, 3):
        return CycleScreen(n, order, True, "integer-spectrum")
    return CycleScreen(n, order, False, "theorem")
