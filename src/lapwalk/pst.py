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
from typing import Callable, Iterable, Sequence

import numpy as np

from .graphs import Graph, _order, _vertices, complement, complete, cycle, empty, join, path, weak_product
from .operators import (
    Hamiltonian,
    OperatorKind,
    normalized_laplacian,
    standard_laplacian,
)
from .partitions import (
    NotEquitableError,
    _mirror_halves,
    _pair_refinement,
    check_almost_equitable,
    check_equitable,
    quotient,
)
from .spectral import _clusters, eigendecompose, entry_sum, per_time

__all__ = [
    "PST_TOL",
    "REFUTE_THRESHOLD",
    "DOUBLE_CONE_T_MAX",
    "SCAN_T_MAX",
    "METHOD_VERIFIED",
    "METHOD_GRID",
    "METHOD_REFUTED",
    "PstCertificate",
    "walk_entries",
    "verify_pst",
    "search_pst",
    "IdentityReport",
    "complement_identity",
    "complement_closure_check",
    "double_cone_characterization",
    "DoubleConeResult",
    "join_necessary_condition",
    "join_walk_entry",
    "connected_double_cone_refutation",
    "weak_product_closure_1",
    "weak_product_identity",
    "normalized_weak_product_walk_check",
    "WeakProductCheck",
    "cycle_pst_screen",
    "CycleScreen",
    "path_cycle_correspondence",
]

PST_TOL = 1e-9
REFUTE_THRESHOLD = 1.0 - 1e-6
DOUBLE_CONE_T_MAX = 50.0  # search horizon of the double-cone apexes
SCAN_T_MAX = 200.0  # search horizon of every refutation scan

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

    def certifies(self) -> bool:
        return self.magnitude >= 1.0 - PST_TOL

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


# graph order from which a pair's spectrum is tried on its quotient, and
# then on its mirror halves: the measured break-even, where a refinement and
# its proof cost about what a dense eigh of that order does (about 0.3 ms at
# n = 64 on 2 vCPUs)
QUOTIENT_MIN = 64


def _pair_spectrum(h: Hamiltonian, pair: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The one place a pair is read from a Hamiltonian: a vertex that is not
    an integer in 0..n-1 (``graphs._vertices``) raises ValueError before any
    eigensolve, then the cluster values and the pair's weights, from one
    decomposition, or from the two halves of a mirror pair.

    A graph operator of order n >= ``QUOTIENT_MIN`` is first tried on the
    pair's equitable quotient: the coarsest equitable refinement of {u},
    {v} and the rest ({u} and the rest when u = v), given up once it passes
    floor(sqrt(n)) cells, so a failed try costs at most that many rounds
    over the arcs. When u and v are singleton cells, U(t)[v, u] is the walk
    entry between their cells in the k x k quotient (Bachman et al., QIC 12,
    2012), for each of the four kinds, so the quotient, as a CUSTOM
    Hamiltonian, is decomposed in place of the n x n operator, whose matrix
    is then never built.

    Where the refinement passes the cap and u != v, the pair is tried on
    an involutive automorphism sigma that swaps u and v, read off the
    pair's distances and proven on the edge array
    (``partitions._mirror_halves``): the operator's even and odd halves
    over sigma, of orders about n / 2 each, are decomposed in its place,
    and their spectra merged (``_merged_halves``); this is how a path's
    antipodes are read. Every other Hamiltonian is decomposed whole."""
    source, target = _vertices(h.n, pair).tolist()
    if h.kind != OperatorKind.CUSTOM and h.n >= QUOTIENT_MIN:
        p = _pair_refinement(h.graph, source, target, math.isqrt(h.n))
        if p is not None:
            dec = eigendecompose(Hamiltonian(OperatorKind.CUSTOM, quotient(p, h.kind)))
            return dec.values, dec.pair_weights(p.cell_of[source], p.cell_of[target])
        halves = _mirror_halves(h.graph, source, target, h.kind) if source != target else None
        if halves is not None:
            return _merged_halves(*halves)
    dec = eigendecompose(h)
    return dec.values, dec.pair_weights(source, target)


def _merged_halves(even, odd) -> tuple[np.ndarray, np.ndarray]:
    """The cluster values and the pair's weights from an operator's even and
    odd halves over an involution sigma that swaps the pair (see
    ``partitions._mirror_halves``), each given as (matrix, source's row).

    With s = (e_u + e_v) / sqrt 2 in the even space and a = (e_u - e_v)
    / sqrt 2 in the odd one, e_u = (s + a) / sqrt 2 and e_v = (s - a) /
    sqrt 2. U(t) keeps both spaces, which are orthogonal, so

        U(t)[v, u] = (s^T U(t) s - a^T U(t) a) / 2.

    s and a are the basis vectors at source's rows, so over the halves'
    eigenpairs (lambda, y) and (mu, z) the entry is sum (y_u^2 / 2)
    exp(-i t lambda) - sum (z_u^2 / 2) exp(-i t mu). Both spectra together
    are the operator's, and they are clustered once, by the rule of
    ``eigendecompose`` (``spectral._clusters``), the weights summed per
    cluster."""
    (plus, plus_row), (minus, minus_row) = even, odd
    d_plus = eigendecompose(Hamiltonian(OperatorKind.CUSTOM, plus))
    d_minus = eigendecompose(Hamiltonian(OperatorKind.CUSTOM, minus))
    evals = np.concatenate([d_plus.eigenvalues, d_minus.eigenvalues])
    weights = np.concatenate([0.5 * d_plus.vectors[plus_row] ** 2, -0.5 * d_minus.vectors[minus_row] ** 2])
    order = np.argsort(evals, kind="stable")
    sizes, values = _clusters(evals[order])
    return values, np.add.reduceat(weights[order], np.cumsum(sizes) - sizes)


def walk_entries(h: Hamiltonian, pair: tuple[int, int], times) -> np.ndarray:
    """U(t)[pair[1], pair[0]] at every time, exactly the identity's entry
    at t = 0, from the pair's cluster weights as ``_pair_spectrum`` checks
    and reads them: from the whole operator, the pair's equitable quotient
    or its mirror halves. Raises ValueError where rounding could move the
    magnitude across the gap between the two thresholds at the largest |t|
    (``_rounding_bound`` over the pair's support). Each entry has the bits
    its time gets alone (``entry_sum``)."""
    all_values, pair_weights = _pair_spectrum(h, pair)
    values, weights, _ = _support(all_values, pair_weights)
    _rounding_bound(values, weights, float(np.abs(times).max(initial=0.0)))
    return entry_sum(all_values, pair_weights, times, float(pair[0] == pair[1]))


def verify_pst(h: Hamiltonian, pair: tuple[int, int], t: float) -> PstCertificate:
    """The walk entry at the given time (see ``walk_entries``), with method
    METHOD_VERIFIED when it certifies and METHOD_REFUTED otherwise."""
    cert = _certificate(h, pair, t, walk_entries(h, pair, [t])[0], METHOD_VERIFIED)
    return cert if cert.certifies() else replace(cert, method=METHOD_REFUTED)


def _rounding_bound(values, weights, t) -> float:
    """How far rounding can move |sum_k w_k exp(-i t theta_k)|: about
    eps * |t| * max|theta| * sum|w|. A bound of 1 - REFUTE_THRESHOLD or more
    raises ValueError, since a magnitude that uncertain can neither certify
    nor refute."""
    theta = np.abs(values).max(initial=0.0)
    bound = float(np.finfo(float).eps * abs(t) * theta * np.abs(weights).sum())
    if not bound < 1.0 - REFUTE_THRESHOLD:
        raise ValueError(
            f"time {t!r} is too long: rounding alone could move the walk magnitude by {bound:.3g}"
        )
    return bound


def _certificate(h, pair, t, amp, method) -> PstCertificate:
    """The walk entry ``amp`` at time t as a certificate."""
    amp = complex(amp)
    return PstCertificate(tuple(pair), h.kind, float(t), abs(amp), cmath.phase(amp), method)


SCAN_CELL = 16  # grid points per cell: one coarse evaluation and its envelope
SCAN_BLOCK = 64  # grid points per block the fine pass evaluates: 4 cells
SCAN_POINTS = 1 << 16  # grid points per coarse product: 1024 blocks
PEAK_CAP = 400  # most grid maxima refined per search
PEAK_CUTOFF = 0.05  # grid maxima further than this below the best are not refined
REFINE_TOL = 1e-12  # bracket width at which search_pst stops refining a peak
SUPPORT_TOL = 1e-13  # share of sum|w| at or below which a cluster leaves the scan


def _support(values, weights):
    """The clusters whose pair weight exceeds ``SUPPORT_TOL`` of sum|w|, and
    the dropped mass sum|w| of the others: leaving them out moves the walk
    entry, and so its magnitude, by at most that mass at every time."""
    size = np.abs(weights)
    keep = size > SUPPORT_TOL * size.sum()
    return values[keep], weights[keep], float(size[~keep].sum())


def _period(values, weights, t_max, bound):
    """The period P = 2 pi / g of |sum_k w_k exp(-i t theta_k)| and its drift
    t_max * sum_k |w_k| |gamma_k - m_k|, when every gap gamma_k = theta_k -
    theta_0 lies within ``INTEGER_TOL`` of an integer m_k below 2^53 (where
    floats still tell integers apart), g = gcd(m_k) > 0, P < t_max and
    bound + drift < 1 - REFUTE_THRESHOLD; None otherwise."""
    gaps = values - values[0]
    nearest = np.round(gaps)
    off = np.abs(gaps - nearest)
    if not ((gaps < 2.0**53) & (off < INTEGER_TOL)).all():
        return None
    g = int(np.gcd.reduce(nearest.astype(np.int64)))
    drift = float(t_max * (np.abs(weights) @ off))
    if g == 0 or not (2.0 * math.pi / g < t_max and bound + drift < 1.0 - REFUTE_THRESHOLD):
        return None
    return 2.0 * math.pi / g, drift


def _amp_and_slope(values, columns, ts):
    """|a|, the slope f = Re(conj(a) a') and f' = |a'|^2 + Re(conj(a) a'')
    at every time in ts, where a(t) = sum_k w_k exp(-i t theta_k) and
    ``columns`` holds w, -i theta w and -theta^2 w; f is half of d|a|^2/dt.

    One (1 x k)(k x 3) product per time: a single (times x k) product
    rounds one row (matrix-vector) unlike several (matrix-matrix), and an
    answer would depend on which other brackets are refined with it."""
    phases = np.exp(-1j * np.outer(ts, values))[:, None, :]
    a, da, dda = np.matmul(phases, columns)[:, 0, :].T
    return np.abs(a), (a.conjugate() * da).real, (da.conjugate() * da).real + (a.conjugate() * dda).real


def _refine_peak(values, weights, lo, hi):
    """Time of the magnitude maximum inside every bracket [lo[j], hi[j]].

    Where the slope f = Re(conj(a) a'), half of d|a|^2/dt, falls from >= 0
    at lo to <= 0 at hi, a safeguarded Newton iteration (after rtsafe)
    finds its sign change, over all such brackets at once. Each step
    evaluates f and f' at one new time, which replaces lo where f >= 0 and
    hi where f < 0.
    The step is Newton's from the end with the smaller |f| when f' < 0
    there and it lands strictly inside the bracket; otherwise, and whenever
    the bracket has halved less than once per two steps so far, the
    bracket is bisected, so no bracket takes more than about twice
    bisection's steps. A Newton step moves inward from its end, and the
    iterates close in from one side; once a step is shorter than
    ``REFINE_TOL`` it is carried on past the root by max(``REFINE_TOL`` / 4,
    one float spacing), so the bracket closes from the other side too. The
    iteration stops when the bracket is at most ``REFINE_TOL`` wide or
    holds no float strictly inside, and the midpoint is returned. Any other
    bracket resolves to its end of larger magnitude (lo on a tie)."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    n = len(lo)
    columns = np.column_stack([weights, -1j * values * weights, -values * values * weights])
    mag, f, df = _amp_and_slope(values, columns, np.concatenate([lo, hi]))
    f_lo, f_hi, df_lo, df_hi = f[:n], f[n:], df[:n], df[n:]  # views, updated with the bracket
    rising = (f_lo >= 0.0) & (f_hi <= 0.0)
    start_width = hi - lo
    active = np.flatnonzero(rising & (start_width > REFINE_TOL))
    steps = 0
    while active.size:
        l, h = lo[active], hi[active]
        from_lo = np.abs(f_lo[active]) <= np.abs(f_hi[active])
        t = np.where(from_lo, l, h)
        slope = np.where(from_lo, f_lo[active], f_hi[active])
        dslope = np.where(from_lo, df_lo[active], df_hi[active])
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = t - slope / dslope
            push = np.where(from_lo, 1.0, -1.0) * np.maximum(REFINE_TOL / 4, np.spacing(np.abs(newton)))
            newton = np.where(np.abs(newton - t) < REFINE_TOL, newton + push, newton)
        # a Newton step only while the bracket has halved once per two steps:
        # after n steps it has halved at least (n - 1) / 2 times, so at worst
        # about twice bisection's steps
        on_pace = h - l <= start_width[active] * 0.5 ** (steps / 2)
        take = (dslope < 0.0) & (l < newton) & (newton < h) & on_pace
        t = np.where(take, newton, 0.5 * (l + h))
        _, slope, dslope = _amp_and_slope(values, columns, t)
        rise = slope >= 0.0
        up, down = active[rise], active[~rise]
        lo[up], f_lo[up], df_lo[up] = t[rise], slope[rise], dslope[rise]
        hi[down], f_hi[down], df_hi[down] = t[~rise], slope[~rise], dslope[~rise]
        steps += 1
        # beyond t = 8192 adjacent floats lie more than 1e-12 apart
        active = active[hi[active] - lo[active] > np.maximum(REFINE_TOL, np.spacing(lo[active]))]
    return np.where(rising, 0.5 * (lo + hi), np.where(mag[n:] > mag[:n], hi, lo))


def _lattice(phi, step, n):
    """exp(-i j step phi_k) for j = 0 .. n - 1 (n >= 1) as two short tables
    whose products give every row: row j is coarse[j // f] * fine[j % f],
    with f = 2^floor(L/2), L the bit length of n, within a factor sqrt 2 of
    sqrt(n). They take ceil(n / f) + f rows of exponentials, not n.

    coarse[a] = exp(-i (a f step) phi) and fine[b] = exp(-i (b step) phi),
    each from its own rounded argument. The two arguments round by about
    eps (a f + b) step |phi| <= eps n step max|phi| together, as much as
    the direct argument j step phi rounds, and the two exponentials and
    their product add a few eps: a product differs from np.exp of the
    direct argument by at most 2 eps (n step max|phi| + 4)."""
    f = 1 << (n.bit_length() // 2)
    coarse = np.exp(-1j * np.outer(np.arange(-(-n // f)) * (f * step), phi))
    fine = np.exp(-1j * np.outer(np.arange(f) * step, phi))
    return coarse, fine


def _envelope(b, db, phi, weights, h):
    """|b(t_c)| + |b'(t_c)| h + M2 h^2 / 2, M2 = sum_k |w_k| phi_k^2, for b
    and b' at every centre t_c: a bound on |b(t)| for |t - t_c| <= h, where
    b(t) = sum_k w_k exp(-i t phi_k) (see ``_grid_peaks``)."""
    return np.abs(b) + np.abs(db) * h + 0.5 * (np.abs(weights) @ phi**2) * h * h


def _grid_peaks(values, weights, step, count, t_max):
    """Grid indices of the maxima of |a(t)|, a(t) = sum_k w_k exp(-i t
    theta_k), on the grid t = i * step, i < count (count >= 2), the last
    point clamped to t_max: at most ``PEAK_CAP`` of them, none more than
    ``PEAK_CUTOFF`` below the largest. The cap keeps first the maxima within
    ``margin`` (below) of the largest, by index, then the others by
    magnitude, interior points before the two ends within each rank: where
    more maxima than the cap are equal up to rounding, the earliest stay.

    Two levels. Cell j is the C = ``SCAN_CELL`` grid points j C .. j C + C
    - 1, and its centre is the grid point j C + C // 2, at time t_c; every
    point of the cell lies within h = (C // 2) step of t_c. With c the
    middle of the support and phi_k = theta_k - c, the shifted entry
    b(t) = exp(i t c) a(t) = sum_k w_k exp(-i t phi_k) has |b| = |a|, and
    |b''| <= M2 = sum_k |w_k| phi_k^2 at every t, so Taylor's theorem with
    integral remainder bounds the whole cell by its envelope

        |a(t)| <= |b(t_c)| + |b'(t_c)| h + M2 h^2 / 2   for |t - t_c| <= h.

    The coarse pass evaluates b and b' at the centres of up to
    ``SCAN_POINTS`` / C cells at a time, as one product of short tables
    (``_lattice``) with a row of weights per coarse product, so memory does
    not grow with count. L is the largest coarse |b| seen so far at a
    centre that is a grid point (index < count - 1: the last point is
    clamped, off the lattice). A cell is kept where its envelope plus
    ``margin`` reaches L - ``PEAK_CUTOFF``, and so is the cell of the last
    point, which the clamp can put a step outside the cell's lattice span.
    The fine pass evaluates every block of ``SCAN_BLOCK`` points (whole
    cells) that holds a kept cell, at its points and one neighbour on
    either side: one product of a fine table with the block's row
    w_k exp(-i t phi_k) at its first centre, itself one product of two
    coarse-pass rows. Where most cells are kept, as when the magnitude
    stays small, blocks of several cells cost fewer rows and less memory
    than one row per cell. The last point itself is evaluated directly,
    after t = 0 (count >= 2), so the start ``entry_sum`` answers at t = 0
    is never read.

    A cell that is not kept holds no maximum the cutoff keeps. Let r =
    eps * sum|w| (1 + h max|phi|)^2 (T max|theta| + k + 8), with k clusters
    and T = (count + ``SCAN_BLOCK``) step past every time evaluated. By
    ``_lattice``'s bound, every computed |b| (coarse or fine) is within r
    of its exact value, and a computed envelope within 2r of its exact
    value. L came from a grid point, so the largest computed grid
    magnitude G is at least L - 2r, and a computed point of a cell not
    kept is at most its envelope + 3r < L - PEAK_CUTOFF - margin + 3r <=
    G - PEAK_CUTOFF + 5r - margin, below G - PEAK_CUTOFF for margin = 8r.
    So the maxima kept, their order and their brackets are those of
    evaluating every point, up to rounding; margin is a small multiple of
    ``search_pst``'s rounding bound."""
    cell = SCAN_CELL
    half = cell // 2  # the centre's offset in its cell, and h in steps
    group = max(SCAN_BLOCK // cell, 1)  # cells per block
    block = group * cell
    per = max(SCAN_POINTS // block, 1) * group  # cells per coarse product
    cells = -(-count // block) * group  # whole blocks, past the grid's end
    last = count - 1
    phi = values - 0.5 * (values[0] + values[-1])
    h_phi = half * step * np.abs(phi).max()
    reach = (count + block) * step * np.abs(values).max() + len(values) + 8
    margin = 8 * np.finfo(float).eps * np.abs(weights).sum() * (1 + h_phi) ** 2 * reach
    coarse, fine = _lattice(phi, cell * step, min(per, cells))
    f = len(fine)
    slope = -1j * phi
    table = np.exp(-1j * np.outer(np.arange(-half - 1, block - half + 1) * step, phi))
    last_mag = abs(entry_sum(values, weights, [min(last * step, t_max)], 0.0)[0])
    lower = -np.inf
    peaks = np.empty(0, dtype=int)
    peak_mags = np.empty(0)
    for first in range(0, cells, per):
        n = min(per, cells - first)
        shifted = coarse[: -(-n // f)] * (weights * np.exp(-1j * ((first * cell + half) * step) * phi))
        b, db = (np.concatenate([shifted, shifted * slope]) @ fine.T).reshape(2, -1)[:, :n]
        starts = (first + np.arange(n)) * cell
        lower = max(lower, np.abs(b)[starts + half < last].max(initial=-np.inf))
        keep = _envelope(b, db, phi, weights, half * step) + margin >= lower - PEAK_CUTOFF
        keep[starts == last - last % cell] = True
        kept = np.flatnonzero(keep.reshape(-1, group).any(axis=1)) * group  # first cells
        rows = shifted[kept // f] * fine[kept % f]
        mags = np.abs(rows @ table.T)
        index = starts[kept][:, None] + np.arange(-1, block + 1)
        mags[index == last] = last_mag
        mags[(index < 0) | (index > last)] = -np.inf
        mid, index = mags[:, 1:-1], index[:, 1:-1]
        is_peak = (mid >= mags[:, :-2]) & (mid >= mags[:, 2:]) & (index <= last)
        peaks = np.concatenate([peaks, index[is_peak]])
        peak_mags = np.concatenate([peak_mags, mid[is_peak]])
        # the cutoff only tightens as the largest grows: filtering once per
        # coarse product keeps what filtering at the end would
        best = peak_mags.max(initial=-np.inf)
        near = peak_mags >= best - PEAK_CUTOFF
        peaks, peak_mags = peaks[near], peak_mags[near]
        rank = np.where(peak_mags >= best - margin, -np.inf, -peak_mags)
        top = np.lexsort((peaks, (peaks == 0) | (peaks == last), rank))[:PEAK_CAP]
        peaks, peak_mags = peaks[top], peak_mags[top]
    return peaks


def search_pst(
    h: Hamiltonian,
    pair: tuple[int, int],
    t_max: float,
    grid_density: int = 64,
) -> PstCertificate:
    """Best walk-entry magnitude over [0, t_max]; a candidate certificate.

    The walk entry is sum_k w_k exp(-i t theta_k) over the eigenvalue
    clusters theta_k with pair weights w_k, read once by ``_pair_spectrum``
    as ``walk_entries`` reads them: a vertex outside 0..n-1 raises
    ValueError before any eigensolve, and a graph operator of order n >=
    ``QUOTIENT_MIN`` whose pair refines to at most floor(sqrt(n)) equitable
    cells is read from that k x k quotient, and one whose pair an
    involutive automorphism swaps from the operator's two halves over it;
    neither builds the n x n matrix. The scan reads only the pair's
    support, the clusters with |w_k| > ``SUPPORT_TOL`` (1e-13) * sum|w|;
    the others move any magnitude by at most their dropped mass sum|w_k|.
    The magnitude is sampled on a uniform grid with ``grid_density`` points
    per pi/(range of the support), in two levels (see ``_grid_peaks``). A
    coarse pass evaluates the entry and its derivative at the centre of
    every cell of ``SCAN_CELL`` (16) grid points, ``SCAN_POINTS`` (2^16)
    points per product, and bounds the whole cell by Taylor's theorem. Only
    the blocks of ``SCAN_BLOCK`` (64) points that hold a cell whose bound
    reaches the largest magnitude seen so far minus ``PEAK_CUTOFF`` are
    evaluated point by point; the other cells hold no grid maximum the
    cutoff would keep. Grid magnitudes differ from direct exponentials by
    rounding, a small multiple of eps * t_max * max|theta| * sum|w| over
    the support; a horizon where that bound reaches 1 -
    ``REFUTE_THRESHOLD`` raises ValueError.

    An integral support is scanned over one period only. When every gap
    gamma_k = theta_k - theta_0 lies within ``INTEGER_TOL`` of an integer
    m_k and g = gcd(m_k) > 0, the grid stops at P = 2 pi / g if P < t_max.
    For t = s + jP <= t_max with s in [0, P], exp(-i m_k jP) = 1, so
    |a(t)| = |sum_k w_k exp(-i gamma_k s) exp(-i (gamma_k - m_k) jP)|, and
    |exp(-i x) - 1| <= |x| gives ||a(t)| - |a(s)|| <= drift =
    t_max * sum_k |w_k| |gamma_k - m_k|: every magnitude on the horizon is
    within the drift of one at an earlier time in the first period. The
    drift joins the tie bound below. The cap applies only while the
    rounding bound plus the drift stays below 1 - ``REFUTE_THRESHOLD``, and
    not when every gap rounds to 0 or a gap reaches 2^53; otherwise, and
    for every other support, the grid runs to t_max.

    Of the grid maxima (points no neighbour exceeds), those more than
    ``PEAK_CUTOFF`` (0.05) below the largest are dropped, and at most
    ``PEAK_CAP`` (400) are kept: first the ones within rounding of the
    largest, earliest first, then the others by magnitude, interior points
    before t = 0 and the grid's end within each rank. They
    are refined together inside their neighbour brackets by a safeguarded
    Newton iteration on the sign of d|a|^2/dt (``_refine_peak``): Newton's
    step where it lands inside the bracket, a bisection where it does not or
    where the bracket falls behind one halving per two steps, and a push past
    the root once the steps are shorter than ``REFINE_TOL`` (1e-12), until
    the bracket is at most that wide or holds no float strictly inside; a
    bracket where the magnitude does not rise and then fall resolves to its
    better end. The result is the earliest of t = 0 and the refined peaks
    whose magnitude is at least the largest minus the tie bound: the
    rounding bound at t_max plus the dropped mass (plus the drift when the
    period caps the grid). Each candidate's magnitude is read on the support
    with the bits its time gets alone (``entry_sum``), and t = 0's is exactly
    the identity's entry. Every candidate is compared with the largest, so
    a run of near-equal peaks cannot lead the pick down tie by tie. The
    certificate at the chosen time is evaluated on all weights, and it
    asserts transfer only through ``certifies``.
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    all_values, pair_weights = _pair_spectrum(h, pair)
    values, weights, dropped = _support(all_values, pair_weights)
    start = float(pair[0] == pair[1])

    def certificate(t):
        return _certificate(h, pair, t, entry_sum(all_values, pair_weights, [t], start)[0], METHOD_GRID)

    if len(values) < 2:  # the magnitude changes by at most the dropped mass
        return certificate(0.0)
    rounding = _rounding_bound(values, weights, t_max)
    horizon, drift = _period(values, weights, t_max, rounding) or (t_max, 0.0)
    tie = rounding + drift + dropped
    step = (math.pi / float(values[-1] - values[0])) / grid_density
    count = math.ceil((horizon + step) / step)  # grid t = i * step, as in arange(0, horizon + step, step)
    peaks = _grid_peaks(values, weights, step, count, horizon)

    def times(index):
        return np.minimum(index * step, horizon)

    lo = times(np.maximum(peaks - 1, 0))
    hi = times(np.minimum(peaks + 1, count - 1))
    refined = _refine_peak(values, weights, lo, hi)
    candidates = np.concatenate([[0.0], refined])
    mags = np.abs(entry_sum(values, weights, candidates, start))
    return certificate(candidates[mags >= mags.max() - tie].min())


# -- standard Laplacian closures ---------------------------------------------


INTEGER_TOL = 1e-9  # distance from an integer allowed to a value counted as one


def _near_integers(x) -> bool:
    """Whether every entry of x lies within INTEGER_TOL of an integer."""
    x = np.asarray(x, dtype=float)
    return bool((np.abs(x - np.round(x)) < INTEGER_TOL).all())


@dataclass(frozen=True)
class IdentityReport:
    """The operator identities an exact check proved, in the order it
    checks them, and the first that failed (None when all hold). A check
    stops at its first failure, so ``checked`` then ends with ``failed``."""

    checked: tuple[str, ...]
    failed: str | None = None

    @property
    def holds(self) -> bool:
        return self.failed is None

    def __str__(self) -> str:
        return f"holds: {'; '.join(self.checked)}" if self.holds else f"fails: {self.failed}"


def _identities(checks: Iterable[tuple[str, Callable[[], bool]]]) -> IdentityReport:
    """Each (name, test) in order, up to the first test that returns False."""
    names = []
    for name, test in checks:
        names.append(name)
        if not test():
            return IdentityReport(tuple(names), name)
    return IdentityReport(tuple(names))


def complement_identity(g: Graph, h: Graph) -> IdentityReport:
    """Whether h is the complement of g: A(G) + A(H) = J - I, checked on
    the edge arrays in int64. Both graphs are simple, so every edge of
    either is a pair u < v; the identity holds exactly when both have n
    vertices, their edge sets are disjoint, and they hold n(n - 1)/2 edges
    together, all the pairs there are.

    The walk consequence, at every t, for the standard Laplacian. Row sums
    of the identity give d_G + d_H = n - 1 at every vertex, so L(G) + L(H)
    = nI - J. L(G) 1 = 0 and L(G) is symmetric, so L(G) J = J L(G) = 0,
    the three terms of L(H) = nI - J - L(G) commute, and

        U_H(t) = e^{-int} e^{itJ} e^{itL(G)},   e^{itJ} = I + (e^{int} - 1) J/n.

    e^{itL(G)} J = J, and e^{itL(G)} = conj U_G(t) since L(G) is real, so

        U_H(t) = e^{-int} conj U_G(t) + (1 - e^{-int}) J/n.

    Where nt lies in 2 pi Z this is U_H(t) = conj U_G(t): the complement
    closure that ``complement_closure_check`` samples at given times."""
    n = g.n

    def partition_the_pairs() -> bool:
        if h.n != n or g.edge_count + h.edge_count != n * (n - 1) // 2:
            return False
        # u n + v < n^2, and n(n - 1)/2 edges are held in arrays, so int64 holds it
        keys = np.concatenate([g.ends[:, 0] * n + g.ends[:, 1], h.ends[:, 0] * n + h.ends[:, 1]])
        keys.sort(kind="stable")  # two sorted runs: one merge
        return not (keys[1:] == keys[:-1]).any()

    return _identities([("A(G) + A(H) = J - I", partition_the_pairs)])


def complement_closure_check(
    g: Graph, times: float | Sequence[float]
) -> tuple[bool, float] | list[tuple[bool, float]]:
    """Condition |V| t in 2 pi Z together with the max-norm deviation of
    exp(-itL(complement)) from exp(+itL(g)), at each time (see
    ``spectral.per_time``); the deviation is reported whether or not the
    condition holds. Both Laplacians are decomposed once per call."""
    d_comp = eigendecompose(standard_laplacian(complement(g)))
    d_back = eigendecompose(standard_laplacian(g))

    def check(t: float) -> tuple[bool, float]:
        condition = _near_integers(g.n * t / (2.0 * math.pi))
        u_back = d_back.matrix_at(t).conjugate()  # exp(+itL) for real L
        return condition, float(np.abs(d_comp.matrix_at(t) - u_back).max())

    return per_time(times, check)


def join_necessary_condition(m: int, n: int, t: float) -> bool:
    """Transfer inside a join of an m- and an n-vertex graph forces t(m+n)
    in 2 pi Z. A count that is not an integer in 0 .. 2^62 - 1 raises
    ValueError (``graphs._order``)."""
    m, n = _order(m, "m"), _order(n, "n")
    return _near_integers(t * (m + n) / (2.0 * math.pi))


def join_walk_entry(h_g: Hamiltonian, n: int, pair: tuple[int, int], t: float) -> complex:
    """Walk entry inside the m-vertex factor G of a join with an n-vertex
    graph, relative to the standard Laplacian:

        e^{-itn} <u|e^{-itL(G)}|v> + (e^{-it(m+n)} - e^{-itn})/m
                                   + (1 - e^{-it(m+n)})/(m+n).

    ``h_g`` is L(G) alone, so m is its order, and the factor's entry is read
    through ``walk_entries``: a vertex of ``pair`` outside 0..m-1, a time
    too long for the factor's entry, or an n that is not an integer in
    0 .. 2^62 - 1 (``graphs._order``) raises ValueError.
    """
    m, n = h_g.n, _order(n, "n")
    inner = complex(walk_entries(h_g, pair, [t])[0])
    e_n = cmath.exp(-1j * t * n)
    e_mn = cmath.exp(-1j * t * (m + n))
    return e_n * inner + (e_mn - e_n) / m + (1.0 - e_mn) / (m + n)


@dataclass(frozen=True)
class DoubleConeResult:
    """The apex-to-apex search over the double cones of base order n: the
    labels of the bases whose cones were proven to share one apex quotient,
    and the certificate of that quotient's search."""

    n: int
    bases: tuple[str, ...]
    certificate: PstCertificate

    @property
    def has_pst(self) -> bool:
        return self.certificate.certifies()


def _cone_bases(n: int) -> list[tuple[str, Graph]]:
    out = [("empty", empty(n))]
    if n >= 2:
        out.append(("complete", complete(n)))
        out.append(("path", path(n)))
    if n >= 3:
        out.append(("cycle", cycle(n)))
    return out


def _apex_quotient(g: Graph) -> Hamiltonian:
    """The standard-Laplacian walk between apexes 0 and 1 of a cone g, as a
    CUSTOM Hamiltonian: the quotient of the partition {0}, {1} and the rest
    ({0}, {1} when there is no rest), once ``check_almost_equitable`` has
    proven it; a vertex that breaks the counts raises
    NotAlmostEquitableError naming it.

    The lift. Let S be the 0/1 cell matrix and d[j, k] the checked count
    of neighbours a vertex of cell j has in cell k (j != k). For u in cell j,
    (L S)[u, k] = -d[j, k] when k != j, and (L S)[u, j] = deg(u) - (the
    neighbours of u in cell j) = sum_{k != j} d[j, k]: the count inside a
    cell cancels, so L S = S B_d, with B_d[j, k] = -d[j, k] off the diagonal
    and B_d[j, j] = sum_{k != j} d[j, k]. With P = S diag(|C|)^{-1/2}, L P =
    P B for B = diag(|C|)^{1/2} B_d diag(|C|)^{-1/2}, which is the symmetric
    ``quotient`` since |C_j| d[j, k] = |C_k| d[k, j]; so e^{-itL} P = P
    e^{-itB}. Cells 0 and 1 are the singletons {0} and {1}, so column 0 of
    P is e_0 and row 1 of P is e_1^T, and

        e^{-itL}[1, 0] = e_1^T e^{-itL} P e_0 = e_1^T P e^{-itB} e_0 = e^{-itB}[1, 0].

    Both apexes see every base vertex. In the double cone K2-bar + G over m
    base vertices B = [[m, 0, -sqrt m], [0, m, -sqrt m], [-sqrt m, -sqrt m,
    2]], in the connected cone K2 + G B = [[m + 1, -1, -sqrt m], [-1, m +
    1, -sqrt m], [-sqrt m, -sqrt m, 2]]: whatever the base's own edges."""
    cells = [(0,), (1,), range(2, g.n)] if g.n > 2 else [(0,), (1,)]
    p = check_almost_equitable(g, cells)
    return Hamiltonian(OperatorKind.CUSTOM, quotient(p, OperatorKind.STANDARD))


def _apex_search(h: Hamiltonian, t_max: float) -> PstCertificate:
    """``search_pst`` between the apexes of a cone's ``_apex_quotient``, as
    the certificate of the cone's own standard Laplacian, whose apex entry
    it is."""
    return replace(search_pst(h, (0, 1), t_max), kind=OperatorKind.STANDARD)


def double_cone_characterization(ns: Iterable[int]) -> list[DoubleConeResult]:
    """Search for transfer between the two apexes of the double cone over
    base graphs of each order, under the standard Laplacian, up to
    DOUBLE_CONE_T_MAX. Every base's cone is proven to have the apex quotient
    of its order (``_apex_quotient``), so one search of that 3 x 3 quotient
    answers for all of them; a base whose quotient differs raises
    RuntimeError. Every order is checked before the first search."""
    ns = list(ns)
    if min(ns, default=1) < 1:
        raise ValueError("base order must be at least 1")
    results = []
    for n in ns:
        labels, bases = zip(*_cone_bases(n))
        quotients = [_apex_quotient(join(empty(2), base)) for base in bases]
        for label, h in zip(labels, quotients):
            if not np.array_equal(h.matrix, quotients[0].matrix):
                raise RuntimeError(f"double-cone apex quotient over the {label} base differs at n={n}")
        cert = _apex_search(quotients[0], DOUBLE_CONE_T_MAX)
        if not cert.certifies() and not cert.refutes():
            raise RuntimeError(f"ambiguous double-cone magnitude {cert.magnitude!r} for n={n}")
        results.append(DoubleConeResult(n, labels, cert))
    return results


def connected_double_cone_refutation(base: Graph) -> PstCertificate:
    """The best walk entry found between the two adjacent apexes of K2 + G
    under the standard Laplacian, up to SCAN_T_MAX, read from the cone's
    apex quotient (``_apex_quotient``). Over a base of m >= 1 vertices the
    entry is (1 - e^{-it(m+2)})/(m + 2), so it never passes 2/(m + 2); at
    m = 0 the cone is K2, which transfers at pi/2. The scan documents the
    bounded-horizon evidence."""
    return _apex_search(_apex_quotient(join(complete(2), base)), SCAN_T_MAX)


# -- normalized Laplacian weak products --------------------------------------


def weak_product_closure_1(spec_g: Sequence[float], spec_h: Sequence[float], t: float) -> bool:
    """True when t * mu * (lambda - 1) lies in 2 pi Z for every lambda in the
    first spectrum and mu in the second (both normalized-Laplacian spectra)."""
    angles = np.outer(t * np.asarray(spec_h, float), np.asarray(spec_g, float) - 1.0)
    return _near_integers(angles / (2.0 * math.pi))


def weak_product_identity(g: Graph, h: Graph, product: Graph) -> IdentityReport:
    """Whether ``product`` is the weak product G x H under (a, b) ->
    a |V(H)| + b: A(G x H) = A(G) (x) A(H), checked on the arc arrays in
    int64. Entry ((a, b), (a', b')) of A(G) (x) A(H) is A(G)[a, a']
    A(H)[b, b'], so the arcs of the Kronecker product are exactly the
    pairs of an arc a -> a' of G and an arc b -> b' of H, as (a, b) ->
    (a', b'); those whose tail is below their head, sorted, must be the
    product's edge rows. Every index is below |V(G)| |V(H)| = |V(G x H)|,
    which the integer gate keeps below 2^62.

    The walk consequence, for the normalized Laplacian N where neither
    factor has an isolated vertex. Row sums of a Kronecker product
    multiply, so d_(a,b) = d_a d_b, D(G x H) = D(G) (x) D(H), and the
    normalized adjacency D^{-1/2} A D^{-1/2} = I - N factors:

        N(G x H) = I - (I - N_G) (x) (I - N_H) = N_G (x) I + I (x) N_H - N_G (x) N_H.

    With N_G = sum_l l E_l and N_H = sum_m m F_m over their spectral
    projectors, N(G x H) = sum (l + m - l m) E_l (x) F_m, so

        U_{G x H}(t) = sum_{l, m} e^{-it(l + m - l m)} E_l (x) F_m,

    the walk formula ``normalized_weak_product_walk_check`` samples."""

    def kronecker_arcs() -> bool:
        if product.n != g.n * h.n or product.edge_count != 2 * g.edge_count * h.edge_count:
            return False
        (g_tails, g_heads), (h_tails, h_heads) = g._arcs, h._arcs
        tails = (g_tails[:, None] * h.n + h_tails).ravel()
        heads = (g_heads[:, None] * h.n + h_heads).ravel()
        rows = np.stack([tails, heads], axis=1)[tails < heads]
        return np.array_equal(rows[np.lexsort((rows[:, 1], rows[:, 0]))], product.ends)

    return _identities([("A(G x H) = A(G) (x) A(H)", kronecker_arcs)])


@dataclass(frozen=True)
class WeakProductCheck:
    operator_deviation: float
    walk_deviation: float

    @property
    def max_deviation(self) -> float:
        return max(self.operator_deviation, self.walk_deviation)


def normalized_weak_product_walk_check(
    g: Graph, h: Graph, times: float | Sequence[float]
) -> WeakProductCheck | list[WeakProductCheck]:
    """Check both halves of the weak-product story for the normalized
    Laplacian: the operator identity

        L(G x H) = L(G) (x) I + I (x) L(H) - L(G) (x) L(H)

    entrywise, and the walk formula
    sum_{k,l} exp(-it(lambda_k + mu_l - lambda_k mu_l)) E_k (x) F_l against
    the directly exponentiated product operator, at each time (see
    ``spectral.per_time``). The formula is evaluated on the eigenvector
    pairs, as W diag(phase) W^T with W = V_G (x) V_H. The three operators
    are each decomposed once per call, and the operator deviation and W are
    computed once."""
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
    dp = eigendecompose(lp)
    lam = np.repeat(dg.values, dg.multiplicities)[:, None]
    mu = np.repeat(dh.values, dh.multiplicities)[None, :]
    exponent = (lam + mu - lam * mu).ravel()
    w = np.kron(dg.vectors, dh.vectors)

    def check(t: float) -> WeakProductCheck:
        formula = (w * np.exp(-1j * t * exponent)) @ w.T
        walk_dev = float(np.abs(dp.matrix_at(t) - formula).max())
        return WeakProductCheck(op_dev, walk_dev)

    return per_time(times, check)


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
    n = _order(n, "n")
    if n < 2:
        raise ValueError("needs n >= 2")
    order = 2 * (n - 1)
    for k in range(order):
        ev = 2.0 * math.cos(2.0 * math.pi * k / order)
        if not _near_integers(ev):
            return CycleScreen(n, order, False, "integrality", ev)
    if n in (2, 3):
        return CycleScreen(n, order, True, "integer-spectrum")
    return CycleScreen(n, order, False, "theorem")


# -- path / even-cycle correspondence ----------------------------------------


def path_cycle_correspondence(n: int) -> IdentityReport:
    """The identities behind the path/even-cycle correspondence for P_n,
    m = n - 1 (Bachman et al., QIC 12, 2012), checked in int64:

    - the folding partition {0}, {k, 2m - k} (0 < k < m), {m} of C_2m is
      equitable (``check_equitable``), with count matrix B, cell j standing
      for vertex j of P_n;
    - diag(deg P_n) B = 2 A(P_n), read over the arcs of P_n: B has one
      nonzero entry per arc i -> j, and deg(i) B[i, j] = 2 on each.

    n = 2 degenerates (C_2 is not simple), and the count matrix [[0, 2],
    [2, 0]] of its doubled edge stands in for B, with only the second
    identity to check.

    The walk consequence, at every t. The partition is equitable, so
    A(C_2m) S = S B for its 0/1 cell matrix S, hence e^{isA(C)} S =
    S e^{isB}; column 0 of S is e_0 and row m is e_m^T, so e^{isA(C)}[m, 0]
    = e^{isB}[m, 0]. With D = diag(deg P_n), D B = 2A gives
    D^{-1/2} A D^{-1/2} = D^{1/2} (B/2) D^{-1/2}, so N(P_n) = D^{1/2}
    (I - B/2) D^{-1/2} and e^{-itN} = e^{-it} D^{1/2} e^{i(t/2)B} D^{-1/2}.
    The ends have degree 1, and A(C) is real, so

        e^{-itN(P_n)}[n - 1, 0] = e^{-it} conj(e^{-i(t/2)A(C_2m)}[m, 0]),

    and |e^{-itN(P_n)}[n - 1, 0]| = |e^{-i(t/2)A(C_2m)}[m, 0]|: time
    dilates by a factor of two between the two walks."""
    n = _order(n, "n")
    if n < 2:
        raise ValueError("needs a path on at least two vertices")
    m = n - 1
    return _path_cycle_identities(n, [(0,)] + [(k, 2 * m - k) for k in range(1, m)] + [(m,)])


def _path_cycle_identities(n: int, cells) -> IdentityReport:
    """``path_cycle_correspondence`` on the given cells of C_2(n-1), n >= 2;
    they are not read at n = 2."""
    m = n - 1
    checked = ()
    counts = np.array([[0, 2], [2, 0]])  # C_2's doubled edge, counted from each end
    if m > 1:
        checked = (f"folding partition of C_{2 * m} is equitable",)
        try:
            counts = check_equitable(cycle(2 * m), cells).degree_counts.astype(np.int64)
        except NotEquitableError:
            return IdentityReport(checked, checked[0])
    tails, heads = path(n)._arcs
    degree = np.bincount(tails, minlength=n)
    doubled = (
        counts.shape == (n, n)
        and np.count_nonzero(counts) == len(tails)
        and bool((degree[tails] * counts[tails, heads] == 2).all())
    )
    name = "diag(deg P_n) B = 2 A(P_n)"
    return IdentityReport(checked + (name,), None if doubled else name)
