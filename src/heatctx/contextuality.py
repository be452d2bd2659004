"""Stochastic-reversibility decompositions, noncontextual bounds, critical times.

Conventions, stated once and tested: superoperators act on column-stacked
vectorized operators (vec stacks columns, so vec(A X B) = (B^T kron A) vec X);
the Choi matrix is the unnormalized one, Lambda = sum_ij |i><j| kron C(|i><j|),
with trace d for a trace-preserving map on dimension d.

Certification takes the generator H and the time t of U = e^{-itH} and never
builds U or these d^2 x d^2 maps: every verdict is decided on a d x d matrix
in the eigenbasis of H, from its eigenvalues w alone, so it holds down to
g t = 1e-8 and below. ``unitary_to_superoperator``,
``_symmetrized_conjugation``, ``choi_matrix`` and
``trace_preservation_residual`` are the reference the tests compare it with,
together with the residual channel in ``tests/conftest.py``.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DecompositionError, DimensionError, NumericsError, ParamError
from .linalg import HermitianOp, UnitaryOp, as_matrix, dagger, eig_hermitian, max_norm

CHOI_EIGENVALUE_FLOOR = -1e-9
MINIMAL_PD_TOL = 1e-9  # relative width of the minimal-p_d bracket
IDENTITY_GAP_TOL = 1e-12  # every G_ij below it: the symmetrized map is the identity


@dataclass(frozen=True)
class Superoperator:
    """A linear map on vectorized d x d operators, stored as a d^2 x d^2 matrix."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = int(self.dim)
        if m.shape != (d * d, d * d):
            raise DimensionError(
                f"superoperator for dim {d} must be {d * d}x{d * d}, got {m.shape}"
            )
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim", d)

    def apply(self, x) -> np.ndarray:
        """Apply the map to a d x d operator."""
        x = as_matrix(x)
        if x.shape != (self.dim, self.dim):
            raise DimensionError(f"operand must be {self.dim}x{self.dim}")
        return (self.matrix @ x.reshape(-1, order="F")).reshape(
            self.dim, self.dim, order="F"
        )

    @staticmethod
    def identity(dim: int) -> "Superoperator":
        return Superoperator(dim, np.eye(dim * dim, dtype=complex))


def unitary_to_superoperator(u: UnitaryOp | np.ndarray) -> Superoperator:
    """Vectorized conjugation map X -> U X U^dag."""
    um = as_matrix(u)
    return Superoperator(um.shape[0], np.kron(um.conj(), um))


def choi_matrix(s: Superoperator) -> HermitianOp:
    """Unnormalized Choi matrix: Lambda = sum_ij |i><j| kron C(|i><j|)."""
    d = s.dim
    # vec(|i><j|) is basis vector j*d + i and C(|i><j|)[a, b] is row b*d + a,
    # so Lambda[(i, a), (j, b)] = S[(b, a), (j, i)].
    lam = s.matrix.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)
    lam = (lam + dagger(lam)) / 2
    return HermitianOp(lam)


def trace_preservation_residual(s: Superoperator) -> float:
    """Max-norm deviation of Tr{C(|i><j|)} from delta_ij."""
    d = s.dim
    # S[(b, a), (j, i)] is C(|i><j|)[a, b], so the trace sums the diagonal a = b.
    t = np.einsum("aaji->ij", s.matrix.reshape(d, d, d, d))
    return max_norm(t - np.eye(d))


@dataclass(frozen=True)
class DecompositionReport:
    """Extraction at a claimed p_d: the residual channel's Choi spectrum (ascending), verdict."""

    p_d: float
    choi_eigenvalues: np.ndarray
    is_cptp: bool


def _symmetrized_conjugation(u: UnitaryOp | np.ndarray) -> Superoperator:
    """M = (1/2) S_U + (1/2) S_{U^dag}."""
    um = as_matrix(u)
    s_u = unitary_to_superoperator(um)
    s_ud = unitary_to_superoperator(dagger(um))
    return Superoperator(s_u.dim, (s_u.matrix + s_ud.matrix) / 2)


def _cptp_verdict(a: np.ndarray) -> bool:
    """Whether the channel with Schur multiplier A (``_schur_multiplier``) is CPTP.

    It preserves the trace exactly and its Choi spectrum is eig(A) plus
    zeros, so the test is eigvalsh(A).min() >= floor.
    """
    return bool(np.linalg.eigvalsh(a)[0] >= CHOI_EIGENVALUE_FLOOR)


def _eigenbasis_gaps(h_int, t: float) -> np.ndarray:
    """G_ij = 2 sin^2((w_i - w_j) t / 2) over the eigenvalues w of the generator.

    With H = V diag(w) V^dag, U = e^{-itH} has eigenvalues lambda = e^{-iwt},
    and the symmetrized map multiplies entry (i, j) of V^dag X V by
    cos((w_i - w_j) t) = 1 - G_ij. The sine form keeps the small gaps that
    1 - cos cancels, and G_ii = 0 exactly. ``h_int`` is the generator or, so
    that several verdicts share one decomposition, its ``eig_hermitian``.
    """
    if not math.isfinite(t):
        raise ParamError(f"t must be finite, got {t}")
    w, _ = h_int if isinstance(h_int, tuple) else eig_hermitian(h_int)
    return 2 * np.sin(np.subtract.outer(w, w) * (t / 2)) ** 2


def _schur_multiplier(gaps: np.ndarray, p_d: float) -> np.ndarray:
    """A = 1 - G / p_d: the residual channel C in the eigenbasis of H.

    C of M = (1 - p_d) id + p_d C multiplies entry (i, j) by A_ij, so its
    Choi spectrum is eig(A) plus d^2 - d zeros, and A_ii = 1 makes it trace
    preserving exactly. At p_d = 0 the residual channel is the identity,
    whose multiplier is all ones.
    """
    return 1 - gaps / p_d if p_d else np.ones_like(gaps)


def _decomposition_report(gaps: np.ndarray, p_d: float) -> DecompositionReport:
    """The report at p_d, read off eig(A); p_d = 0 needs every G_ij <= 1e-12 (M = id)."""
    if p_d == 0 and gaps.max() > IDENTITY_GAP_TOL:
        raise DecompositionError(
            "p_d = 0 claimed but the symmetrized map is not the identity"
        )
    eigs = np.linalg.eigvalsh(_schur_multiplier(gaps, p_d))
    spectrum = np.sort(np.concatenate([eigs, np.zeros(eigs.size * (eigs.size - 1))]))
    return DecompositionReport(
        p_d=float(p_d),
        choi_eigenvalues=spectrum,
        is_cptp=bool(spectrum[0] >= CHOI_EIGENVALUE_FLOOR),
    )


def extract_stochastic_reversibility(h_int, t: float, p_d_claimed: float) -> DecompositionReport:
    """Extract C from (1/2)U(.)U^dag + (1/2)U^dag(.)U = (1-p_d) id + p_d C, U = e^{-itH}.

    The residual is zero by construction, so the verdict rests entirely on
    whether the extracted C is CPTP, decided in the eigenbasis of H. ``h_int``
    is H or its ``eig_hermitian`` (``_eigenbasis_gaps``).
    """
    if not 0 <= p_d_claimed <= 1:
        raise ParamError(f"p_d must lie in [0, 1], got {p_d_claimed}")
    return _decomposition_report(_eigenbasis_gaps(h_int, t), p_d_claimed)


def find_minimal_pd(h_int, t: float) -> tuple[float, DecompositionReport]:
    """Smallest p_d in (0, 1] keeping the extracted channel CPTP, to ``MINIMAL_PD_TOL``.

    Useful for validating analytic p_d values; returns 0 when the symmetrized
    map is already the identity. ``h_int`` is the generator or its
    ``eig_hermitian`` (``_eigenbasis_gaps``). Each verdict is a d x d one on
    the Schur multiplier A(p_d). Its 2 x 2 principal minor on the pair with the largest
    gap has eigenvalues 1 +- (1 - G_max / p_d), so by Cauchy interlacing
    min eig(A) <= 2 - G_max / p_d, which is below -2e-9 at
    G_max / 2 (1 - ``MINIMAL_PD_TOL``), under the -1e-9 floor: the bracket
    starts at G_max / 2. A generator with two distinct eigenvalues passes
    there, with minimum sin^2(Delta t / 2) = G_max / 2 decided in one verdict.
    Otherwise the bisection, geometric, mid = sqrt(lo hi), runs on
    [G_max / 2, 1] and stops when the bracket is at most ``MINIMAL_PD_TOL``
    times its upper end wide, so p_d resolves to 1e-9 relative however small
    it is. p_d = 1 is always feasible: A(1)_ij = cos((w_i - w_j) t) is a Gram
    matrix.
    """
    gaps = _eigenbasis_gaps(h_int, t)
    g_max = gaps.max()
    if g_max <= IDENTITY_GAP_TOL:
        return 0.0, _decomposition_report(gaps, 0.0)
    lo, hi = g_max / 2, 1.0
    if _cptp_verdict(_schur_multiplier(gaps, lo)):
        return lo, _decomposition_report(gaps, lo)
    while hi - lo > MINIMAL_PD_TOL * hi:
        mid = math.sqrt(lo * hi)
        if _cptp_verdict(_schur_multiplier(gaps, mid)):
            hi = mid
        else:
            lo = mid
    return hi, _decomposition_report(gaps, hi)


@dataclass(frozen=True)
class NcBound:
    """Noncontextual bound on <Delta A>: lower <= <Delta A> <= upper."""

    a_max: float
    lower: float
    upper: float
    p_d1: float
    p_d2: float = 0.0
    alpha: float = 0.5


def nc_bound_theorem1(a_max: float, p_d: float, alpha: float) -> NcBound:
    """Single-transformation bound: -a_max p_d / alpha^2 <= <Delta A> <= p_d a_max / alpha."""
    if not a_max > 0:
        raise ParamError(f"a_max must be positive, got {a_max}")
    if not 0 <= p_d <= 1:
        raise ParamError(f"p_d must lie in [0, 1], got {p_d}")
    if not 0 < alpha <= 1:
        raise ParamError(f"alpha must lie in (0, 1], got {alpha}")
    return NcBound(
        a_max=a_max,
        lower=-a_max * p_d / alpha**2,
        upper=p_d * a_max / alpha,
        p_d1=p_d,
        p_d2=0.0,
        alpha=alpha,
    )


def sequential_b_factors(p_d1: float, p_d2: float) -> tuple[float, float]:
    """(b_minus, b_plus) of the sequential bound; b_minus >= b_plus >= 0."""
    b_minus = p_d1 + 3 * p_d2 - 3 * p_d1 * p_d2
    b_plus = p_d1 + 2 * p_d2 - 2 * p_d1 * p_d2
    return b_minus, b_plus


def nc_bound_theorem2(a_max: float, p_d1: float, p_d2: float) -> NcBound:
    """Sequential-transformation bound: -4 a_max b_minus <= <Delta A> <= 2 a_max b_plus."""
    if not a_max > 0:
        raise ParamError(f"a_max must be positive, got {a_max}")
    for name, p in (("p_d1", p_d1), ("p_d2", p_d2)):
        if not 0 <= p <= 1:
            raise ParamError(f"{name} must lie in [0, 1], got {p}")
    b_minus, b_plus = sequential_b_factors(p_d1, p_d2)
    return NcBound(
        a_max=a_max,
        lower=-4 * a_max * b_minus,
        upper=2 * a_max * b_plus,
        p_d1=p_d1,
        p_d2=p_d2,
        alpha=0.5,
    )


# Relative width at which the bisection stops refining a crossing.
CROSSING_REL_TOL = 1e-10

# The spectral form of heat - bound (see ``find_critical_times``). Its cost is
# counted in grid points of a scan, each one evaluation of heat and both bounds
# (55 ns on micadei's columns; the timings here are from a 2-vCPU Xeon).
SCAN_BUDGET_POINTS = 100_000  # micadei's grid: the search costs at most its scan
CANDIDATE_COST = 200  # bracketing and sign-testing one candidate root, 3-11 us
EIGVALS_COST = 0.3  # per n^3 of one n x n companion matrix's eigvals, 17 ns at n = 63
COMMENSURATE_TOL = 1e-13  # largest distance of frequency / w0 from an integer, per harmonic
SPECTRAL_CHECK_TOL = 1e-9  # model vs closed form, relative to twice the largest |curve|
SPECTRAL_TRIM_TOL = 1e-12  # harmonics below this, relative to the same scale, are rounding
UNIT_CIRCLE_TOL = 1e-6  # roots of the polynomial in z this close to |z| = 1 are candidates
ROOT_BRACKET = 2.0**-40  # half-width of a root's own bracket, in radians of w0 t
_GOLDEN = (math.sqrt(5) - 1) / 2  # spreads the check points over the interval


@dataclass(frozen=True)
class Crossing:
    """A refined crossing of the heat curve with a noncontextual bound."""

    time: float
    side: str  # "upper" or "lower"


def _refine_bisection(f, lo: float, hi: float, guess: float | None = None) -> float:
    """The bisection of a sign change of f on [lo, hi] to ``CROSSING_REL_TOL``.

    The bisection halves the bracket at mid = (lo + hi) / 2 until it is at most
    the tolerance times |mid| wide, for at most 200 halvings; it returns a mid
    where f is 0, and otherwise keeps the half on which f(lo) and f(mid) differ
    in sign (below 0 against not). It is replayed rather than stepped: each round
    predicts the rest of its path from a guess of the root (by default the middle
    of the bracket), evaluates f once on the array of that path's mids, with lo
    and hi in the first round, and takes every decision f's signs confirm up to
    and including the first one the prediction missed. The next round guesses
    the secant of the bracket. The same decisions taken on the same values of f
    give the bisection's bits, as f on an array has, element by element, the
    bits it has on a scalar.
    """
    lo, hi = float(lo), float(hi)
    guess = (lo + hi) / 2 if guess is None else float(guess)
    flo = fhi = None  # f at lo and hi, once the bracket is wider than the tolerance
    steps = 0
    while True:
        mids, a, b = [], lo, hi
        for _ in range(200 - steps):
            mid = (a + b) / 2
            if b - a <= CROSSING_REL_TOL * max(abs(mid), 1e-300):
                break
            mids.append(mid)
            if guess < mid:
                b = mid
            else:
                a = mid
        if not mids:
            return (lo + hi) / 2
        values = f(np.array(mids if flo is not None else [lo, hi, *mids])).tolist()
        if flo is None:
            flo, fhi, *values = values
        for mid, fm in zip(mids, values):
            steps += 1
            if fm == 0.0:
                return mid
            left = (flo < 0) != (fm < 0)
            if left:
                hi, fhi = mid, fm
            else:
                lo, flo = mid, fm
            if left != (guess < mid):
                break
        gap = fhi - flo
        guess = lo - flo * (hi - lo) / gap if gap else (lo + hi) / 2


def _opposite(a: float, b: float) -> bool:
    """A strict sign change: one value below zero, the other above."""
    return (a < 0 < b) or (b < 0 < a)


def spectral_plan(frequencies, ts: np.ndarray) -> tuple[float, int] | None:
    """(w0, K) for the spectral search on the grid ts, or None for the scan.

    Every frequency must be k w0 with 0 <= k <= K, to ``COMMENSURATE_TOL`` per
    harmonic, with the least such K. The search's cost in grid points, two
    companion matrices of size 2K - 1 and 2K candidate roots per side in each
    period 2 pi / w0 the grid touches, must fit a scan of max(n_points,
    ``SCAN_BUDGET_POINTS``) points: the spectral path never costs more than the
    scan of micadei's grid, or of the config's own when that is larger. The
    budget bounds K first, through the companion matrices alone. A w0 whose
    period 2 pi / w0 overflows a float is left to the scan.
    """
    top = max(frequencies, default=0.0)
    if not top > 0:
        return None
    budget = max(len(ts), SCAN_BUDGET_POINTS)
    k_max = int(((budget / (2 * EIGVALS_COST)) ** (1 / 3) + 1) / 2)  # 2 (2K - 1)^3 EIGVALS_COST <= budget
    ratios = [f / top for f in frequencies]
    for k in range(1, k_max + 1):
        if all(abs(r * k - round(r * k)) <= COMMENSURATE_TOL * k for r in ratios):
            w0 = top / k
            if not math.isfinite(2 * math.pi / w0):  # a subnormal w0, whose period overflows
                return None
            turns = (float(ts[-1]) - float(ts[0])) * w0 / (2 * math.pi) + 2  # periods touched, at most
            cost = 2 * EIGVALS_COST * (2 * k - 1) ** 3 + CANDIDATE_COST * 2 * (2 * k) * turns
            return (w0, k) if cost <= budget else None
    return None


def _root_phases(c: np.ndarray, scale: float) -> list[list[float]]:
    """Per row of c, the phases w0 t in [0, 2 pi) where its f may vanish.

    A row holds c_0 .. c_K of a real f = sum_k c_k e^{i k w0 t} (c_-k = conj(c_k));
    z^K f is a polynomial P(z) of degree 2K in z = e^{i w0 t}, and its roots on the
    unit circle are f's zeros. Harmonics below ``SPECTRAL_TRIM_TOL`` times scale are
    rounding and dropped. f vanishes at t = 0, so P(1) = 0: the factor z - 1 is
    divided out and its phase 0 added, rather than told from the other roots by a
    tolerance. The quotients' roots are the eigenvalues of their companion
    matrices, padded with zeros to one size and solved in one call (np.roots
    per side builds the same matrices).
    """
    firsts = []  # first rows of the companion matrices
    for row in c.tolist():
        while len(row) > 1 and abs(row[-1]) <= SPECTRAL_TRIM_TOL * scale:
            row.pop()
        p = row[:0:-1] + row[:1] + [x.conjugate() for x in row[1:]]  # c_K .. c_0 .. c_-K
        q = list(itertools.accumulate(p))[:-1]  # P(z) = (z - 1) Q(z); P(1) = f(0) = 0
        firsts.append([-x / q[0] for x in q[1:]])  # [] for a constant f, which never changes sign
    size = max(map(len, firsts))
    if size > 1:
        companions = np.zeros((len(firsts), size, size), dtype=complex)
        for m, first in zip(companions, firsts):
            m[0, : len(first)] = first
        companions[:, 1:, :-1] = np.eye(size - 1)
        z = np.linalg.eigvals(companions).tolist()
    else:
        z = firsts  # a 1 x 1 companion matrix is its own eigenvalue
    return [
        [cmath.phase(x) % (2 * math.pi) for x in row if abs(abs(x) - 1) <= UNIT_CIRCLE_TOL] + [0.0]
        for row in z
    ]


def _signed(curves: np.ndarray) -> np.ndarray:
    """(f_upper, f_lower) = (heat - upper, lower - heat) from the rows heat, upper, lower."""
    return curves[[0, 2]] - curves[[1, 0]]


def _spectral_candidates(ts, curves, w0: float, degree: int) -> list[list[float]]:
    """Sorted times in (t_min, t_max], per side, near which f_upper or f_lower may vanish.

    ``curves(t)`` is heat, upper and lower on an array t, as rows. Both sides are
    sampled at 2K + 1 points of one period 2 pi / w0; their DFT gives c_0 .. c_K.
    The model is checked against the closed forms at 2K + 3 more points spread
    over [0, max(t_max, period)], to 1e-9 of twice the largest |heat|, |upper|
    or |lower| there, so that a missing frequency raises NumericsError; so does
    an f that does not vanish at t = 0, whose root there ``_root_phases``
    divides out. The roots' phases are unrolled over the periods of the grid,
    with a margin of one root bracket at either end.
    """
    n = 2 * degree + 1
    period = 2 * math.pi / w0
    t_min, t_max = float(ts[0]), float(ts[-1])
    span = max(t_max, period)
    t = np.array([j * period / n for j in range(n)] + [m * _GOLDEN % 1.0 * span for m in range(1, n + 3)])
    sampled = curves(t)
    f, scale = _signed(sampled), 2 * float(np.abs(sampled).max())  # scale >= |heat| + |bound|
    waves = np.exp(np.multiply.outer(t, 1j * w0 * np.arange(degree + 1)))  # e^{i k w0 t}, k = 0 .. K
    c = f[:, :n] @ waves[:n].conj() / n  # the DFT: c_k = mean of f e^{-i k w0 t} over one period
    worst = np.abs(2 * (c @ waves[n:].T).real - c[:, :1].real - f[:, n:]).max()
    if not worst <= SPECTRAL_CHECK_TOL * scale:
        raise NumericsError(
            f"heat - bound is not a sum of harmonics of w0 = {w0:.17g} up to {degree}: "
            f"the model misses the closed form by {worst:.3e} (scale {scale:.3e})"
        )
    if not np.abs(f[:, 0]).max() <= SPECTRAL_CHECK_TOL * scale:
        raise NumericsError("heat - bound does not vanish at t = 0")
    margin = ROOT_BRACKET / w0
    lo, hi = max(t_min - margin, 0.0), t_max + margin
    turns = range(max(math.floor(lo / period), 0), math.floor(hi / period) + 1)
    unrolled = (((p + 2 * math.pi * k) / w0 for p in phases for k in turns) for phases in _root_phases(c, scale))
    return [sorted(r for r in times if lo < r <= hi) for times in unrolled]


def _brackets(ts: np.ndarray, roots: list[float], w0: float) -> list[tuple]:
    """(cell, alone, root, points) of each of one side's sorted candidate roots.

    cell j is the cell [t_j, t_j+1] of the grid holding the root (``np.searchsorted``),
    alone whether it holds no other root, and points lists t_j-1 .. t_j+2 (clipped
    to the grid), the root's own bracket, of half-width ``ROOT_BRACKET`` / w0, and
    its share of [t_min, t_max], up to the midpoints with its neighbours.
    """
    last, t_min, t_max = len(ts) - 1, float(ts[0]), float(ts[-1])
    cells = [min(max(j - 1, 0), last - 1) for j in np.searchsorted(ts, roots, side="right").tolist()]
    ends = [t_min] + [min(max((a + b) / 2, t_min), t_max) for a, b in zip(roots, roots[1:])] + [t_max]
    out = []
    for i, (r, j) in enumerate(zip(roots, cells)):
        alone = cells[max(i - 1, 0) : i + 2].count(j) == 1
        w = max(ROOT_BRACKET / w0, 4 * math.ulp(r))
        grid = [float(ts[min(max(k, 0), last)]) for k in range(j - 1, j + 3)]
        lo, hi = max(r - w, ends[i]), min(r + w, ends[i + 1])
        out.append((j, alone, r, [*grid, lo, hi, ends[i], ends[i + 1]]))
    return out


def _polish(f, ts: np.ndarray, brackets: list[tuple], values: list[list[float]]) -> list[float]:
    """The crossings of f at one side's candidate roots, each on a strict sign change.

    ``brackets`` come from ``_brackets`` and ``values`` holds f on their points.
    A candidate alone in its cell [t_j, t_j+1] is refined on that cell when f
    changes sign across it, so such a crossing has the bits of a scan of the
    grid; an interior grid point where f is 0 between neighbours of opposite
    sign is the crossing itself. Otherwise the candidate's own bracket is
    refined or, when f does not change sign across that, its share. No sign
    change there is no crossing (a touch). Each bisection replays its path
    from the candidate root, which on the builtins lies within the tolerance
    of the crossing, so that one evaluation of f refines it.
    """
    last = len(ts) - 1
    times = []
    for (j, alone, r, (*_, lo, hi, lo_end, hi_end)), v in zip(brackets, values):
        if alone and _opposite(v[1], v[2]):
            times.append(_refine_bisection(f, ts[j], ts[j + 1], r))
        elif alone and v[1] == 0 and j > 0 and _opposite(v[0], v[2]):
            times.append(float(ts[j]))
        elif alone and v[2] == 0 and j + 1 < last and _opposite(v[1], v[3]):
            times.append(float(ts[j + 1]))
        elif _opposite(v[4], v[5]):
            times.append(_refine_bisection(f, lo, hi, r))
        elif _opposite(v[6], v[7]):
            times.append(_refine_bisection(f, lo_end, hi_end, r))
    return sorted(set(times))


def _spectral_crossings(ts, curves, w0: float, degree: int, sides) -> list[list[float]]:
    """Crossing times per side from the spectral form, f of each side in ``sides``."""
    brackets = [_brackets(ts, roots, w0) for roots in _spectral_candidates(ts, curves, w0, degree)]
    points = [p for side in brackets for *_, p in side]
    f = _signed(curves(np.array(points).ravel())).reshape(2, len(points), 8).tolist() if points else [[], []]
    upper = len(brackets[0])  # the first rows are the upper side's
    return [
        _polish(sides[0], ts, brackets[0], f[0][:upper]),
        _polish(sides[1], ts, brackets[1], f[1][upper:]),
    ]


def _scan(ts, f_grid: np.ndarray, f) -> list[float]:
    """Crossing times of one side from its f on the grid ts.

    Each bisection replays its path from the secant of f's values at the ends
    of its cell.
    """
    s = np.sign(f_grid)
    times = []
    for j in np.flatnonzero(s[:-1] * s[1:] < 0).tolist():
        (t0, t1), (f0, f1) = ts[j : j + 2].tolist(), f_grid[j : j + 2].tolist()
        times.append(_refine_bisection(f, t0, t1, t0 - f0 * (t1 - t0) / (f1 - f0)))
    for j in np.flatnonzero(s[1:-1] == 0) + 1:
        if s[j - 1] * s[j + 1] < 0:
            times.append(float(ts[j]))
    return times


def find_critical_times(ts: np.ndarray, heat_at: Callable, bounds_at: Callable, frequencies=()) -> list[Crossing]:
    """Ordered crossing times of the heat curve with either bound in (t_min, t_max] of ts.

    A crossing is a strict sign change of f_upper = heat - upper or of
    f_lower = lower - heat, refined by bisection to relative tolerance 1e-10 on
    ``heat_at(t)`` and ``bounds_at(t) -> (upper, lower)``, which take an array t and
    have at each of its entries the bits they have at that entry alone; a touch
    without sign change, such as the common zero at t = 0, is none. An empty
    list means no crossing, which is a valid outcome.

    ``frequencies`` are the angular frequencies in t of heat and both bounds.
    Where ``spectral_plan`` gives them a (w0, K), heat and both bounds are sums
    of harmonics k w0, k <= K: the roots come from that spectral form
    (``_spectral_candidates``) and are polished on the cells of ts that hold
    them (``_polish``), so every crossing is found whatever the grid's spacing.
    Otherwise heat and both bounds are evaluated on ts and scanned: a crossing
    is a strict sign change between grid points, or an interior grid point
    exactly on the bound between neighbours of opposite sign, and a crossing
    between two points of equal sign is missed.
    """

    def curves(t):  # heat, upper and lower on an array t, as rows
        return np.array([heat_at(t), *bounds_at(t)], dtype=float)

    sides = [lambda t, i=i: _signed(curves(t))[i] for i in (0, 1)]  # f_upper, f_lower > 0: violation
    plan = spectral_plan(frequencies, ts)
    if plan:
        times = _spectral_crossings(ts, curves, *plan, sides)
    else:
        times = [_scan(ts, f_grid, f) for f_grid, f in zip(_signed(curves(ts)), sides)]
    crossings = [
        Crossing(time=float(t), side=side) for side, side_times in zip(("upper", "lower"), times) for t in side_times
    ]
    crossings.sort(key=lambda c: c.time)
    return crossings


def qutrit_critical_times_analytic(
    zeta: float, xi: float, omega_max: float, g: float
) -> tuple[float, float]:
    """Closed-form critical times for the partial-SWAP qutrit heat curve.

    tau_u solves zeta sin^2 + xi sin cos = 2 omega_max sin^2 (upper bound),
    tau_l solves the -4 omega_max lower-bound analogue; the arccot branch is
    taken in (0, pi) so both times are positive.
    """
    if xi == 0:
        raise ParamError("xi = 0: no coherent term, the critical-time formulas degenerate")
    if not g > 0:
        raise ParamError(f"g must be positive, got {g}")
    # arccot with branch in (0, pi)
    tau_u = float(np.arctan2(1.0, (2 * omega_max - zeta) / xi) / g)
    tau_l = float(np.arctan2(1.0, (-4 * omega_max - zeta) / xi) / g)
    return tau_u, tau_l
