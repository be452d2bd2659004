"""Stochastic-reversibility decompositions, noncontextual bounds, critical times.

Conventions, stated once and tested: superoperators act on column-stacked
vectorized operators (vec stacks columns, so vec(A X B) = (B^T kron A) vec X);
the Choi matrix is the unnormalized one, Lambda = sum_ij |i><j| kron C(|i><j|),
with trace d for a trace-preserving map on dimension d.

Certification takes the generator H and the time t of U = e^{-itH} and never
builds U or these d^2 x d^2 maps: every verdict is decided on a d x d matrix
in the eigenbasis of H, from its eigenvalues w alone, so it holds down to
g t = 1e-8 and below. ``unitary_to_superoperator``,
``_symmetrized_conjugation``, ``_residual_channel``, ``choi_matrix`` and
``trace_preservation_residual`` are the reference the tests compare it with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DecompositionError, DimensionError, ParamError
from .linalg import HermitianOp, UnitaryOp, as_matrix, dagger, eig_hermitian, max_norm

CHOI_EIGENVALUE_FLOOR = -1e-9
TRACE_PRESERVATION_TOL = 1e-9
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
    1 - cos cancels, and G_ii = 0 exactly.
    """
    if not math.isfinite(t):
        raise ParamError(f"t must be finite, got {t}")
    w, _ = eig_hermitian(h_int)
    return 2 * np.sin(np.subtract.outer(w, w) * (t / 2)) ** 2


def _schur_multiplier(gaps: np.ndarray, p_d: float) -> np.ndarray:
    """A = 1 - G / p_d: the residual channel C in the eigenbasis of H.

    C of M = (1 - p_d) id + p_d C multiplies entry (i, j) by A_ij, so its
    Choi spectrum is eig(A) plus d^2 - d zeros, and A_ii = 1 makes it trace
    preserving exactly. At p_d = 0 the residual channel is the identity,
    whose multiplier is all ones.
    """
    return 1 - gaps / p_d if p_d else np.ones_like(gaps)


def _residual_channel(m: Superoperator, p_d: float) -> Superoperator:
    """The C of M = (1 - p_d) id + p_d C; at p_d = 0, M must be the identity."""
    ident = np.eye(m.dim * m.dim, dtype=complex)
    if p_d == 0:
        if max_norm(m.matrix - ident) > 1e-12:
            raise DecompositionError(
                "p_d = 0 claimed but the symmetrized map is not the identity"
            )
        return Superoperator.identity(m.dim)
    return Superoperator(m.dim, (m.matrix - (1 - p_d) * ident) / p_d)


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
    whether the extracted C is CPTP, decided in the eigenbasis of H.
    """
    if not 0 <= p_d_claimed <= 1:
        raise ParamError(f"p_d must lie in [0, 1], got {p_d_claimed}")
    return _decomposition_report(_eigenbasis_gaps(h_int, t), p_d_claimed)


def find_minimal_pd(h_int, t: float) -> tuple[float, DecompositionReport]:
    """Smallest p_d in (0, 1] keeping the extracted channel CPTP, by bisection.

    Useful for validating analytic p_d values; returns 0 when the symmetrized
    map is already the identity. Each step is a d x d verdict on the Schur
    multiplier A(p_d). The bisection is geometric, mid = sqrt(lo hi), on
    [G_max / 4, 1] and stops when the bracket is at most ``MINIMAL_PD_TOL``
    times its upper end wide, so p_d resolves to 1e-9 relative however small
    it is. p_d = 1 is always feasible: A(1)_ij = cos((w_i - w_j) t) is a Gram
    matrix. G_max / 4 never is: there the 2 x 2 principal minor of A on the
    pair with the largest gap is 1 - (1 - 4)^2 = -8.
    """
    gaps = _eigenbasis_gaps(h_int, t)
    g_max = gaps.max()
    if g_max <= IDENTITY_GAP_TOL:
        return 0.0, _decomposition_report(gaps, 0.0)
    lo, hi = g_max / 4, 1.0
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


@dataclass(frozen=True)
class Crossing:
    """A refined crossing of the heat curve with a noncontextual bound."""

    time: float
    side: str  # "upper" or "lower"


def _refine_bisection(f, lo: float, hi: float) -> float:
    flo = f(lo)
    for _ in range(200):
        mid = (lo + hi) / 2
        if hi - lo <= CROSSING_REL_TOL * max(abs(mid), 1e-300):
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (flo < 0) != (fm < 0):
            hi = mid
        else:
            lo, flo = mid, fm
    return (lo + hi) / 2


def find_critical_times(
    ts: np.ndarray,
    heat: np.ndarray,
    bounds: tuple[np.ndarray, np.ndarray],
    heat_at: Callable,
    bounds_at: Callable,
) -> list[Crossing]:
    """Ordered crossing times of the heat curve with either bound on the grid ts.

    ``heat`` and ``bounds`` = (upper, lower) are the columns on ts; the scan
    looks for strict sign changes of heat - upper and of lower - heat and
    refines each bracket by bisection to relative tolerance 1e-10, calling
    ``heat_at(t)`` and ``bounds_at(t) -> (upper, lower)`` at scalar t. An
    interior grid point exactly on the bound, between neighbours of opposite
    sign, is a crossing at that grid time; a touch without sign change, such
    as the common zero at t = 0, is none. An empty list means no crossing,
    which is a valid outcome.
    """
    crossings: list[Crossing] = []
    for side, i, sign in (("upper", 0, +1), ("lower", 1, -1)):

        def f(t):  # > 0 means violation on this side
            return sign * (float(heat_at(t)) - float(bounds_at(t)[i]))

        s = np.sign(sign * (heat - bounds[i]))
        for j in np.flatnonzero(s[:-1] * s[1:] < 0):
            root = _refine_bisection(f, ts[j], ts[j + 1])
            crossings.append(Crossing(time=float(root), side=side))
        for j in np.flatnonzero(s[1:-1] == 0) + 1:
            if s[j - 1] * s[j + 1] < 0:
                crossings.append(Crossing(time=float(ts[j]), side=side))

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
