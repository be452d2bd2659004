"""Stochastic-reversibility decompositions, noncontextual bounds, critical times.

Conventions, stated once and tested: superoperators act on column-stacked
vectorized operators (vec stacks columns, so vec(A X B) = (B^T kron A) vec X);
the Choi matrix is the unnormalized one, Lambda = sum_ij |i><j| kron C(|i><j|),
with trace d for a trace-preserving map on dimension d.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DecompositionError, DimensionError, ParamError
from .linalg import HermitianOp, UnitaryOp, as_matrix, dagger, max_norm

CHOI_EIGENVALUE_FLOOR = -1e-9
TRACE_PRESERVATION_TOL = 1e-9
MINIMAL_PD_TOL = 1e-9


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
    t = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            t[i, j] = np.trace(s.matrix[:, j * d + i].reshape(d, d, order="F"))
    return max_norm(t - np.eye(d))


@dataclass(frozen=True)
class DecompositionReport:
    """Outcome of a stochastic-reversibility extraction at a claimed p_d."""

    p_d: float
    residual_channel: Superoperator
    choi_eigenvalues: np.ndarray
    is_cptp: bool


def _symmetrized_conjugation(u: UnitaryOp | np.ndarray) -> Superoperator:
    """M = (1/2) S_U + (1/2) S_{U^dag}."""
    um = as_matrix(u)
    s_u = unitary_to_superoperator(um)
    s_ud = unitary_to_superoperator(dagger(um))
    return Superoperator(s_u.dim, (s_u.matrix + s_ud.matrix) / 2)


def _cptp_verdict(c: Superoperator) -> tuple[np.ndarray, bool]:
    eigs = np.linalg.eigvalsh(choi_matrix(c).matrix)
    tp_residual = trace_preservation_residual(c)
    ok = bool(eigs.min() >= CHOI_EIGENVALUE_FLOOR and tp_residual <= TRACE_PRESERVATION_TOL)
    return eigs, ok


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


def extract_stochastic_reversibility(
    u: UnitaryOp | np.ndarray, p_d_claimed: float
) -> DecompositionReport:
    """Extract C from (1/2)U(.)U^dag + (1/2)U^dag(.)U = (1-p_d) id + p_d C.

    The residual is zero by construction, so the verdict rests entirely on
    whether the extracted C is CPTP.
    """
    if not 0 <= p_d_claimed <= 1:
        raise ParamError(f"p_d must lie in [0, 1], got {p_d_claimed}")
    c = _residual_channel(_symmetrized_conjugation(u), p_d_claimed)
    eigs, ok = _cptp_verdict(c)
    return DecompositionReport(
        p_d=float(p_d_claimed),
        residual_channel=c,
        choi_eigenvalues=eigs,
        is_cptp=ok,
    )


def find_minimal_pd(
    u: UnitaryOp | np.ndarray, tol: float = MINIMAL_PD_TOL
) -> tuple[float, DecompositionReport]:
    """Smallest p_d in (0, 1] keeping the extracted channel CPTP, by bisection.

    Useful for validating analytic p_d values; returns 0 when the symmetrized
    map is already the identity.
    """
    m = _symmetrized_conjugation(u)
    if max_norm(m.matrix - np.eye(m.dim * m.dim)) <= 1e-12:
        return 0.0, extract_stochastic_reversibility(u, 0.0)

    def feasible(p: float) -> bool:
        return _cptp_verdict(_residual_channel(m, p))[1]

    if not feasible(1.0):
        raise DecompositionError("no p_d <= 1 yields a CPTP residual channel")
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if mid > 0 and feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi, extract_stochastic_reversibility(u, hi)


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


def _refine_bisection(f, lo: float, hi: float, rel_tol: float) -> float:
    flo = f(lo)
    for _ in range(200):
        mid = (lo + hi) / 2
        if hi - lo <= rel_tol * max(abs(mid), 1e-300):
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
    heat_fn: Callable,
    bound_fn: Callable,
    t_max: float,
    lower_bound_fn: Callable | None = None,
    n_grid: int = 100_000,
    rel_tol: float = CROSSING_REL_TOL,
    t_min: float = 0.0,
) -> list[Crossing]:
    """Ordered crossing times of the heat curve with the bound(s) on [t_min, t_max].

    Scans a uniform grid from t_min to t_max for strict sign changes of
    heat - upper bound (and of lower bound - heat when a lower bound is
    supplied) and refines each bracket by bisection to relative tolerance
    1e-10. An interior grid point exactly on the bound, between neighbours
    of opposite sign, is a crossing at that grid time; a touch without sign
    change, such as the common zero at t = 0, is none. An empty list means
    no crossing, which is a valid outcome.
    """
    if not 0 <= t_min < t_max:
        raise ParamError(f"need 0 <= t_min < t_max, got t_min={t_min}, t_max={t_max}")
    ts = np.linspace(t_min, t_max, int(n_grid))
    heat = np.asarray(heat_fn(ts), dtype=float)

    sides = [("upper", np.asarray(bound_fn(ts), dtype=float), +1)]
    if lower_bound_fn is not None:
        sides.append(("lower", np.asarray(lower_bound_fn(ts), dtype=float), -1))

    crossings: list[Crossing] = []
    for side, bound, sign in sides:
        diff = sign * (heat - bound)  # > 0 means violation on this side

        def f(t, _fn_heat=heat_fn, _fn_bound=bound_fn if side == "upper" else lower_bound_fn, _s=sign):
            return _s * (float(np.asarray(_fn_heat(t))) - float(np.asarray(_fn_bound(t))))

        s = np.sign(diff)
        for i in np.flatnonzero(s[:-1] * s[1:] < 0):
            root = _refine_bisection(f, ts[i], ts[i + 1], rel_tol)
            crossings.append(Crossing(time=float(root), side=side))
        for i in np.flatnonzero(s[1:-1] == 0) + 1:
            if s[i - 1] * s[i + 1] < 0:
                crossings.append(Crossing(time=float(ts[i]), side=side))

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
