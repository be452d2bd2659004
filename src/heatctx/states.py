"""Density-matrix construction and entropic quantities.

Covers Gibbs states, the correlated two-qubit thermal family (whose marginals
are thermal by construction), the two-qutrit energy-conserving correlated
family, and von Neumann entropy / mutual information / relative entropy.

Units: hbar = k_B = 1. Energies carry whatever unit the caller uses; betas
are inverse energies in the same unit. Entropies are in nats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    NotAStateError,
    ParamError,
    SupportError,
)
from .linalg import (
    HermitianOp,
    as_matrix,
    dagger,
    eig_hermitian,
    max_norm,
    partial_trace,
)

STATE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
SUPPORT_TOL = 1e-10  # eigenvalues of sigma, and weights of rho, taken as zero in relative_entropy


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density matrix with subsystem dimension metadata."""

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        m = as_matrix(self.matrix)
        dims = tuple(int(d) for d in self.dims)
        if int(np.prod(dims)) != m.shape[0]:
            raise DimensionError(
                f"subsystem dims {dims} do not match matrix dimension {m.shape[0]}"
            )
        # |rho_ij| <= 1 in a state; a larger entry could overflow the sums below.
        entry = max(max_norm(m.real), max_norm(m.imag))
        if entry > 1 + STATE_TOL:
            raise NotAStateError(f"an entry has a real or imaginary part of modulus {entry:.3g} > 1")
        if max_norm(m - dagger(m)) > STATE_TOL:
            raise NotAStateError("density matrix is not Hermitian to 1e-12")
        if abs(np.trace(m).real - 1.0) > STATE_TOL or abs(np.trace(m).imag) > STATE_TOL:
            raise NotAStateError(f"trace is {np.trace(m):.15g}, expected 1")
        w = np.linalg.eigvalsh((m + dagger(m)) / 2)
        if w.min() < EIGENVALUE_FLOOR:
            raise NotAStateError(
                f"smallest eigenvalue {w.min():.3g} below floor {EIGENVALUE_FLOOR:g}"
            )
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def marginal(self, keep: int) -> "DensityMatrix":
        red = partial_trace(self.matrix, self.dims, keep)
        return DensityMatrix(red, (self.dims[keep],))


def _boltzmann_weights(beta: float, energies: np.ndarray) -> np.ndarray:
    """e^{-beta E_i} / Z for finite beta >= 0, shifted by the ground energy so no
    exponential overflows. Where beta (E_i - E_min) overflows, the weight is its
    limit exp(-inf) = 0, reached without a warning; finite products keep their bits."""
    with np.errstate(over="ignore"):
        e = np.exp(-beta * (energies - energies.min()))
    return e / e.sum()


def _gibbs_matrix(h, beta: float) -> np.ndarray:
    """e^{-beta h} / Z as a plain array, from the ``_boltzmann_weights`` of h's diagonal:
    h must be real diagonal, its energies (ParamError otherwise, with no tolerance)."""
    if not np.isfinite(beta) or beta < 0:
        raise ParamError(f"beta must be finite and >= 0, got {beta}")
    m = as_matrix(h)
    if np.count_nonzero(m) != np.count_nonzero(np.diagonal(m)) or np.diagonal(m).imag.any():
        raise ParamError("a local Hamiltonian must be real diagonal: its diagonal is read as its energies")
    return np.diag(_boltzmann_weights(beta, np.diagonal(m).real))


def zeeman_hamiltonian(omega: float) -> HermitianOp:
    """Single-qubit local Hamiltonian (omega/2)(1 - sigma_z) = diag(0, omega)."""
    return HermitianOp(np.diag([0.0, omega]).astype(complex))


def qutrit_hamiltonian(omegas) -> HermitianOp:
    """Single-qutrit local Hamiltonian diag(omega_0, omega_1, omega_2)."""
    omegas = np.asarray(omegas, dtype=float)
    if omegas.shape != (3,):
        raise ParamError("qutrit Hamiltonian needs exactly three energies")
    return HermitianOp(np.diag(omegas).astype(complex))


@dataclass(frozen=True)
class TwoQubitThermalParams:
    """Parameters of the general correlated two-qubit state with thermal marginals.

    The diagonal is fixed by (omega, beta_A, beta_B, nu0); eta*e^{i xi} is the
    |01><10| coherence, nu1/nu2/gamma the remaining free off-diagonals.
    Positivity is checked numerically at construction of the state.
    """

    omega: float
    beta_A: float
    beta_B: float
    nu0: float | None = None
    nu1: complex = 0.0
    nu2: complex = 0.0
    gamma: complex = 0.0
    eta: float = 0.0
    xi: float = 0.0

    def partition_functions(self) -> tuple[float, float]:
        return (
            1.0 + np.exp(-self.omega * self.beta_A),
            1.0 + np.exp(-self.omega * self.beta_B),
        )

    def default_nu0(self) -> float:
        # Product-state value: p00 = (1/Z_A)(1/Z_B).
        za, zb = self.partition_functions()
        return 1.0 / (za * zb)


def two_qubit_thermal(params: TwoQubitThermalParams) -> DensityMatrix:
    """Build the 4x4 correlated state with exactly thermal marginals.

    Basis order |00>, |01>, |10>, |11> in the sigma_z x sigma_z eigenbasis.
    Raises NotAStateError when the correlation parameters break positivity.
    """
    p = params
    za, zb = p.partition_functions()
    nu0 = p.default_nu0() if p.nu0 is None else float(p.nu0)
    corner = (np.exp(-p.omega * p.beta_A - p.omega * p.beta_B) - 1.0) / (za * zb) + nu0
    coh = p.eta * np.exp(1j * p.xi)
    rho = np.array(
        [
            [nu0, np.conj(p.nu1), np.conj(p.nu2), np.conj(p.gamma)],
            [p.nu1, 1.0 / za - nu0, coh, -np.conj(p.nu2)],
            [p.nu2, np.conj(coh), 1.0 / zb - nu0, -np.conj(p.nu1)],
            [p.gamma, -p.nu2, -p.nu1, corner],
        ],
        dtype=complex,
    )
    try:
        state = DensityMatrix(rho, (2, 2))
    except NotAStateError as exc:
        raise NotAStateError(
            f"two-qubit thermal parameters give a non-positive matrix: {exc}"
        ) from exc
    h = zeeman_hamiltonian(p.omega)
    check_thermal_marginals(state, (h, h), (p.beta_A, p.beta_B), STATE_TOL, NotAStateError)
    return state


def check_thermal_marginals(state: DensityMatrix, h_locals, betas, tol: float, error) -> None:
    """Raise ``error`` unless each marginal is the Gibbs state of its local
    Hamiltonian at its beta to ``tol`` in max-norm.

    ParamError when a local Hamiltonian is not real diagonal (``_gibbs_matrix``),
    so a caller that passed this check may read the diagonals as energies;
    DimensionError when one does not match its subsystem.
    """
    for keep, (h, beta) in enumerate(zip(h_locals, betas)):
        want = _gibbs_matrix(h, beta)
        if len(state.dims) != 2 or want.shape[0] != state.dims[keep]:
            raise DimensionError(
                f"local Hamiltonian {keep} has dim {want.shape[0]}, state dims {state.dims}"
            )
        dev = max_norm(partial_trace(state.matrix, state.dims, keep) - want)
        if dev > tol:
            raise error(f"marginal {keep} deviates from Gibbs(beta={beta:g}) by {dev:.3g}")


@dataclass(frozen=True)
class TwoQutritThermalParams:
    """Correlated two-qutrit family: thermal diagonal plus three coherences.

    Coherences sit between the degenerate pairs |01>~|10>, |02>~|20>,
    |12>~|21> (matrix positions (1,3), (2,6), (5,7)), so they preserve both
    energy-block structure and the thermal marginals.
    """

    omegas: tuple[float, float, float]
    beta_A: float
    beta_B: float
    eta31: float = 0.0
    eta62: float = 0.0
    eta75: float = 0.0
    theta31: float = 0.0
    theta62: float = 0.0
    theta75: float = 0.0

    def __post_init__(self):
        oms = tuple(float(o) for o in self.omegas)
        if len(oms) != 3 or not (oms[0] <= oms[1] <= oms[2]):
            raise ParamError(f"omegas must be three ascending energies, got {oms}")
        object.__setattr__(self, "omegas", oms)

    def diagonal_probabilities(self) -> np.ndarray:
        """The nine products p_i = p^A_i p^B_j in basis order |ij> -> 3i+j."""
        oms = np.asarray(self.omegas)
        pa = _boltzmann_weights(self.beta_A, oms)
        pb = _boltzmann_weights(self.beta_B, oms)
        return np.outer(pa, pb).reshape(9)


def two_qutrit_thermal(params: TwoQutritThermalParams) -> DensityMatrix:
    """Build the 9x9 correlated two-qutrit state."""
    p = params.diagonal_probabilities()
    rho = np.diag(p).astype(complex)
    for (i, j), eta, theta in (
        ((1, 3), params.eta31, params.theta31),
        ((2, 6), params.eta62, params.theta62),
        ((5, 7), params.eta75, params.theta75),
    ):
        rho[i, j] = eta * np.exp(1j * theta)
        rho[j, i] = np.conj(rho[i, j])
    try:
        state = DensityMatrix(rho, (3, 3))
    except NotAStateError as exc:
        raise NotAStateError(
            f"two-qutrit thermal parameters give a non-positive matrix: {exc}"
        ) from exc
    return state


def entropies(rhos: np.ndarray) -> np.ndarray:
    """-sum lambda ln lambda in nats of each matrix in a stack (..., d, d), 0 ln 0 := 0."""
    return spectral_entropies(np.linalg.eigvalsh(rhos))


def population_entropies(populations: np.ndarray, dims) -> tuple[np.ndarray, np.ndarray]:
    """``entropies`` of (rho_A, rho_B) from the (N, d_A d_B) diagonals of states whose
    marginals are diagonal, bit for bit: ``bipartite_marginals`` also sums from 0 in
    index order, and LAPACK's eigenvalues of a diagonal matrix of trace ~1 are its
    sorted diagonal, sorted here as far as the sum needs (``_summed_in_order``)."""
    p = populations.reshape(-1, *dims)  # the builtin sum adds from 0, in index order
    p_a, p_b = sum(p.transpose(2, 0, 1)), sum(p.transpose(1, 0, 2))
    return spectral_entropies(_summed_in_order(p_a)), spectral_entropies(_summed_in_order(p_b))


def _summed_in_order(p: np.ndarray) -> np.ndarray:
    """Rows of p in an order whose ``spectral_entropies`` are those of ``np.sort(p)``, bit for bit.

    Rows of one or two entries keep their order: a sum of two terms does not
    depend on it. Rows of three go through a three-comparator network, whose
    values come out as np.sort's (a tie of -0.0 and +0.0 may swap, and both give
    the term 0); a NaN spreads through it, and its row's entropy stays NaN.
    Wider rows are sorted.
    """
    if p.shape[-1] <= 2:
        return p
    if p.shape[-1] > 3:
        return np.sort(p)
    a, b, c = p[..., 0], p[..., 1], p[..., 2]
    low, high = np.minimum(a, b), np.maximum(a, b)
    low, mid = np.minimum(low, c), np.maximum(low, c)
    return np.stack([low, np.minimum(mid, high), np.maximum(mid, high)], axis=-1)


def spectral_entropies(w: np.ndarray) -> np.ndarray:
    """-sum w ln w in nats along the last axis of ascending spectra, 0 ln 0 := 0.

    Eigenvalues below 0 (round-off) are clipped to 0; a NaN eigenvalue gives a NaN.
    """
    w = np.clip(w, 0.0, None)
    terms = np.where(w == 0, 0.0, -w * np.log(np.where(w > 0, w, 1.0)))
    return terms.sum(axis=-1)


def bipartite_marginals(rhos: np.ndarray, dims) -> tuple[np.ndarray, np.ndarray]:
    """(rho_A, rho_B) of each bipartite state in a stack (N, d_A d_B, d_A d_B)."""
    d_a, d_b = dims
    r4 = rhos.reshape(-1, d_a, d_b, d_a, d_b)
    return np.einsum("nijkj->nik", r4), np.einsum("nijil->njl", r4)


def mutual_information_change(s_a: np.ndarray, s_b: np.ndarray) -> np.ndarray:
    """I(A:B) along a unitary orbit minus I(A:B) of its first state.

    ``s_a`` and ``s_b`` are the ``entropies`` of the marginals rho_A and rho_B
    of each state. The global entropy stays constant under a unitary, so it
    cancels.
    """
    return (s_a - s_a[0]) + (s_b - s_b[0])


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -sum lambda ln lambda in nats, with 0 ln 0 := 0."""
    return float(entropies(rho.matrix))


def mutual_information(rho: DensityMatrix) -> float:
    """I(A:B) = S(rho_A) + S(rho_B) - S(rho) for a bipartite state."""
    if len(rho.dims) != 2:
        raise DimensionError(f"mutual information needs bipartite dims, got {rho.dims}")
    return (
        von_neumann_entropy(rho.marginal(0))
        + von_neumann_entropy(rho.marginal(1))
        - von_neumann_entropy(rho)
    )


def relative_entropy(rho: DensityMatrix | np.ndarray, sigma: DensityMatrix | np.ndarray) -> float:
    """S(rho || sigma) = Tr{rho ln rho - rho ln sigma} in nats.

    An array is taken as a density matrix as it is, unvalidated: pass one
    only when it was derived from validated states. Raises SupportError when
    rho has weight on the kernel of sigma.
    """
    rho, sigma = (
        x.matrix if isinstance(x, DensityMatrix) else as_matrix(x) for x in (rho, sigma)
    )
    if rho.shape != sigma.shape:
        raise DimensionError("relative entropy needs equal dimensions")
    ws, vs = eig_hermitian(sigma)
    ws = np.clip(ws, 0.0, None)
    kernel = ws <= SUPPORT_TOL
    if np.any(kernel):
        weight = np.real(
            np.einsum("ij,jk,ki->", dagger(vs[:, kernel]), rho, vs[:, kernel])
        )
        if weight > SUPPORT_TOL:
            raise SupportError(
                f"rho has weight {weight:.3g} outside the support of sigma"
            )
    tr_rho_log_rho = -float(entropies(rho))
    log_sigma_evals = np.log(np.where(kernel, 1.0, ws))  # kernel rows carry ~0 weight
    log_sigma = (vs * log_sigma_evals) @ dagger(vs)
    tr_rho_log_sigma = float(np.real(np.trace(rho @ log_sigma)))
    return tr_rho_log_rho - tr_rho_log_sigma
