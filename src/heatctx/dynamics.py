"""Energy-conserving interaction families and interaction-picture evolution.

Local Hamiltonians in scope are diagonal, so they commute with the free
evolution; heat computed purely in the interaction picture equals the
full-picture value and the free unitary is never constructed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParamError
from .linalg import (
    HermitianOp,
    UnitaryOp,
    as_matrix,
    dagger,
    eig_hermitian,
    expm_hermitian_generator,
    kron,
    max_norm,
)
from .states import DensityMatrix

ENERGY_CONSERVATION_TOL = 1e-12


@dataclass(frozen=True)
class ResonantInteraction:
    """General energy-conserving interaction between resonant qubits.

    H = g * [[0,0,0,0], [0,a,e^{i theta},0], [0,e^{-i theta},a,0], [0,0,0,0]]
    in the |00>,|01>,|10>,|11> basis.
    """

    g: float
    a: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        if not self.g > 0:
            raise ParamError(f"g must be positive, got {self.g}")

    def hamiltonian(self) -> HermitianOp:
        h = np.zeros((4, 4), dtype=complex)
        h[1, 1] = h[2, 2] = self.a
        h[1, 2] = np.exp(1j * self.theta)
        h[2, 1] = np.exp(-1j * self.theta)
        return HermitianOp(self.g * h)

    def exchange_part(self) -> HermitianOp:
        """H_theta: the hopping block with unit diagonal inside the degenerate sector."""
        h = np.zeros((4, 4), dtype=complex)
        h[1, 1] = h[2, 2] = 1.0
        h[1, 2] = np.exp(1j * self.theta)
        h[2, 1] = np.exp(-1j * self.theta)
        return HermitianOp(self.g * h)

    def detuning_part(self) -> HermitianOp:
        """H_a: the commuting diagonal remainder, proportional to (a - 1)."""
        h = np.zeros((4, 4), dtype=complex)
        h[1, 1] = h[2, 2] = self.a - 1.0
        return HermitianOp(self.g * h)


@dataclass(frozen=True)
class NonResonantInteraction:
    """The only energy-conserving form for unequal gaps: g(|01><01| + |10><10|)."""

    g: float

    def hamiltonian(self) -> HermitianOp:
        h = np.zeros((4, 4), dtype=complex)
        h[1, 1] = h[2, 2] = 1.0
        return HermitianOp(self.g * h)


def swap_operator(local_dim: int) -> np.ndarray:
    """SWAP on C^d x C^d; involutory (S^2 = 1)."""
    d = int(local_dim)
    s = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s


@dataclass(frozen=True)
class PartialSwapInteraction:
    """Generator g*S of the partial SWAP U(t) = e^{-i g t S} = cos(gt) 1 - i sin(gt) S."""

    g: float
    local_dim: int = 2

    def __post_init__(self):
        if not self.g > 0:
            raise ParamError(f"g must be positive, got {self.g}")
        if self.local_dim not in (2, 3):
            raise ParamError(f"local_dim must be 2 or 3, got {self.local_dim}")

    def hamiltonian(self) -> HermitianOp:
        return HermitianOp(self.g * swap_operator(self.local_dim).astype(complex))


def check_energy_conservation(h_int, h_a_local, h_b_local) -> tuple[bool, float]:
    """Residual max-norm of [H_I, H_A x 1 + 1 x H_B] and a pass flag at 1e-12."""
    hi = as_matrix(h_int)
    ha = as_matrix(h_a_local)
    hb = as_matrix(h_b_local)
    total_local = kron(ha, np.eye(hb.shape[0])) + kron(np.eye(ha.shape[0]), hb)
    if total_local.shape != hi.shape:
        raise DimensionError(
            f"interaction dim {hi.shape[0]} incompatible with locals "
            f"{ha.shape[0]}x{hb.shape[0]}"
        )
    residual = max_norm(hi @ total_local - total_local @ hi)
    return residual <= ENERGY_CONSERVATION_TOL, residual


def interaction_unitary(h_int, t: float) -> UnitaryOp:
    """U_I(t) = e^{-i t H_I}."""
    return UnitaryOp(expm_hermitian_generator(as_matrix(h_int), -1j * t))


def evolve_on_grid(rho: DensityMatrix, h_int, ts) -> np.ndarray:
    """rho(t) = U(t) rho U(t)^dag at every t of ts, as an (N, d, d) array.

    U(t) = V diag(e^{-i t w}) V^dag from one eigendecomposition
    H_I = V diag(w) V^dag; V is checked unitary once, so every U(t) is.
    """
    w, v = eig_hermitian(h_int)
    v = UnitaryOp(v).matrix
    phases = np.exp(-1j * np.outer(ts, w))  # (N, d)
    u = np.einsum("ij,nj,kj->nik", v, phases, v.conj())
    return np.einsum("nij,jk,nlk->nil", u, rho.matrix, u.conj())


def evolve_interaction_picture(rho: DensityMatrix, h_int, t: float) -> DensityMatrix:
    """Conjugate rho by U_I(t) = e^{-i t H_I}."""
    out = evolve_on_grid(rho, h_int, [t])[0]
    out = (out + dagger(out)) / 2
    return DensityMatrix(out, rho.dims)


def resonant_decomposition_factors(
    params: ResonantInteraction, t: float
) -> tuple[UnitaryOp, UnitaryOp]:
    """Commuting factors (U1, U2) of the resonant evolution.

    U1 = e^{-i t H_a}, U2 = e^{-i t H_theta}; U2 @ U1 reproduces e^{-i t H_I}.
    """
    u1 = interaction_unitary(params.detuning_part(), t)
    u2 = interaction_unitary(params.exchange_part(), t)
    return u1, u2
