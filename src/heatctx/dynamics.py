"""Energy-conserving interaction families and interaction-picture evolution.

Local Hamiltonians in scope are real diagonal, a contract checked where every
local energy is first read (``states._gibbs_matrix`` raises ParamError for any
other), so they commute with the free evolution; heat computed purely in the
interaction picture equals the full-picture value and the free unitary is
never constructed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ParamError
from .linalg import (
    HermitianOp,
    UnitaryOp,
    as_matrix,
    dagger,
    eig_hermitian,
    expm_hermitian_generator,
)
from .states import DensityMatrix


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
        return replace(self, a=1.0).hamiltonian()

    def detuning_part(self) -> HermitianOp:
        """H_a: the commuting diagonal remainder, proportional to (a - 1)."""
        h = np.zeros((4, 4), dtype=complex)
        h[1, 1] = h[2, 2] = self.a - 1.0
        return HermitianOp(self.g * h)


@dataclass(frozen=True)
class NonResonantInteraction:
    """The only energy-conserving form for unequal gaps: g(|01><01| + |10><10|)."""

    g: float

    def __post_init__(self):
        if not self.g > 0:
            raise ParamError(f"g must be positive, got {self.g}")

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


def interaction_unitary(h_int, t: float) -> UnitaryOp:
    """U_I(t) = e^{-i t H_I}."""
    return UnitaryOp(expm_hermitian_generator(as_matrix(h_int), -1j * t))


def evolve_on_grid(rho: DensityMatrix, h_int, ts) -> np.ndarray:
    """rho(t) = U(t) rho U(t)^dag at every t of ts, as an (N, d, d) array."""
    return EvolutionPlan(rho, h_int).evolve(ts)


def eigenvector_blocks(v: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The blocks of V, as (rows, columns): i ~ k where a chain of nonzero v_ij v_kj links them.

    A column belongs to the block of its nonzero rows. Blocks come in order of
    their first row, each with its rows and columns sorted.
    """
    linked = (v != 0) @ (v != 0).T  # boolean: one link
    for _ in range(len(v).bit_length()):  # each squaring doubles the chains' reach
        linked = linked @ linked
    first = linked.argmax(axis=1)  # the first row each row reaches names its block
    rows = first[:, None] == np.unique(first)  # (d, blocks): row i lies in block b
    columns = rows[(v != 0).argmax(axis=0)]  # as the column's first nonzero row does
    return [(r.nonzero()[0], c.nonzero()[0]) for r, c in zip(rows.T, columns.T)]


def distinct_eigenvalues(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct, index) with distinct[index] == w bit for bit, from one pass over sorted w.

    Runs of equal bits merge; -0.0 and +0.0 stay apart, as their phases differ
    in the sign of a zero imaginary part, and equal values that do not sit next
    to each other stay apart too, which costs a column, never a bit.
    """
    bits = w.view(np.int64)
    first = np.empty(len(w), dtype=bool)
    first[:1], first[1:] = True, bits[1:] != bits[:-1]
    return w[first], np.cumsum(first) - 1


class EvolutionPlan:
    """All that ``evolve_on_grid`` derives from rho and H_I, for a grid of any length.

    U(t) = V diag(e^{-i t w}) V^dag from one eigendecomposition
    H_I = V diag(w) V^dag; V is checked unitary once, so every U(t) is.

    U(t) is zero between the blocks of V (``eigenvector_blocks``), so rho(t) is
    zero outside the block pairs (b, c) whose slice rho[b, c] has a nonzero
    entry. Per block U_b(t) is the einsum "ij,nj,kj->nik" on b's eigen-columns,
    and per such live pair rho(t)[b, c] is "nij,jk,nlk->nil", on every grid.

    The blocks keep the dense einsums' bits. Unoptimised np.einsum sums each
    output's terms in row-major order of the summed indices, into an
    accumulator that starts at +0. A running sum that starts at +0 is never -0
    (x + -x is +0), so a term that is +-0 leaves it unchanged; every dropped
    term has an exactly zero factor of U, so is +-0. einsum keeps that order
    only while each U_b has the grid axis fastest in memory, then its rows (so
    F-ordered on one time), and each slice of rho is C-ordered: with C-ordered
    U_b, or a slice rho[r][:, c], it iterates otherwise and the last bits change.

    ``diagonal`` is True when no live pair reaches an off-diagonal entry of
    rho_A or rho_B: then the diagonal pairs (b, b) alone give the populations.

    The phases e^{-i t w} are evaluated once per distinct eigenvalue
    (``distinct_eigenvalues``), and each block reads its columns through an
    index into them: an eigenvalue of equal bits gives a phase of equal bits.
    """

    def __init__(self, rho: DensityMatrix, h_int):
        self.w, v = eig_hermitian(h_int)
        v, d = UnitaryOp(v).matrix, len(v)
        blocks = eigenvector_blocks(v)
        self.rows = rows = [r for r, _ in blocks]
        self.distinct, index = distinct_eigenvalues(self.w)
        self.blocks = [(index[c], v[r][:, c]) for r, c in blocks]
        member = np.array([np.bincount(r, minlength=d) for r in rows], bool).T  # row i in block b
        live = member.T @ (rho.matrix != 0) @ member  # boolean: slice rho[b, c] is nonzero
        pairs = zip(*live.nonzero())  # in row-major order
        self.pairs = [(b, c, rho.matrix[rows[b][:, None], rows[c]]) for b, c in pairs]
        a, b = np.divmod(np.arange(d), rho.dims[-1])  # (a b, a2 b2) adds to rho_A[a, a2] if b == b2
        off = (a[:, None] == a) != (b[:, None] == b)  # outputs off rho_A's or rho_B's diagonal
        self.diagonal = len(rho.dims) == 2 and not (live & (member.T @ off @ member)).any()

    def _unitaries(self, ts) -> list[np.ndarray]:
        """U_b(t) of every block at every t of ts, (N, m, m) each, the grid axis fastest, then i."""
        phases = np.exp(-1j * np.outer(ts, self.distinct))  # (N, number of distinct eigenvalues)
        return [
            np.einsum("ij,nj,kj->kin", v, phases[:, index], v.conj(), order="C").transpose(2, 1, 0)
            for index, v in self.blocks
        ]

    def evolve(self, ts) -> np.ndarray:
        """rho(t) at every t of ts, as an (N, d, d) array."""
        u, d = self._unitaries(ts), len(self.w)
        out = np.zeros((len(u[0]), d, d), dtype=complex)
        for b, c, rho_bc in self.pairs:
            rho_t = np.einsum("nij,jk,nlk->nil", u[b], rho_bc, u[c].conj())
            out[:, self.rows[b][:, None], self.rows[c]] = rho_t
        return out

    def populations(self, ts) -> np.ndarray:
        """The real diagonal of ``evolve(ts)``, bit for bit, as (N, d)."""
        u = self._unitaries(ts)
        out = np.zeros((len(u[0]), len(self.w)))
        for b, c, rho_bb in self.pairs:
            if b == c:
                out[:, self.rows[b]] = np.einsum("nij,jk,nik->ni", u[b], rho_bb, u[b].conj()).real
        return out


def evolve_interaction_picture(rho: DensityMatrix, h_int, t: float) -> DensityMatrix:
    """Conjugate rho by U_I(t) = e^{-i t H_I}."""
    out = evolve_on_grid(rho, h_int, [t])[0]
    out = (out + dagger(out)) / 2
    return DensityMatrix(out, rho.dims)

