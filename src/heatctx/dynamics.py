"""Energy-conserving interaction families and interaction-picture evolution.

Local Hamiltonians in scope are real diagonal, a contract checked where every
local energy is first read (``states._gibbs_matrix`` raises ParamError for any
other), so they commute with the free evolution; heat computed purely in the
interaction picture equals the full-picture value and the free unitary is
never constructed.
"""

from __future__ import annotations

import math
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


def eigenvector_blocks(v: np.ndarray) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """The blocks of V: i ~ k where a chain of nonzero v_ij v_kj links them.

    Returns (member, blocks): member is (d, number of blocks), True where row i
    lies in block b; blocks lists each block's (rows, columns). A column belongs
    to the block of its nonzero rows. Blocks come in order of their first row,
    each with its rows and columns sorted.
    """
    nonzero = v != 0
    linked = nonzero @ nonzero.T  # boolean: one link
    for _ in range((len(v) - 2).bit_length()):  # k squarings reach 2^k links, >= d - 1
        linked = linked @ linked
    first = linked.argmax(axis=1)  # the first row each row reaches names its block
    member = first[:, None] == np.arange(len(v))  # row i lies in the block row k names
    member = member[:, member.diagonal()]  # a block's first row names itself
    columns = member[nonzero.argmax(axis=0)]  # as the column's first nonzero row does
    return member, [(r.nonzero()[0], c.nonzero()[0]) for r, c in zip(member.T, columns.T)]


def phase_columns(w: np.ndarray) -> tuple[np.ndarray, list[int], list[int]]:
    """(exponents, mirrors, column): the table of the phases e^{-i t w} of the
    eigenvalues w is np.exp of each of ``exponents``, then the conjugate of each of
    its columns ``mirrors``; ``column`` is the table column of each eigenvalue.

    Eigenvalues of equal bits share a column, since their phases have equal bits;
    -0.0 and +0.0 stay apart, as their phases differ in the sign of a zero
    imaginary part. A negative eigenvalue -x whose partner x is also an eigenvalue
    is mirrored: t (-x) is -(t x) exactly and -1j y is (+0, -y), so its phase is
    np.exp of the conjugate of its partner's argument, which the tests check is the
    conjugate of its partner's phase, bit for bit. Zeros are never mirrored. There
    are at most d eigenvalues, and on so few Python sets cost less than numpy calls.
    """
    values = w.tolist()
    keys = [(x, math.copysign(1.0, x)) for x in values]  # equal keys, equal bits
    distinct = dict.fromkeys(keys)
    positive = {x for x in values if x > 0}
    kept = [key for key in distinct if -key[0] not in positive]
    mirrored = [key for key in distinct if -key[0] in positive]
    table = {key: k for k, key in enumerate(kept + mirrored)}
    exponents = np.array([x for x, _ in kept])
    return exponents, [table[-x, 1.0] for x, _ in mirrored], [table[key] for key in keys]


def shared_blocks(v: np.ndarray, blocks, column: list[int]) -> tuple[list, list[int]]:
    """(classes, shared): per class of ``blocks`` whose U_b(t) have equal bits, its
    phase columns and eigen-columns V_b = v[r][:, c], F-ordered; and each block's class.

    Blocks whose V_b are equal up to an overall sign and that read the same phase
    columns (``column`` of their eigenvalues) form a class: see ``EvolutionPlan``.
    The keys are tuples of Python complex numbers, which compare and hash zeros of
    either sign alike. One pass over blocks of a few rows, which gathers each
    class's V_b once, costs less than numpy calls.
    """
    entries, found, classes, shared = v.tolist(), {}, [], []
    for r, c in blocks:
        cols = c.tolist()
        key = (tuple([column[j] for j in cols]), tuple([entries[i][j] for i in r.tolist() for j in cols]))
        k = found.get(key)
        if k is None:
            k = found[key] = found[key[0], tuple([-x for x in key[1]])] = len(classes)
            classes.append((np.array(key[0]), v.T[c[:, None], r].T))  # one gather, F-ordered
        shared.append(k)
    return classes, shared


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

    Per grid, np.exp and the U_b einsums run once per class, not once per
    eigenvalue or block:
    - np.exp runs once per distinct eigenvalue, and only once per +-x pair of
      them, the -x column being the conjugate of the x one (``phase_columns``);
    - blocks whose V_b agree up to an overall sign and read the same phase
      columns share one U_b einsum and its conjugate (``shared_blocks``): IEEE
      negation is exact and (-a) p (-b)* = a p b*, so their terms differ at most
      in the sign of a zero, which the sum from +0 above does not show.
    The qutrit partial SWAP's blocks [1, 2, 2, 1, 2, 1] take 2 U_b einsums (not 6)
    on 1 np.exp column (not 2); resonant qubits' [1, 2, 1] take 2 einsums (not 3)
    on 2 columns (not 3) at a = 0, and non-resonant ones' [1, 1, 1, 1] 2 (not 4).
    """

    def __init__(self, rho: DensityMatrix, h_int):
        self.w, v = eig_hermitian(h_int)
        v, d = UnitaryOp(v).matrix, len(v)
        member, blocks = eigenvector_blocks(v)
        self.rows = rows = [r for r, _ in blocks]
        self.exponents, self.mirrors, self.column = phase_columns(self.w)
        self.classes, self.shared = shared_blocks(v, blocks, self.column)
        # Per block pair (b, c): whether rho[b, c] has a nonzero entry, and whether one of
        # its entries (a b, a2 b2) lies off rho_A's diagonal (a != a2, b == b2) or rho_B's.
        i_a, i_b = np.divmod(np.arange(d), rho.dims[-1])
        off = (i_a[:, None] == i_a) != (i_b[:, None] == i_b)
        live, reaches_off = member.T @ np.array([rho.matrix != 0, off]) @ member
        pairs = zip(*live.nonzero())  # in row-major order
        self.pairs = [(b, c, rho.matrix[rows[b][:, None], rows[c]]) for b, c in pairs]
        self.diagonal = len(rho.dims) == 2 and not (live & reaches_off).any()

    def _phases(self, ts) -> np.ndarray:
        """The ``phase_columns`` table at every t of ts, (N, columns); w's column is ``column``."""
        e = np.exp(-1j * np.multiply.outer(ts, self.exponents))
        return np.concatenate([e, e[:, self.mirrors].conj()], axis=1) if self.mirrors else e

    def _unitaries(self, ts) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """(U, U*): U_b(t) of each class of ``shared_blocks`` at every t of ts, and its
        conjugate, (N, m, m) each, the grid axis fastest, then i. Block b reads class
        ``shared[b]``: one einsum per class, on one ``_phases`` table."""
        phases = self._phases(ts)
        u = [
            np.einsum("ij,nj,kj->kin", v, phases[:, index], v.conj(), order="C").transpose(2, 1, 0)
            for index, v in self.classes
        ]
        return u, [u_b.conj() for u_b in u]

    def evolve(self, ts) -> np.ndarray:
        """rho(t) at every t of ts, as an (N, d, d) array."""
        (u, u_conj), k, d = self._unitaries(ts), self.shared, len(self.w)
        out = np.zeros((len(u[0]), d, d), dtype=complex)
        for b, c, rho_bc in self.pairs:
            rho_t = np.einsum("nij,jk,nlk->nil", u[k[b]], rho_bc, u_conj[k[c]])
            out[:, self.rows[b][:, None], self.rows[c]] = rho_t
        return out

    def populations(self, ts) -> np.ndarray:
        """The real diagonal of ``evolve(ts)``, bit for bit, as (N, d)."""
        (u, u_conj), k = self._unitaries(ts), self.shared
        out = np.zeros((len(u[0]), len(self.w)))
        for b, c, rho_bb in self.pairs:
            if b == c:
                out[:, self.rows[b]] = np.einsum("nij,jk,nik->ni", u[k[b]], rho_bb, u_conj[k[b]]).real
        return out


def evolve_interaction_picture(rho: DensityMatrix, h_int, t: float) -> DensityMatrix:
    """Conjugate rho by U_I(t) = e^{-i t H_I}."""
    out = evolve_on_grid(rho, h_int, [t])[0]
    out = (out + dagger(out)) / 2
    return DensityMatrix(out, rho.dims)

