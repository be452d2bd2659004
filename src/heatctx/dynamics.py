"""Energy-conserving interaction families and interaction-picture evolution.

Local Hamiltonians in scope are diagonal, so they commute with the free
evolution; heat computed purely in the interaction picture equals the
full-picture value and the free unitary is never constructed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
EINSUM_BELOW = 256  # grid points below which the dense einsums' lower fixed cost wins


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
    """rho(t) = U(t) rho U(t)^dag at every t of ts, as an (N, d, d) array."""
    return EvolutionPlan(rho, h_int, len(ts)).evolve(ts)


class EvolutionPlan:
    """All that ``evolve_on_grid`` derives from rho and H_I, for a grid of ``n_points``.

    U(t) = V diag(e^{-i t w}) V^dag from one eigendecomposition
    H_I = V diag(w) V^dag; V is checked unitary once, so every U(t) is.

    Below ``EINSUM_BELOW`` grid points rho(t) is the two dense einsums
    U(t) = "ij,nj,kj->nik" and rho(t) = "nij,jk,nlk->nil"; from there on the
    term-skipping kernel ``_evolve_live_terms`` gives the same bits. Unoptimised
    np.einsum sums each output's terms in row-major order of the summed
    indices, into an accumulator that starts at +0. A running sum that starts
    at +0 is never -0 (x + -x is +0), so adding a term that is +-0 leaves it
    unchanged, and a term with an exactly zero factor is +-0. Energy
    conservation makes V block diagonal, so most terms have a zero factor of
    V or of rho; the kernel adds only the others, in einsum's order.

    ``diagonal`` holds the live terms of the diagonal of rho(t) alone when no
    live term reaches an off-diagonal entry of rho_A or rho_B; else None.
    """

    def __init__(self, rho: DensityMatrix, h_int, n_points: int):
        self.w, v = eig_hermitian(h_int)
        self.v, self.rho, d = UnitaryOp(v).matrix, rho.matrix, len(v)
        self.terms = self.diagonal = None
        if n_points >= EINSUM_BELOW:
            self.terms = LiveTerms.of(self.v, self.rho)
            rounds = self.terms.rho_rounds
            if len(rho.dims) == 2:  # output (a b, a2 b2) adds to rho_A[a, a2] if b == b2
                a, b, a2, b2 = np.unravel_index(np.hstack([r[0] for r in rounds]), 2 * rho.dims)
                if not np.any((a == a2) != (b == b2)):  # keep the diagonal outputs i*d + i
                    rounds = [[x[r[0] % (d + 1) == 0] for x in r] for r in rounds]
                    self.diagonal = replace(self.terms, rho_rounds=[r for r in rounds if len(r[0])])

    def evolve(self, ts) -> np.ndarray:
        """rho(t) at every t of ts, as an (N, d, d) array."""
        phases, d = np.exp(-1j * np.outer(ts, self.w)), len(self.v)  # (N, d)
        if self.terms is None:
            u = np.einsum("ij,nj,kj->nik", self.v, phases, self.v.conj())
            return np.einsum("nij,jk,nlk->nil", u, self.rho, u.conj())
        out = np.empty((len(phases), d * d), dtype=complex)
        out.real, out.imag = (x.T for x in _evolve_live_terms(self.v, phases, self.terms))
        return out.reshape(-1, d, d)

    def populations(self, ts) -> np.ndarray:
        """The real diagonal of ``evolve(ts)``, bit for bit, as (N, d); needs ``diagonal``."""
        phases = np.exp(-1j * np.outer(ts, self.w))
        return _evolve_live_terms(self.v, phases, self.diagonal)[0][:: len(self.v) + 1].T


def _dealt(live: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each row's True columns, in order, dealt one per round.

    Round r is (rows, columns): every row with more than r True entries and
    its r-th True column.
    """
    counts = live.sum(axis=1)
    rows, cols = np.nonzero(live)
    rank = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    return [(rows[rank == r], cols[rank == r]) for r in range(counts.max(initial=0))]


@dataclass(frozen=True)
class LiveTerms:
    """The terms of U(t) rho U(t)^dag that are not exactly zero, in einsum's order.

    ``u_entries`` are the flat indices i*d + k of the entries of U(t) that can
    be nonzero: U_ik sums v_ij e^{-itw_j} conj(v_kj) over j. A round of
    ``u_rounds`` is (positions in ``u_entries``, j, v_ij, conj(v_kj)); a round
    of ``rho_rounds`` is (outputs i*d + l, positions of U_ij, rho_jk,
    positions of U_lk). The r-th round adds every output's r-th live term.
    """

    u_entries: np.ndarray
    u_rounds: list
    rho_rounds: list

    @classmethod
    def of(cls, v: np.ndarray, rho: np.ndarray) -> "LiveTerms":
        d = len(v)
        nonzero = v != 0
        u_live = nonzero[:, None, :] & nonzero[None, :, :]  # (i, k, j)
        u_entries = np.flatnonzero(u_live.any(axis=2))
        position = np.zeros(d * d, dtype=int)
        position[u_entries] = np.arange(len(u_entries))
        u_rounds = []
        for at, j in _dealt(u_live.reshape(d * d, d)[u_entries]):
            i, k = np.divmod(u_entries[at], d)
            u_rounds.append((at, j, v[i, j][:, None], v[k, j].conj()[:, None]))
        u_nonzero = np.zeros(d * d, dtype=bool)
        u_nonzero[u_entries] = True
        u_nonzero = u_nonzero.reshape(d, d)
        live = u_nonzero[:, None, :, None] & (rho != 0) & u_nonzero[None, :, None, :]
        rho_rounds = []
        for out, jk in _dealt(live.reshape(d * d, d * d)):
            (i, l), (j, k) = np.divmod(out, d), np.divmod(jk, d)
            rho_rounds.append(
                (out, position[i * d + j], rho[j, k][:, None], position[l * d + k])
            )
        return cls(u_entries, u_rounds, rho_rounds)


def _evolve_live_terms(v: np.ndarray, phases: np.ndarray, terms: LiveTerms):
    """Re and Im of the two einsums of ``evolve_on_grid``, (d^2, N) each, from live terms only.

    Each term is ((a b) c) with the complex products formed as einsum forms
    them, (ar br - ai bi, ar bi + ai br), in separate real operations (no
    FMA). Grid points run along the rows of every array; every row handed in
    is evolved at once, so the caller bounds the temporaries by what it hands.
    """
    n, d = phases.shape
    width = max((len(r[0]) for r in terms.u_rounds + terms.rho_rounds), default=0)
    p_re, p_im = np.ascontiguousarray(phases.real.T), np.ascontiguousarray(phases.imag.T)
    ur, ui = np.zeros((2, len(terms.u_entries), n))
    sr, si = np.zeros((2, d * d, n))
    buffers = np.empty((7, width, n))
    for at, j, a, c in terms.u_rounds:  # U_ik += (v_ij e^{-itw_j}) conj(v_kj)
        x_re, x_im, t_re, t_im, r_re, r_im, tmp = buffers[:, : len(at)]
        np.take(p_re, j, axis=0, out=x_re)
        np.take(p_im, j, axis=0, out=x_im)
        _cmul(a.real, a.imag, x_re, x_im, t_re, t_im, tmp)
        _cmul(t_re, t_im, c.real, c.imag, r_re, r_im, tmp)
        ur[at] += r_re
        ui[at] += r_im
    for o, ij, b, lk in terms.rho_rounds:  # rho_il += (U_ij rho_jk) conj(U_lk)
        x_re, x_im, t_re, t_im, r_re, r_im, tmp = buffers[:, : len(o)]
        np.take(ur, ij, axis=0, out=x_re)
        np.take(ui, ij, axis=0, out=x_im)
        _cmul(x_re, x_im, b.real, b.imag, t_re, t_im, tmp)
        np.take(ur, lk, axis=0, out=x_re)
        np.negative(np.take(ui, lk, axis=0, out=x_im), out=x_im)
        _cmul(t_re, t_im, x_re, x_im, r_re, r_im, tmp)
        sr[o] += r_re
        si[o] += r_im
    return sr, si


def _cmul(ar, ai, br, bi, out_re, out_im, tmp) -> None:
    """(out_re, out_im) = (ar br - ai bi, ar bi + ai br); no output may alias an input."""
    np.multiply(ar, br, out=out_re)
    out_re -= np.multiply(ai, bi, out=tmp)
    np.multiply(ar, bi, out=out_im)
    out_im += np.multiply(ai, br, out=tmp)


def evolve_interaction_picture(rho: DensityMatrix, h_int, t: float) -> DensityMatrix:
    """Conjugate rho by U_I(t) = e^{-i t H_I}."""
    out = evolve_on_grid(rho, h_int, [t])[0]
    out = (out + dagger(out)) / 2
    return DensityMatrix(out, rho.dims)

