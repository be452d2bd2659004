"""Heat averages, the modified Clausius inequality, and entropy production.

Sign convention, fixed once: positive <Q_A> means subsystem A receives heat.
The trace form evolves the state (Schrodinger picture), which is what the
closed-form expressions reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NonThermalMarginalsError, NumericsError
from .linalg import as_matrix, dagger, kron
from .states import (
    DensityMatrix,
    TwoQubitThermalParams,
    TwoQutritThermalParams,
    bipartite_marginals,
    check_thermal_marginals,
    entropies,
    mutual_information_change,
    relative_entropy,
)
from .dynamics import evolve_on_grid, interaction_unitary

THERMAL_MARGIN_TOL = 1e-8


@dataclass(frozen=True)
class HeatResult:
    """Heat bookkeeping at a single evolution time."""

    q_A: float
    q_B: float
    delta_mutual_info: float
    clausius_lhs: float  # (beta_A - beta_B) <Q_A>  -  Delta I(A:B)
    entropy_production: float  # S(rho_A'||rho_A) + S(rho_B'||rho_B)


def heat_trace(rho: DensityMatrix, h_int, h_a_local, t: float) -> float:
    """<Q_A> = Tr{U rho U^dag (H_A x 1)} - Tr{rho (H_A x 1)}, with U from
    ``interaction_unitary``: a reference evolved apart from the sweep's ``EvolutionPlan``,
    and the general one, taking any H_A through ``kron``, where ``clausius_report`` and the
    sweep read diagonal energies."""
    ha = as_matrix(h_a_local)
    d_b = rho.dim // ha.shape[0]
    if ha.shape[0] * d_b != rho.dim:
        raise DimensionError(
            f"local dim {ha.shape[0]} does not divide state dim {rho.dim}"
        )
    ha_full = kron(ha, np.eye(d_b))
    u = interaction_unitary(h_int, t).matrix
    evolved = u @ rho.matrix @ dagger(u)
    return float(np.real(np.trace((evolved - rho.matrix) @ ha_full)))


def build_heat_2qubit_thermal(params: TwoQubitThermalParams, g: float, theta: float):
    """t -> <Q_A>(t) for the thermal two-qubit family in tanh form.

    <Q_A> = omega * ( (1/2) sin^2(gt) [tanh(omega beta_A / 2) - tanh(omega beta_B / 2)]
                      + eta sin(2gt) sin(xi - theta) ).

    The tanh term and sin(xi - theta) do not depend on t and are computed here,
    once; each call evaluates only the t-dependent rest, in the same grouping.
    """
    p = params
    thermal = 0.5 * (
        np.tanh(p.omega * p.beta_A / 2) - np.tanh(p.omega * p.beta_B / 2)
    )
    phase = np.sin(p.xi - theta)

    def heat(t):
        x = g * np.asarray(t, dtype=float)
        out = p.omega * (thermal * np.sin(x) ** 2 + p.eta * np.sin(2 * x) * phase)
        return out if out.ndim else float(out)

    return heat


def qutrit_heat_coefficients(params: TwoQutritThermalParams) -> tuple[float, float]:
    """Coefficients (zeta, xi) of <Q_A> = zeta sin^2(gt) + xi sin(gt)cos(gt).

    zeta collects the population imbalance between swapped levels; xi collects
    the coherences. Both are verified against the brute-force trace formula:

      zeta = sum_{i<j} (omega_j - omega_i)(p_{ij} - p_{ji})
      xi   = 2 [ eta31 (omega_1-omega_0) sin(theta31)
               + eta62 (omega_2-omega_0) sin(theta62)
               + eta75 (omega_2-omega_1) sin(theta75) ]
    """
    o0, o1, o2 = params.omegas
    p = params.diagonal_probabilities()
    zeta = (
        (o1 - o0) * (p[1] - p[3])
        + (o2 - o0) * (p[2] - p[6])
        + (o2 - o1) * (p[5] - p[7])
    )
    xi = 2.0 * (
        params.eta31 * (o1 - o0) * np.sin(params.theta31)
        + params.eta62 * (o2 - o0) * np.sin(params.theta62)
        + params.eta75 * (o2 - o1) * np.sin(params.theta75)
    )
    return float(zeta), float(xi)


def build_heat_qutrit(params: TwoQutritThermalParams, g: float):
    """t -> partial-SWAP <Q_A>(t) for the two-qutrit family, with (zeta, xi)
    from ``qutrit_heat_coefficients`` computed here, once."""
    zeta, xi = qutrit_heat_coefficients(params)

    def heat(t):
        x = g * np.asarray(t, dtype=float)
        s = np.sin(x)
        out = zeta * s**2 + xi * s * np.cos(x)
        return out if out.ndim else float(out)

    return heat


def clausius_report(
    rho: DensityMatrix,
    h_int,
    h_a_local,
    h_b_local,
    beta_A: float,
    beta_B: float,
    t: float,
) -> HeatResult:
    """Evaluate heat, mutual-information change, and entropy production.

    Verifies the identity
        S(rho_A'||rho_A) + S(rho_B'||rho_B)
            = beta_A <Q_A> + beta_B <Q_B> - Delta I(A:B)
    to 1e-9 and returns all pieces. Requires thermal marginals at the given
    betas (to 1e-8, looser than construction so externally loaded states pass),
    a check that admits only real diagonal local Hamiltonians. <Q_A> and <Q_B>
    are then the change of the evolved state's diagonal against the energies,
    A's repeated and B's tiled: the sweep oracle's formula, with no ``kron``.
    rho was validated when it was built; the evolved state and the four
    marginals derived from it are plain arrays.
    """
    ha, hb = as_matrix(h_a_local), as_matrix(h_b_local)
    check_thermal_marginals(
        rho, (ha, hb), (beta_A, beta_B), THERMAL_MARGIN_TOL, NonThermalMarginalsError
    )

    evolved = evolve_on_grid(rho, h_int, [t])[0]
    change = np.diagonal(evolved).real - np.diagonal(rho.matrix).real
    q_a = float(change @ np.repeat(np.diagonal(ha).real, rho.dims[1]))
    q_b = float(change @ np.tile(np.diagonal(hb).real, rho.dims[0]))

    # Row 0 holds the marginals of rho, row 1 those of the evolved state.
    rho_a, rho_b = bipartite_marginals(np.stack([rho.matrix, evolved]), rho.dims)
    delta_i = float(mutual_information_change(entropies(rho_a), entropies(rho_b))[1])
    entropy_production = relative_entropy(rho_a[1], rho_a[0]) + relative_entropy(
        rho_b[1], rho_b[0]
    )

    identity_gap = abs(entropy_production - (beta_A * q_a + beta_B * q_b - delta_i))
    if not identity_gap <= 1e-9:  # NaN fails too
        raise NumericsError(
            f"entropy-production identity violated by {identity_gap:.3g}"
        )

    return HeatResult(
        q_A=q_a,
        q_B=q_b,
        delta_mutual_info=delta_i,
        clausius_lhs=(beta_A - beta_B) * q_a - delta_i,
        entropy_production=entropy_production,
    )
