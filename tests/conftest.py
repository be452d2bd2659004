"""Shared generators for randomized tests.

All randomness flows through seeded np.random.default_rng instances created
per test, so every run is reproducible.
"""

import json
from dataclasses import asdict

import numpy as np

from heatctx import (
    SweepResult,
    TwoQubitThermalParams,
    TwoQutritThermalParams,
    clausius_report,
    eig_hermitian,
    two_qubit_thermal,
    zeeman_hamiltonian,
)
from heatctx.scenarios import COLUMNS, CSV_HEADER


def random_hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


def random_unitary(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def qubit_thermal_populations(omega, beta_A, beta_B):
    """Diagonal of the product of local Gibbs states, basis |00>,|01>,|10>,|11>."""
    za = 1.0 + np.exp(-omega * beta_A)
    zb = 1.0 + np.exp(-omega * beta_B)
    pa = np.array([1.0, np.exp(-omega * beta_A)]) / za
    pb = np.array([1.0, np.exp(-omega * beta_B)]) / zb
    return np.outer(pa, pb).reshape(4)


def population_form_heat(p01, p10, eta, xi, g, theta, omega, t):
    """Reference: resonant two-qubit heat from the populations and the |01><10| coherence.

    <Q_A> = omega ((p01 - p10) sin^2(gt) + eta sin(2gt) sin(xi - theta)).
    """
    x = g * np.asarray(t, dtype=float)
    return omega * ((p01 - p10) * np.sin(x) ** 2 + eta * np.sin(2 * x) * np.sin(xi - theta))


def reference_csv(records):
    """Reference: the record-by-record CSV rendering, one SweepRecord per line."""
    lines = [CSV_HEADER]
    for r in records:
        floats = [r.t, r.heat, r.bound_upper, r.bound_lower]
        fields = [f"{x:.16e}" for x in floats] + ["true" if r.violates else "false"]
        lines.append(",".join(fields + [f"{r.delta_mutual_info:.16e}"]))
    return "\n".join(lines) + "\n"


def reference_json(result):
    """Reference: the whole payload, records as dicts, through json.dumps(indent=2)."""
    payload = {
        "config": result.config.to_dict(),
        "records": [asdict(r) for r in result.records],
        "critical_times": result.critical_times,
        "crossings": [{"time": c.time, "side": c.side} for c in result.crossings],
    }
    return json.dumps(payload, indent=2) + "\n"


def reference_delta_mutual_info(rho, h_int, ts):
    """Reference: the sweep's I(t) - I(0) as written inline before the shared kernels."""
    w, v = eig_hermitian(h_int.matrix)
    d_a, d_b = rho.dims
    phases = np.exp(-1j * np.outer(ts, w))  # (N, d)
    u = np.einsum("ij,nj,kj->nik", v, phases, v.conj())
    rho_t = np.einsum("nij,jk,nlk->nil", u, rho.matrix, u.conj())
    r4 = rho_t.reshape(-1, d_a, d_b, d_a, d_b)

    def entropy(rhos):
        w = np.clip(np.linalg.eigvalsh(rhos), 0.0, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(w > 0, -w * np.log(np.where(w > 0, w, 1.0)), 0.0)
        return terms.sum(axis=-1)

    s_a = entropy(np.einsum("nijkj->nik", r4))
    s_b = entropy(np.einsum("nijil->njl", r4))
    return (s_a - s_a[0]) + (s_b - s_b[0])


def result_from_records(config, records, crossings=()):
    """A SweepResult whose columns hold the given SweepRecords."""
    columns = {
        name: np.array([getattr(r, name) for r in records], dtype=float) for name in COLUMNS
    }
    columns["violates"] = columns["violates"].astype(bool)
    return SweepResult(config=config, crossings=list(crossings), **columns)


def qubit_clausius(params, interaction, t):
    """clausius_report for the thermal two-qubit state with Zeeman locals on A and B."""
    local = zeeman_hamiltonian(params.omega)
    return clausius_report(
        two_qubit_thermal(params),
        interaction.hamiltonian(),
        local,
        local,
        params.beta_A,
        params.beta_B,
        t,
    )


def random_two_qubit_params(rng, eta_frac_max=0.95, with_extras=False):
    """Random valid parameters; eta stays inside the positivity disc."""
    omega = rng.uniform(0.5, 2.0)
    beta_a = rng.uniform(0.1, 2.0)
    beta_b = rng.uniform(0.1, 2.0)
    p = qubit_thermal_populations(omega, beta_a, beta_b)
    eta_cap = np.sqrt(p[1] * p[2])
    eta = rng.uniform(-eta_frac_max, eta_frac_max) * eta_cap
    xi = rng.uniform(0.0, 2 * np.pi)
    extras = {}
    if with_extras:
        # Small remaining off-diagonals; positivity still checked downstream.
        scale = 0.05 * p.min()
        for key in ("nu1", "nu2", "gamma"):
            extras[key] = complex(rng.normal(0, scale), rng.normal(0, scale))
    return TwoQubitThermalParams(
        omega=omega, beta_A=beta_a, beta_B=beta_b, eta=eta, xi=xi, **extras
    )


def random_two_qutrit_params(rng, eta_frac_max=0.9):
    oms = np.sort(rng.uniform(0.0, 2.0, size=3))
    beta_a = rng.uniform(0.1, 2.0)
    beta_b = rng.uniform(0.1, 2.0)
    params0 = TwoQutritThermalParams(
        omegas=tuple(oms), beta_A=beta_a, beta_B=beta_b
    )
    p = params0.diagonal_probabilities()
    caps = {
        "eta31": np.sqrt(p[1] * p[3]),
        "eta62": np.sqrt(p[2] * p[6]),
        "eta75": np.sqrt(p[5] * p[7]),
    }
    # Split the positivity budget so all three coherences can coexist.
    etas = {
        k: rng.uniform(-eta_frac_max, eta_frac_max) * cap / 2
        for k, cap in caps.items()
    }
    thetas = {t: rng.uniform(0.0, 2 * np.pi) for t in ("theta31", "theta62", "theta75")}
    return TwoQutritThermalParams(
        omegas=tuple(oms), beta_A=beta_a, beta_B=beta_b, **etas, **thetas
    )
