"""Shared generators for randomized tests.

All randomness flows through seeded np.random.default_rng instances created
per test, so every run is reproducible.
"""

import importlib
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from heatctx import (
    DecompositionError,
    DensityMatrix,
    DimensionError,
    Superoperator,
    SweepResult,
    TwoQubitThermalParams,
    TwoQutritThermalParams,
    clausius_report,
    eig_hermitian,
    interaction_unitary,
    kron,
    two_qubit_thermal,
    zeeman_hamiltonian,
)
from heatctx.contextuality import (
    CHOI_EIGENVALUE_FLOOR,
    CROSSING_REL_TOL,
    MINIMAL_PD_TOL,
    _eigenbasis_gaps,
    _symmetrized_conjugation,
    choi_matrix,
)
from heatctx.linalg import as_matrix, max_norm
from heatctx.scenarios import COLUMNS, CSV_HEADER
from heatctx.states import _gibbs_matrix

ENERGY_CONSERVATION_TOL = 1e-12
TRACE_PRESERVATION_TOL = 1e-9  # of a d^2 x d^2 reference channel; certification is exact


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


def reference_evolve_on_grid(rho, h_int, ts):
    """Reference: rho(t) on the grid from the two dense einsums, U(t) then U rho U^dag."""
    w, v = eig_hermitian(h_int.matrix)
    phases = np.exp(-1j * np.outer(ts, w))  # (N, d)
    u = np.einsum("ij,nj,kj->nik", v, phases, v.conj())
    return np.einsum("nij,jk,nlk->nil", u, rho.matrix, u.conj())


def reference_spectral_entropies(w):
    """Reference: ``states.spectral_entropies`` as written before its passes were thinned."""
    w = np.maximum(w, 0.0)
    terms = np.where(w == 0, 0.0, -w * np.log(np.where(w > 0, w, 1.0)))
    return terms.sum(axis=-1)


def reference_delta_mutual_info(rho, h_int, ts):
    """Reference: the sweep's I(t) - I(0) as written inline before the shared kernels."""
    d_a, d_b = rho.dims
    r4 = reference_evolve_on_grid(rho, h_int, ts).reshape(-1, d_a, d_b, d_a, d_b)

    def entropy(rhos):
        w = np.clip(np.linalg.eigvalsh(rhos), 0.0, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(w > 0, -w * np.log(np.where(w > 0, w, 1.0)), 0.0)
        return terms.sum(axis=-1)

    s_a = entropy(np.einsum("nijkj->nik", r4))
    s_b = entropy(np.einsum("nijil->njl", r4))
    return (s_a - s_a[0]) + (s_b - s_b[0])


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


def gibbs_state(h, beta: float) -> DensityMatrix:
    """Thermal state e^{-beta h} / Z, validated."""
    rho = _gibbs_matrix(h, beta)
    return DensityMatrix(rho, (rho.shape[0],))


def residual_channel(m: Superoperator, p_d: float) -> Superoperator:
    """The C of M = (1 - p_d) id + p_d C; at p_d = 0, M must be the identity."""
    ident = np.eye(m.dim * m.dim, dtype=complex)
    if p_d == 0:
        if max_norm(m.matrix - ident) > 1e-12:
            raise DecompositionError(
                "p_d = 0 claimed but the symmetrized map is not the identity"
            )
        return Superoperator.identity(m.dim)
    return Superoperator(m.dim, (m.matrix - (1 - p_d) * ident) / p_d)


def reference_tp_residual(s):
    """Reference: max |Tr{C(|i><j|)} - delta_ij|, one np.trace per matrix element."""
    d = s.dim
    t = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            t[i, j] = np.trace(s.matrix[:, j * d + i].reshape(d, d, order="F"))
    return float(np.max(np.abs(t - np.eye(d))))


def reference_cptp_verdict(c):
    """Reference: the verdict read off the full Choi spectrum."""
    eigs = np.linalg.eigvalsh(choi_matrix(c).matrix)
    return bool(
        eigs.min() >= CHOI_EIGENVALUE_FLOOR
        and reference_tp_residual(c) <= TRACE_PRESERVATION_TOL
    )


def reference_minimal_pd(h, t):
    """Reference: the minimal p_d of U = e^{-itH} judged on the full Choi spectrum.

    Returns (p, is_cptp of the extraction at p). The search is
    find_minimal_pd's: G_max / 2 if it is feasible, else the geometric
    bisection on [G_max / 2, 1]. Every verdict, the two bracket ends
    included, is read off the d^2 x d^2 Choi matrix of the residual channel
    of the symmetrized map of U.
    """
    m = _symmetrized_conjugation(interaction_unitary(h, t))
    if np.max(np.abs(m.matrix - np.eye(m.dim * m.dim))) <= 1e-12:
        return 0.0, True

    def feasible(p):
        return reference_cptp_verdict(residual_channel(m, p))

    g_max = _eigenbasis_gaps(h, t).max()
    lo, hi = g_max / 2, 1.0
    assert feasible(hi) and not feasible(lo * (1 - MINIMAL_PD_TOL))
    if feasible(lo):
        return lo, True
    while hi - lo > MINIMAL_PD_TOL * hi:
        mid = math.sqrt(lo * hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi, feasible(hi)


def reference_refine_bisection(f, lo, hi, guess=None):
    """Reference: the sequential bisection, one scalar f(t) per halving.

    It halves [lo, hi] at mid = (lo + hi) / 2 until the bracket is at most
    ``CROSSING_REL_TOL`` times |mid| wide, for at most 200 halvings, returns a
    mid where f is 0, and keeps the half on which f(lo) and f(mid) differ in
    sign. The guess is ignored.
    """
    flo = None  # f(lo), taken once the bracket is wider than the tolerance
    for _ in range(200):
        mid = (lo + hi) / 2
        if hi - lo <= CROSSING_REL_TOL * max(abs(mid), 1e-300):
            return mid
        if flo is None:
            flo = f(lo)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (flo < 0) != (fm < 0):
            hi = mid
        else:
            lo, flo = mid, fm
    return (lo + hi) / 2


def count_calls(monkeypatch, targets):
    """Count the calls of each (module, name) target, in every heatctx module holding it.

    A name ``Class.method`` counts the calls of a static or class method,
    replaced on its class. Returns a dict from name to count that the
    wrappers update in place.
    """
    calls = {}
    for module_name, name in targets:
        owner = importlib.import_module(module_name)
        *path, attr = name.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        calls[name] = 0

        def counted(*args, _fn=original, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        if path:
            monkeypatch.setattr(owner, attr, counted)
            continue
        holders = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "heatctx"]
        for module in [owner, *(m for m in holders if m is not owner)]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


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
