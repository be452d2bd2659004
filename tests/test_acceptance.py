"""Acceptance gate: one test per release criterion, one PASS/FAIL line each."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from heatctx import (
    NonResonantInteraction,
    PartialSwapInteraction,
    ResonantInteraction,
    TwoQubitThermalParams,
    builtin_micadei,
    builtin_qutrit_demo,
    clausius_report,
    extract_stochastic_reversibility,
    find_critical_times,
    format_csv,
    heat_trace,
    nc_bound_theorem1,
    nc_bound_theorem2,
    qutrit_critical_times_analytic,
    qutrit_hamiltonian,
    run_sweep,
    sequential_b_factors,
    two_qubit_thermal,
    two_qutrit_thermal,
    zeeman_hamiltonian,
)
from heatctx.thermo import build_heat_2qubit_thermal, build_heat_qutrit

from conftest import (
    population_form_heat,
    qubit_clausius,
    random_two_qubit_params,
    random_two_qutrit_params,
)


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {status}: {label}{suffix}")
    assert ok, f"criterion {num}: {label}{suffix}"


def test_criterion_1_critical_time_reproduction():
    start = time.perf_counter()
    result = run_sweep(builtin_micadei())
    elapsed = time.perf_counter() - start
    times = result.critical_times
    ok = bool(times) and abs(times[0] - 1.85e-4) / 1.85e-4 <= 0.05 and elapsed < 10.0
    detail = f"tau_c={times[0]:.4e} s, runtime={elapsed:.2f} s" if times else "no crossing"
    report(1, "first crossing 1.85e-4 s +/- 5%, runtime < 10 s", ok, detail)


def test_criterion_2_choi_spectra():
    ok = True
    worst = 0.0
    g, t = 0.8, 1.1
    cases = [NonResonantInteraction(g).hamiltonian()]
    p_ds = [math.sin(g * t / 2) ** 2]
    for theta in (0.0, math.pi / 4, math.pi / 2):
        inter = ResonantInteraction(g, a=0.0, theta=theta)
        cases.append(inter.exchange_part())
        p_ds.append(math.sin(g * t) ** 2)
    for h, p_d in zip(cases, p_ds):
        rep = extract_stochastic_reversibility(h, t, p_d)
        w = np.sort(rep.choi_eigenvalues)
        dev = max(np.max(np.abs(w[:15])), abs(w[15] - 4.0))
        worst = max(worst, dev)
        ok = ok and dev <= 1e-9
    report(2, "Choi eigenvalues (0 x 15, 4) within 1e-9", ok, f"max deviation {worst:.2e}")


def test_criterion_3_decomposition_feasibility():
    rng = np.random.default_rng(2024)
    ok = True
    checked = 0
    while checked < 50:
        g = rng.uniform(0.1, 2.0)
        a = rng.uniform(-2.0, 2.0)
        theta = rng.uniform(0.0, 2 * math.pi)
        t = rng.uniform(0.0, 2 * math.pi / g)
        p_d1 = math.sin((a - 1.0) * g * t / 2) ** 2
        p_d2 = math.sin(g * t) ** 2
        inter = ResonantInteraction(g, a, theta)
        ok = ok and extract_stochastic_reversibility(inter.detuning_part(), t, p_d1).is_cptp
        ok = ok and extract_stochastic_reversibility(inter.exchange_part(), t, p_d2).is_cptp
        checked += 1
    checked = 0
    while checked < 50:
        g = rng.uniform(0.1, 2.0)
        t = rng.uniform(0.0, 2 * math.pi / g)
        p_d = math.sin(g * t / 2) ** 2
        h = NonResonantInteraction(g).hamiltonian()
        ok = ok and extract_stochastic_reversibility(h, t, p_d).is_cptp
        checked += 1
    report(3, "analytic p_d values give CPTP residual channels (50+50)", ok)


def test_criterion_4_closed_forms_vs_trace():
    rng = np.random.default_rng(4)
    worst = 0.0
    # resonant population form and thermal tanh form
    for _ in range(1000):
        params = random_two_qubit_params(rng)
        rho = two_qubit_thermal(params)
        g = rng.uniform(0.1, 2.0)
        a = rng.uniform(-2.0, 2.0)
        theta = rng.uniform(0.0, 2 * math.pi)
        t = rng.uniform(0.0, 2 * math.pi / g)
        h = ResonantInteraction(g, a, theta).hamiltonian()
        q_ref = heat_trace(rho, h, zeeman_hamiltonian(params.omega), t)
        pops = np.diag(rho.matrix).real
        q_pop = population_form_heat(
            pops[1], pops[2], params.eta, params.xi, g, theta, params.omega, t
        )
        q_th = build_heat_2qubit_thermal(params, g, theta)(t)
        worst = max(worst, abs(q_pop - q_ref), abs(q_th - q_ref))
    # partial-SWAP qutrit form
    for _ in range(1000):
        params = random_two_qutrit_params(rng)
        rho = two_qutrit_thermal(params)
        g = rng.uniform(0.1, 2.0)
        t = rng.uniform(0.0, 2 * math.pi / g)
        h = PartialSwapInteraction(g, local_dim=3).hamiltonian()
        q_ref = heat_trace(rho, h, qutrit_hamiltonian(params.omegas), t)
        worst = max(worst, abs(build_heat_qutrit(params, g)(t) - q_ref))
    report(4, "closed forms match trace formula to 1e-10 (1000 each)", worst <= 1e-10, f"max |diff| {worst:.2e}")


def test_criterion_5_thermodynamic_consistency():
    rng = np.random.default_rng(5)
    ok = True
    for i in range(500):
        if i % 3 == 2:
            params = random_two_qutrit_params(rng)
            g = rng.uniform(0.1, 2.0)
            local = qutrit_hamiltonian(params.omegas)
            res = clausius_report(
                two_qutrit_thermal(params),
                PartialSwapInteraction(g, 3).hamiltonian(),
                local,
                local,
                params.beta_A,
                params.beta_B,
                rng.uniform(0.0, 2 * math.pi / g),
            )
        else:
            params = random_two_qubit_params(rng)
            inter = ResonantInteraction(
                rng.uniform(0.1, 2.0),
                a=rng.uniform(-2.0, 2.0),
                theta=rng.uniform(0.0, 2 * math.pi),
            )
            res = qubit_clausius(params, inter, rng.uniform(0.0, 8.0))
        # clausius_report itself enforces the entropy-production identity to 1e-9
        ok = ok and abs(res.q_A + res.q_B) <= 1e-10
        ok = ok and res.entropy_production >= -1e-9
        ok = ok and res.clausius_lhs >= -1e-9
    # plain second law for product (uncorrelated) inputs
    for _ in range(100):
        params = random_two_qubit_params(rng, eta_frac_max=0.0)
        inter = ResonantInteraction(
            rng.uniform(0.1, 2.0), a=rng.uniform(-2.0, 2.0), theta=rng.uniform(0.0, 2 * math.pi)
        )
        res = qubit_clausius(params, inter, rng.uniform(0.0, 8.0))
        ok = ok and (params.beta_A - params.beta_B) * res.q_A >= -1e-10
    report(5, "energy conservation, entropy production, Clausius forms (500+100)", ok)


def test_criterion_6_bound_algebra():
    ok = True
    grid = np.linspace(0.0, 1.0, 41)
    for p1 in grid:
        b2 = nc_bound_theorem2(1.3, p1, 0.0)
        b1 = nc_bound_theorem1(1.3, p1, 0.5)
        ok = ok and b2.lower == b1.lower and b2.upper == b1.upper
    b0 = nc_bound_theorem1(1.0, 0.0, 0.5)
    ok = ok and b0.lower == 0.0 and b0.upper == 0.0
    for p1 in grid:
        for p2 in grid:
            b_minus, b_plus = sequential_b_factors(p1, p2)
            ok = ok and b_minus >= b_plus - 1e-15 and b_plus >= -1e-15
    report(6, "sequential bound reduces to single bound at p_d2=0; degenerate cases", ok)


def _two_qubit_bounds(omega, g, a, ts):
    x = g * np.asarray(ts, dtype=float)
    p_d1 = np.sin(x) ** 2
    p_d2 = np.sin((a - 1.0) * x / 2) ** 2
    b_minus, b_plus = sequential_b_factors(p_d1, p_d2)
    return 2 * omega * b_plus, -4 * omega * b_minus


def test_criterion_7_coherence_witness():
    rng = np.random.default_rng(7)
    found = 0
    trials = 0
    while trials < 100:
        params = random_two_qubit_params(rng)
        theta = rng.uniform(0.0, 2 * math.pi)
        if abs(params.eta * math.sin(params.xi - theta)) < 1e-3:
            continue
        trials += 1
        g, a = 1.0, 0.0
        ts = np.geomspace(1e-9, 2 * math.pi, 4000)
        heat = build_heat_2qubit_thermal(params, g, theta)(ts)
        upper, lower = _two_qubit_bounds(params.omega, g, a, ts)
        if np.any((heat > upper) | (heat < lower)):
            found += 1
    ok = found == 100
    # with no coherence the Micadei grid shows no violation anywhere
    config = builtin_micadei()
    state = dict(config.state)
    state["eta"] = 0.0
    result = run_sweep(replace(config, state=state))
    none_found = not any(r.violates for r in result.records)
    ok = ok and none_found
    report(
        7,
        "coherent witness found for 100/100 states; none with eta=0",
        ok,
        f"found {found}/100, eta=0 violations {sum(r.violates for r in result.records)}",
    )


def test_criterion_8_qutrit_analytic_crossings():
    rng = np.random.default_rng(8)
    worst = 0.0
    ok = True
    for _ in range(50):
        zeta = rng.uniform(-1.0, 1.0)
        xi = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
        g = rng.uniform(0.5, 2.0)
        omega_max = rng.uniform(1.0, 2.0)
        tau_u, tau_l = qutrit_critical_times_analytic(zeta, xi, omega_max, g)

        def heat(t):
            x = g * np.asarray(t, dtype=float)
            return zeta * np.sin(x) ** 2 + xi * np.sin(x) * np.cos(x)

        def upper(t):
            return 2 * omega_max * np.sin(g * np.asarray(t, dtype=float)) ** 2

        def lower(t):
            return -4 * omega_max * np.sin(g * np.asarray(t, dtype=float)) ** 2

        def bounds(t):
            return upper(t), lower(t)

        ts = np.linspace(0.0, 0.999 * math.pi / g, 40000)
        crossings = find_critical_times(ts, heat, bounds)
        by_side = {}
        for c in crossings:
            by_side.setdefault(c.side, c.time)
        for side, expect in (("upper", tau_u), ("lower", tau_l)):
            if side not in by_side:
                ok = False
                continue
            rel = abs(by_side[side] - expect) / expect
            worst = max(worst, rel)
            ok = ok and rel <= 1e-8
    report(8, "numeric crossings match analytic formulas to 1e-8 (50 triples)", ok, f"max rel err {worst:.2e}")


def test_criterion_9_determinism():
    ok = True
    for config in (builtin_micadei(), builtin_qutrit_demo()):
        a = format_csv(run_sweep(config))
        b = format_csv(run_sweep(config))
        ok = ok and a == b
    report(9, "repeated builtin runs give byte-identical CSV", ok)
