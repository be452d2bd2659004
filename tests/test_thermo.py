import numpy as np
import pytest

from heatctx import (
    DensityMatrix,
    DimensionError,
    NonResonantInteraction,
    NonThermalMarginalsError,
    NumericsError,
    ParamError,
    PartialSwapInteraction,
    ResonantInteraction,
    TwoQubitThermalParams,
    clausius_report,
    heat_trace,
    kron,
    qutrit_hamiltonian,
    qutrit_heat_coefficients,
    two_qubit_thermal,
    two_qutrit_thermal,
    zeeman_hamiltonian,
)

from heatctx import thermo
from heatctx.thermo import build_heat_2qubit_thermal, build_heat_qutrit, harmonic_heat

from conftest import (
    count_calls,
    gibbs_state,
    population_form_heat,
    qubit_clausius,
    qubit_thermal_populations,
    random_density,
    random_two_qubit_params,
    random_two_qutrit_params,
)


def test_heat_zero_at_t0():
    p = TwoQubitThermalParams(omega=1.0, beta_A=0.8, beta_B=0.3, eta=0.1)
    rho = two_qubit_thermal(p)
    h = ResonantInteraction(1.0, theta=0.7).hamiltonian()
    assert heat_trace(rho, h, zeeman_hamiltonian(1.0), 0.0) == pytest.approx(0.0, abs=1e-14)


def test_heat_trace_builds_no_evolution_plan(monkeypatch):
    # The trace formula is the sweep's reference, so it evolves through its own
    # matrix exponential, not the sweep's kernel.
    p = TwoQubitThermalParams(omega=1.0, beta_A=0.8, beta_B=0.3, eta=0.1)
    rho, local = two_qubit_thermal(p), zeeman_hamiltonian(1.0)
    h = ResonantInteraction(1.0, theta=0.7).hamiltonian()
    calls = count_calls(monkeypatch, [("heatctx.dynamics", "EvolutionPlan")])
    heat_trace(rho, h, local, 0.9)
    assert calls == {"EvolutionPlan": 0}
    clausius_report(rho, h, local, local, p.beta_A, p.beta_B, 0.9)
    assert calls == {"EvolutionPlan": 1}


def test_heat_trace_needs_a_local_dim_dividing_the_states():
    rho = DensityMatrix(np.eye(4) / 4, (2, 2))
    h = ResonantInteraction(1.0).hamiltonian()
    with pytest.raises(DimensionError, match="does not divide"):
        heat_trace(rho, h, qutrit_hamiltonian((0.0, 1.0, 2.0)), 0.3)


def test_nonresonant_transfers_no_heat():
    rng = np.random.default_rng(9)
    h = NonResonantInteraction(0.8).hamiltonian()
    for _ in range(10):
        rho = DensityMatrix(random_density(rng, 4), (2, 2))
        t = rng.uniform(0, 10)
        q = heat_trace(rho, h, zeeman_hamiltonian(1.3), t)
        assert abs(q) < 1e-12


def test_harmonic_heat_with_zero_coefficients_is_positive_zero():
    # The non-resonant family's closed form: 0 s^2 + (0 s) c is +0.0 wherever sin x < 0 too.
    heat = harmonic_heat(0.0, 0.0, 0.8)
    q = heat(np.linspace(0.0, 1e6, 10_001))
    assert q.dtype == np.float64 and not np.any(q) and not np.any(np.signbit(q))
    q = heat(4.0)  # sin(3.2) < 0
    assert type(q) is float and q == 0.0 and not np.signbit(q)


def test_closed_form_quarter_period():
    # at gt = pi/2 the coherent term vanishes, leaving omega*(p01 - p10)
    params = TwoQubitThermalParams(omega=2.0, beta_A=0.8, beta_B=0.3, eta=0.05, xi=0.7)
    p = qubit_thermal_populations(params.omega, params.beta_A, params.beta_B)
    q = build_heat_2qubit_thermal(params, 1.0, 0.2)(np.pi / 2)
    assert q == pytest.approx(2.0 * (p[1] - p[2]), abs=1e-12)


def test_closed_form_vanishes_without_imbalance():
    ts = np.linspace(0, 5, 50)
    params = TwoQubitThermalParams(omega=1.0, beta_A=0.7, beta_B=0.7)
    q = build_heat_2qubit_thermal(params, 1.0, 0.5)(ts)
    assert np.max(np.abs(q)) == 0.0


def test_closed_form_matches_trace_resonant():
    rng = np.random.default_rng(101)
    for _ in range(100):
        params = random_two_qubit_params(rng)
        rho = two_qubit_thermal(params)
        g = rng.uniform(0.1, 2.0)
        theta = rng.uniform(0, 2 * np.pi)
        a = rng.uniform(-2, 2)
        t = rng.uniform(0, 2 * np.pi / g)
        h = ResonantInteraction(g, a, theta).hamiltonian()
        q_ref = heat_trace(rho, h, zeeman_hamiltonian(params.omega), t)
        q = build_heat_2qubit_thermal(params, g, theta)(t)
        assert abs(q - q_ref) < 1e-10


def test_thermal_form_equals_population_form():
    rng = np.random.default_rng(55)
    for _ in range(200):
        params = random_two_qubit_params(rng)
        p = qubit_thermal_populations(params.omega, params.beta_A, params.beta_B)
        g = rng.uniform(0.1, 2.0)
        theta = rng.uniform(0, 2 * np.pi)
        t = rng.uniform(0, 10)
        q_pop = population_form_heat(
            p[1], p[2], params.eta, params.xi, g, theta, params.omega, t
        )
        q_th = build_heat_2qubit_thermal(params, g, theta)(t)
        assert abs(q_pop - q_th) < 1e-12


def test_equal_temperatures_no_coherence_no_heat():
    params = TwoQubitThermalParams(omega=1.0, beta_A=0.6, beta_B=0.6)
    ts = np.linspace(0, 8, 100)
    q = build_heat_2qubit_thermal(params, 1.0, 0.3)(ts)
    assert np.max(np.abs(q)) < 1e-15


def test_colder_a_receives_heat_without_coherence():
    # beta_A > beta_B means A colder; heat into A should never be negative
    params = TwoQubitThermalParams(omega=1.0, beta_A=1.5, beta_B=0.4)
    ts = np.linspace(0, 8, 200)
    q = build_heat_2qubit_thermal(params, 1.0, 0.0)(ts)
    assert np.min(q) >= -1e-15


def test_micadei_anomalous_heat_is_positive():
    # hot qubit A receives heat early in the window because of the coherence
    params = TwoQubitThermalParams(
        omega=4.135e-12, beta_A=1 / 4.3e-12, beta_B=1 / 3.66e-12, eta=-0.19
    )
    q = build_heat_2qubit_thermal(params, np.pi * 215.1, np.pi / 2)(1e-4)
    assert q > 0
    rho = two_qubit_thermal(params)
    h = ResonantInteraction(np.pi * 215.1, 0.0, np.pi / 2).hamiltonian()
    q_ref = heat_trace(rho, h, zeeman_hamiltonian(params.omega), 1e-4)
    assert q == pytest.approx(q_ref, abs=1e-20)


class TestQutritHeat:
    def test_zero_coherence_means_zero_xi(self):
        rng = np.random.default_rng(3)
        p = random_two_qutrit_params(rng)
        from dataclasses import replace

        p0 = replace(p, eta31=0.0, eta62=0.0, eta75=0.0)
        zeta, xi = qutrit_heat_coefficients(p0)
        assert xi == 0.0
        ts = np.linspace(0, 4, 20)
        q = build_heat_qutrit(p0, 1.0)(ts)
        assert np.max(np.abs(q - zeta * np.sin(ts) ** 2)) < 1e-15

    def test_equally_spaced_simple_form(self):
        from heatctx import TwoQutritThermalParams

        dw = 0.6
        p = TwoQutritThermalParams(
            omegas=(0.0, dw, 2 * dw),
            beta_A=0.5,
            beta_B=1.1,
            eta31=0.01,
            eta62=-0.02,
            eta75=0.015,
            theta31=np.pi / 2,
            theta62=np.pi / 2,
            theta75=np.pi / 2,
        )
        _, xi = qutrit_heat_coefficients(p)
        # with equal spacing and pi/2 phases the coherence coefficient
        # collapses to 2*dw*(eta31 + 2*eta62 + eta75)
        assert xi == pytest.approx(2 * dw * (p.eta31 + 2 * p.eta62 + p.eta75), abs=1e-15)

    def test_full_swap_heat_is_zeta(self):
        rng = np.random.default_rng(21)
        p = random_two_qutrit_params(rng)
        zeta, _ = qutrit_heat_coefficients(p)
        assert build_heat_qutrit(p, 1.0)(np.pi / 2) == pytest.approx(zeta, abs=1e-15)

    def test_matches_trace_formula(self):
        rng = np.random.default_rng(303)
        for _ in range(100):
            p = random_two_qutrit_params(rng)
            rho = two_qutrit_thermal(p)
            g = rng.uniform(0.1, 2.0)
            t = rng.uniform(0, 2 * np.pi / g)
            h = PartialSwapInteraction(g, local_dim=3).hamiltonian()
            q_ref = heat_trace(rho, h, qutrit_hamiltonian(p.omegas), t)
            assert abs(build_heat_qutrit(p, g)(t) - q_ref) < 1e-10

    def test_hotter_a_gives_negative_zeta(self):
        # beta_A < beta_B (A hotter): excitation flows out of A, so the
        # population coefficient is negative, matching the two-qubit convention
        from heatctx import TwoQutritThermalParams

        p = TwoQutritThermalParams(omegas=(0.0, 0.7, 1.4), beta_A=0.3, beta_B=1.2)
        zeta, _ = qutrit_heat_coefficients(p)
        assert zeta < 0


class TestClausius:
    def test_zero_time_all_zero(self):
        params = TwoQubitThermalParams(omega=1.0, beta_A=0.9, beta_B=0.4, eta=0.05)
        res = qubit_clausius(params, ResonantInteraction(1.0, theta=0.3), 0.0)
        assert abs(res.q_A) < 1e-12
        assert abs(res.q_B) < 1e-12
        assert abs(res.delta_mutual_info) < 1e-9
        assert abs(res.entropy_production) < 1e-9

    def test_product_states_obey_plain_clausius(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            params = random_two_qubit_params(rng, eta_frac_max=0.0)
            inter = ResonantInteraction(
                rng.uniform(0.1, 2), a=rng.uniform(-1, 1), theta=rng.uniform(0, 2 * np.pi)
            )
            res = qubit_clausius(params, inter, rng.uniform(0, 6))
            assert (params.beta_A - params.beta_B) * res.q_A >= -1e-10
            assert res.delta_mutual_info >= -1e-10
            assert res.clausius_lhs >= -1e-9

    def test_heat_is_conserved(self):
        rng = np.random.default_rng(72)
        for _ in range(30):
            params = random_two_qubit_params(rng)
            inter = ResonantInteraction(
                rng.uniform(0.1, 2), a=rng.uniform(-1, 1), theta=rng.uniform(0, 2 * np.pi)
            )
            res = qubit_clausius(params, inter, rng.uniform(0, 6))
            assert abs(res.q_A + res.q_B) < 1e-10

    def test_anomaly_consumes_correlations(self):
        # inside the anomaly window the hot qubit gains heat while the
        # mutual information drops, and the corrected inequality still holds
        params = TwoQubitThermalParams(
            omega=4.135e-12, beta_A=1 / 4.3e-12, beta_B=1 / 3.66e-12, eta=-0.19
        )
        inter = ResonantInteraction(np.pi * 215.1, 0.0, np.pi / 2)
        res = qubit_clausius(params, inter, 1e-4)
        assert res.q_A > 0
        assert res.delta_mutual_info < 0
        assert res.clausius_lhs >= -1e-9

    def test_qutrit_report(self):
        rng = np.random.default_rng(15)
        params = random_two_qutrit_params(rng)
        local = qutrit_hamiltonian(params.omegas)
        h = PartialSwapInteraction(1.0, 3).hamiltonian()
        res = clausius_report(
            two_qutrit_thermal(params), h, local, local, params.beta_A, params.beta_B, 0.9
        )
        assert abs(res.q_A + res.q_B) < 1e-10
        assert res.entropy_production >= -1e-9

    def test_a_nan_identity_gap_is_a_violation(self, monkeypatch):
        monkeypatch.setattr(thermo, "relative_entropy_given", lambda rho, sigma, entropy: float("nan"))
        params = TwoQubitThermalParams(omega=1.0, beta_A=0.9, beta_B=0.4, eta=0.05)
        with pytest.raises(NumericsError, match="identity violated by nan"):
            qubit_clausius(params, ResonantInteraction(1.0, theta=0.3), 0.7)

    def test_nonthermal_marginals_rejected(self):
        rng = np.random.default_rng(6)
        rho = DensityMatrix(random_density(rng, 4), (2, 2))
        h = ResonantInteraction(1.0).hamiltonian()
        local = zeeman_hamiltonian(1.0)
        with pytest.raises(NonThermalMarginalsError):
            clausius_report(rho, h, local, local, 0.5, 0.9, 0.3)

    def test_mismatched_local_dims_rejected(self):
        params = TwoQubitThermalParams(omega=1.0, beta_A=0.9, beta_B=0.4)
        h = ResonantInteraction(1.0).hamiltonian()
        qutrit = qutrit_hamiltonian((0.0, 1.0, 2.0))
        with pytest.raises(DimensionError):
            clausius_report(
                two_qubit_thermal(params), h, qutrit, zeeman_hamiltonian(1.0), 0.9, 0.4, 0.3
            )

    @pytest.mark.parametrize(
        "local",
        [
            np.array([[0.0, 0.1], [0.1, 1.0]]),
            np.array([[0.0, 1e-300], [1e-300, 1.0]]),  # no tolerance
            np.diag([0.0, 1.0 + 1e-300j]),
        ],
    )
    def test_a_local_hamiltonian_must_be_real_diagonal(self, local):
        # Gibbs references and heats read a local Hamiltonian's diagonal as its energies.
        rho = two_qubit_thermal(TwoQubitThermalParams(omega=1.0, beta_A=0.9, beta_B=0.4))
        h, zeeman = ResonantInteraction(1.0).hamiltonian(), zeeman_hamiltonian(1.0)
        for ha, hb in ((local, zeeman), (zeeman, local)):
            with pytest.raises(ParamError, match="must be real diagonal"):
                clausius_report(rho, h, ha, hb, 0.9, 0.4, 0.3)
        with pytest.raises(ParamError, match="must be real diagonal"):
            gibbs_state(local, 0.9)

    def test_nu0_has_no_effect_on_heat(self):
        base = TwoQubitThermalParams(omega=1.0, beta_A=0.9, beta_B=0.4, eta=0.05)
        rho0 = two_qubit_thermal(base)
        nu0 = base.default_nu0()
        from dataclasses import replace

        shifted = two_qubit_thermal(replace(base, nu0=nu0 + 0.01))
        h = ResonantInteraction(1.0, 0.2, 0.5).hamiltonian()
        local = zeeman_hamiltonian(1.0)
        for t in (0.3, 1.1, 2.9):
            q0 = heat_trace(rho0, h, local, t)
            q1 = heat_trace(shifted, h, local, t)
            assert abs(q0 - q1) < 1e-12
