import numpy as np
import pytest

from heatctx import (
    Crossing,
    DecompositionError,
    NonResonantInteraction,
    ParamError,
    PartialSwapInteraction,
    ResonantInteraction,
    Superoperator,
    UnitaryOp,
    builtin_micadei,
    choi_matrix,
    extract_stochastic_reversibility,
    find_critical_times,
    find_minimal_pd,
    interaction_unitary,
    nc_bound_theorem1,
    nc_bound_theorem2,
    qutrit_critical_times_analytic,
    resonant_decomposition_factors,
    sequential_b_factors,
    swap_operator,
    trace_preservation_residual,
    unitary_to_superoperator,
)

from heatctx.scenarios import _ScenarioEngine

from conftest import random_density, random_unitary

SX = np.array([[0, 1], [1, 0]], dtype=complex)


class TestSuperoperator:
    def test_identity(self):
        s = Superoperator.identity(3)
        x = np.arange(9).reshape(3, 3).astype(complex)
        assert np.array_equal(s.apply(x), x)

    def test_conjugation_matches_direct(self):
        rng = np.random.default_rng(12)
        for d in (2, 3, 4):
            u = random_unitary(rng, d)
            s = unitary_to_superoperator(u)
            x = random_density(rng, d)
            assert np.max(np.abs(s.apply(x) - u @ x @ u.conj().T)) < 1e-12

    def test_sigma_x_on_basis_matrices(self):
        s = unitary_to_superoperator(SX)
        for i in range(2):
            for j in range(2):
                e = np.zeros((2, 2), dtype=complex)
                e[i, j] = 1.0
                assert np.allclose(s.apply(e), SX @ e @ SX)

    def test_swap_point_conjugation(self):
        u = interaction_unitary(PartialSwapInteraction(1.0, 2).hamiltonian(), np.pi / 2)
        s = unitary_to_superoperator(u)
        swap = swap_operator(2)
        rng = np.random.default_rng(44)
        x = random_density(rng, 4)
        assert np.max(np.abs(s.apply(x) - swap @ x @ swap)) < 1e-12


class TestChoi:
    def test_identity_channel_choi(self):
        lam = choi_matrix(Superoperator.identity(2)).matrix
        w = np.linalg.eigvalsh(lam)
        assert np.allclose(w, [0, 0, 0, 2], atol=1e-12)
        assert np.trace(lam).real == pytest.approx(2.0)

    def test_matches_the_blockwise_construction(self):
        # Lambda assembled block by block: block (i, j) is C(|i><j|).
        rng = np.random.default_rng(12)
        for k in range(200):
            d = (2, 3, 4, 9)[k % 4]
            m = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
            s = Superoperator(d, m)
            lam = np.zeros((d * d, d * d), dtype=complex)
            for i in range(d):
                for j in range(d):
                    block = m[:, j * d + i].reshape(d, d, order="F")
                    lam[i * d : (i + 1) * d, j * d : (j + 1) * d] = block
            assert np.array_equal(choi_matrix(s).matrix, (lam + lam.conj().T) / 2)

    def test_unitary_conjugation_choi_is_rank_one(self):
        rng = np.random.default_rng(9)
        for d in (2, 4):
            s = unitary_to_superoperator(random_unitary(rng, d))
            w = np.linalg.eigvalsh(choi_matrix(s).matrix)
            assert np.max(np.abs(w[:-1])) < 1e-9
            assert w[-1] == pytest.approx(d, abs=1e-9)
            assert trace_preservation_residual(s) < 1e-12


class TestDecomposition:
    def test_partial_swap_channel_is_swap_conjugation(self):
        g, t = 1.0, 0.8
        u = interaction_unitary(PartialSwapInteraction(g, 2).hamiltonian(), t)
        report = extract_stochastic_reversibility(u, np.sin(g * t) ** 2)
        assert report.is_cptp
        swap_conj = unitary_to_superoperator(swap_operator(2))
        assert np.max(np.abs(report.residual_channel.matrix - swap_conj.matrix)) < 1e-10

    def test_nonresonant_choi_spectrum(self):
        g, t = 0.7, 1.3
        u = interaction_unitary(NonResonantInteraction(g).hamiltonian(), t)
        report = extract_stochastic_reversibility(u, np.sin(g * t / 2) ** 2)
        assert report.is_cptp
        w = np.sort(report.choi_eigenvalues)
        assert np.max(np.abs(w[:15])) < 1e-9
        assert w[15] == pytest.approx(4.0, abs=1e-9)

    def test_exchange_factor_choi_spectrum(self):
        g, t = 1.0, 0.6
        for theta in (0.0, np.pi / 4, np.pi / 2):
            inter = ResonantInteraction(g, a=0.0, theta=theta)
            u = interaction_unitary(inter.exchange_part(), t)
            report = extract_stochastic_reversibility(u, np.sin(g * t) ** 2)
            assert report.is_cptp
            w = np.sort(report.choi_eigenvalues)
            assert np.max(np.abs(w[:15])) < 1e-9
            assert w[15] == pytest.approx(4.0, abs=1e-9)

    def test_pd_zero_requires_identity(self):
        u = interaction_unitary(NonResonantInteraction(1.0).hamiltonian(), 0.5)
        with pytest.raises(DecompositionError):
            extract_stochastic_reversibility(u, 0.0)
        ident = UnitaryOp(np.eye(4, dtype=complex))
        report = extract_stochastic_reversibility(ident, 0.0)
        assert report.is_cptp and report.p_d == 0.0

    def test_out_of_range_pd(self):
        ident = UnitaryOp(np.eye(2, dtype=complex))
        with pytest.raises(ParamError):
            extract_stochastic_reversibility(ident, 1.5)


class TestMinimalPd:
    def test_identity_gives_zero(self):
        p, report = find_minimal_pd(UnitaryOp(np.eye(4, dtype=complex)))
        assert p == 0.0 and report.is_cptp

    def test_partial_swap_quarter(self):
        u = interaction_unitary(PartialSwapInteraction(1.0, 2).hamiltonian(), np.pi / 4)
        p, report = find_minimal_pd(u)
        assert p == pytest.approx(0.5, abs=1e-8)
        assert report.is_cptp

    def test_detuning_factor(self):
        inter = ResonantInteraction(1.0, a=0.0)
        u = interaction_unitary(inter.detuning_part(), 0.6)
        p, _ = find_minimal_pd(u)
        assert p == pytest.approx(np.sin(0.3) ** 2, abs=1e-8)

    def test_never_exceeds_analytic(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            g = rng.uniform(0.2, 1.5)
            t = rng.uniform(0.2, 2.5)
            u = interaction_unitary(NonResonantInteraction(g).hamiltonian(), t)
            p, _ = find_minimal_pd(u)
            assert p <= np.sin(g * t / 2) ** 2 + 1e-8


class TestBounds:
    def test_theorem1_half_alpha(self):
        b = nc_bound_theorem1(2.0, 0.3, 0.5)
        assert b.lower == pytest.approx(-4 * 2.0 * 0.3)
        assert b.upper == pytest.approx(2 * 2.0 * 0.3)

    def test_theorem1_degenerate_cases(self):
        b = nc_bound_theorem1(1.0, 0.0, 0.5)
        assert b.lower == 0.0 and b.upper == 0.0
        b = nc_bound_theorem1(1.0, 0.1, 1.0)
        assert b.lower == pytest.approx(-0.1)
        assert b.upper == pytest.approx(0.1)

    def test_theorem2_reduces_to_theorem1(self):
        for p in np.linspace(0, 1, 21):
            b2 = nc_bound_theorem2(1.7, p, 0.0)
            b1 = nc_bound_theorem1(1.7, p, 0.5)
            assert b2.lower == b1.lower
            assert b2.upper == b1.upper

    def test_theorem2_extremes(self):
        b = nc_bound_theorem2(1.0, 1.0, 1.0)
        assert b.lower == pytest.approx(-4.0)
        assert b.upper == pytest.approx(2.0)
        b = nc_bound_theorem2(1.0, 0.0, 0.0)
        assert b.lower == 0.0 and b.upper == 0.0

    def test_b_factors_ordering(self):
        for p1 in np.linspace(0, 1, 11):
            for p2 in np.linspace(0, 1, 11):
                b_minus, b_plus = sequential_b_factors(p1, p2)
                assert b_minus >= b_plus - 1e-15
                assert b_plus >= -1e-15

    def test_experiment_bound_values(self):
        # The NMR experiment's upper bound (a = 0, g = J pi):
        # B_nc = 2 omega [sin^2(J pi t) + 2 sin^2(J pi t / 2) - 2 sin^2(J pi t) sin^2(J pi t / 2)]
        def b_nc(omega, J, t):
            x = np.pi * J * np.asarray(t, dtype=float)
            s2, s2h = np.sin(x) ** 2, np.sin(x / 2) ** 2
            return 2 * omega * (s2 + 2 * s2h - 2 * s2 * s2h)

        config = builtin_micadei()
        engine = _ScenarioEngine(config)
        omega, J = config.state["omega"], config.interaction["g"] / np.pi
        upper = lambda t: engine.bounds(t)[0]
        assert upper(0.0) == 0.0
        # O(t^2) near zero, in units of omega and of 1/J
        for s in (1e-3, 1e-4, 1e-5):
            assert upper(s / J) / omega / s < 0.1 * np.pi**2
        # the engine's sequential bound is B_nc
        ts = np.linspace(0.0, 5e-3, 101)
        assert np.max(np.abs(upper(ts) - b_nc(omega, J, ts))) <= 1e-12 * omega
        x = np.pi * J * 0.37e-3
        b_minus, b_plus = sequential_b_factors(np.sin(x) ** 2, np.sin(x / 2) ** 2)
        assert upper(0.37e-3) == pytest.approx(2 * omega * b_plus, abs=1e-12 * omega)


class TestCriticalTimes:
    def test_no_crossing_returns_empty(self):
        out = find_critical_times(lambda t: 0.0 * np.asarray(t), lambda t: 1.0 + 0.0 * np.asarray(t), 5.0)
        assert out == []

    def test_simple_linear_crossing(self):
        out = find_critical_times(
            lambda t: np.asarray(t, dtype=float),
            lambda t: 1.0 + 0.0 * np.asarray(t),
            5.0,
            n_grid=2000,
        )
        assert len(out) == 1
        assert out[0].time == pytest.approx(1.0, rel=1e-9)
        assert out[0].side == "upper"

    def test_touch_is_no_crossing(self):
        out = find_critical_times(
            lambda t: (np.asarray(t) - 1) ** 2, lambda t: 0 * np.asarray(t), 2.0, n_grid=5
        )
        assert out == []

    def test_grid_point_on_the_bound_is_the_crossing(self):
        out = find_critical_times(
            lambda t: np.asarray(t) - 1, lambda t: 0 * np.asarray(t), 2.0, n_grid=5
        )
        assert out == [Crossing(time=1.0, side="upper")]

    def test_lower_bound_crossing(self):
        out = find_critical_times(
            lambda t: -np.asarray(t, dtype=float),
            lambda t: 10.0 + 0.0 * np.asarray(t),
            5.0,
            lower_bound_fn=lambda t: -1.0 + 0.0 * np.asarray(t),
            n_grid=2000,
        )
        assert len(out) == 1
        assert out[0].side == "lower"
        assert out[0].time == pytest.approx(1.0, rel=1e-9)

    def test_qutrit_analytic_formulas(self):
        zeta, xi, omega_max, g = 0.4, 0.9, 1.5, 1.2
        tau_u, tau_l = qutrit_critical_times_analytic(zeta, xi, omega_max, g)
        for tau, scale in ((tau_u, 2 * omega_max), (tau_l, -4 * omega_max)):
            x = g * tau
            lhs = zeta * np.sin(x) ** 2 + xi * np.sin(x) * np.cos(x)
            assert lhs == pytest.approx(scale * np.sin(x) ** 2, abs=1e-12)

    def test_xi_sign_flip_swaps_sides(self):
        zeta, omega_max, g = 0.2, 1.0, 1.0
        heat = lambda xi: (
            lambda t: zeta * np.sin(g * np.asarray(t)) ** 2
            + xi * np.sin(g * np.asarray(t)) * np.cos(g * np.asarray(t))
        )
        upper = lambda t: 2 * omega_max * np.sin(g * np.asarray(t)) ** 2
        lower = lambda t: -4 * omega_max * np.sin(g * np.asarray(t)) ** 2
        t_max = 0.99 * np.pi / g
        pos = find_critical_times(heat(0.8), upper, t_max, lower_bound_fn=lower, n_grid=20000)
        neg = find_critical_times(heat(-0.8), upper, t_max, lower_bound_fn=lower, n_grid=20000)
        assert pos and pos[0].side == "upper"
        assert neg and neg[0].side == "lower"

    def test_xi_zero_rejected(self):
        with pytest.raises(ParamError):
            qutrit_critical_times_analytic(0.3, 0.0, 1.0, 1.0)

    def test_small_xi_limit(self):
        tau_u, _ = qutrit_critical_times_analytic(0.0, 1e-8, 1.0, 1.0)
        assert 0 < tau_u < 1e-7
