import numpy as np
import pytest

from heatctx import (
    DensityMatrix,
    NotAStateError,
    NumericsError,
    ParamError,
    SupportError,
    TwoQubitThermalParams,
    TwoQutritThermalParams,
    gibbs_state,
    kron,
    mutual_information,
    qutrit_hamiltonian,
    relative_entropy,
    two_qubit_thermal,
    two_qutrit_thermal,
    von_neumann_entropy,
    zeeman_hamiltonian,
)
from heatctx.states import (
    bipartite_marginals,
    entropies,
    population_entropies,
    spectral_entropies,
)

from conftest import (
    random_density,
    random_two_qubit_params,
    random_two_qutrit_params,
    random_unitary,
)


def bell_state():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    return DensityMatrix(np.outer(phi, phi.conj()), (2, 2))


class TestDensityMatrix:
    def test_rejects_trace_not_one(self):
        with pytest.raises(NotAStateError):
            DensityMatrix(np.eye(2, dtype=complex), (2,))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(NotAStateError):
            DensityMatrix(m, (2,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(NumericsError):
            DensityMatrix(m, (2,))

    def test_marginal_of_product(self):
        rng = np.random.default_rng(5)
        ra = random_density(rng, 2)
        rb = random_density(rng, 2)
        rho = DensityMatrix(kron(ra, rb), (2, 2))
        assert np.allclose(rho.marginal(0).matrix, ra, atol=1e-12)
        assert np.allclose(rho.marginal(1).matrix, rb, atol=1e-12)


class TestGibbs:
    def test_infinite_temperature(self):
        h = zeeman_hamiltonian(1.3)
        rho = gibbs_state(h, 0.0)
        assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-14)

    def test_ln2_ratio(self):
        # beta*omega = ln 2 gives populations (2/3, 1/3)
        omega = 0.7
        rho = gibbs_state(zeeman_hamiltonian(omega), np.log(2) / omega)
        assert np.allclose(np.diag(rho.matrix).real, [2 / 3, 1 / 3], atol=1e-14)

    def test_qutrit_boltzmann_weights(self):
        oms = (0.0, 0.4, 1.1)
        beta = 0.8
        rho = gibbs_state(qutrit_hamiltonian(oms), beta)
        w = np.exp(-beta * np.asarray(oms))
        assert np.allclose(np.diag(rho.matrix).real, w / w.sum(), atol=1e-14)

    def test_negative_beta_rejected(self):
        with pytest.raises(ParamError):
            gibbs_state(zeeman_hamiltonian(1.0), -0.1)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_exponents_give_the_ground_state(self):
        # beta (E_i - E_0) = 2e308 overflows a float: the weight is its limit 0.
        rho = gibbs_state(qutrit_hamiltonian((0.0, 1.0, 2.0)), 1e308)
        assert np.diag(rho.matrix).real.tolist() == [1.0, 0.0, 0.0]


class TestTwoQubitThermal:
    def test_zero_correlations_gives_product(self):
        p = TwoQubitThermalParams(omega=1.0, beta_A=0.8, beta_B=0.3)
        rho = two_qubit_thermal(p)
        h = zeeman_hamiltonian(1.0)
        expect = kron(gibbs_state(h, 0.8).matrix, gibbs_state(h, 0.3).matrix)
        assert np.max(np.abs(rho.matrix - expect)) < 1e-14

    def test_marginals_always_thermal(self):
        rng = np.random.default_rng(31)
        h_cache = {}
        for _ in range(50):
            p = random_two_qubit_params(rng)
            rho = two_qubit_thermal(p)
            h = h_cache.setdefault(p.omega, zeeman_hamiltonian(p.omega))
            for keep, beta in ((0, p.beta_A), (1, p.beta_B)):
                want = gibbs_state(h, beta).matrix
                assert np.max(np.abs(rho.marginal(keep).matrix - want)) < 1e-12

    def test_oversized_coherence_rejected(self):
        # near-pure marginals cannot support |eta| = 0.5
        p = TwoQubitThermalParams(omega=1.0, beta_A=8.0, beta_B=8.0, eta=0.5)
        with pytest.raises(NotAStateError):
            two_qubit_thermal(p)

    def test_micadei_parameters_are_valid(self):
        omega = 4.135e-12
        p = TwoQubitThermalParams(
            omega=omega, beta_A=1 / 4.3e-12, beta_B=1 / 3.66e-12, eta=-0.19
        )
        rho = two_qubit_thermal(p)
        h = zeeman_hamiltonian(omega)
        for keep, beta in ((0, p.beta_A), (1, p.beta_B)):
            want = gibbs_state(h, beta).matrix
            assert np.max(np.abs(rho.marginal(keep).matrix - want)) < 1e-12


class TestTwoQutritThermal:
    def test_zero_etas_gives_product(self):
        p = TwoQutritThermalParams(omegas=(0.0, 0.5, 1.0), beta_A=0.7, beta_B=0.2)
        rho = two_qutrit_thermal(p)
        h = qutrit_hamiltonian(p.omegas)
        expect = kron(gibbs_state(h, 0.7).matrix, gibbs_state(h, 0.2).matrix)
        assert np.max(np.abs(rho.matrix - expect)) < 1e-14

    def test_infinite_temperature_diagonal(self):
        p = TwoQutritThermalParams(
            omegas=(0.0, 1.0, 2.0), beta_A=0.0, beta_B=0.0, eta31=0.05
        )
        rho = two_qutrit_thermal(p)
        assert np.allclose(np.diag(rho.matrix).real, np.full(9, 1 / 9), atol=1e-14)

    def test_diagonal_matches_product_formula(self):
        p = TwoQutritThermalParams(
            omegas=(0.0, 0.6, 1.2), beta_A=0.9, beta_B=0.4, eta31=0.01
        )
        rho = two_qutrit_thermal(p)
        oms = np.asarray(p.omegas)
        za = np.exp(-p.beta_A * oms).sum()
        zb = np.exp(-p.beta_B * oms).sum()
        expect = np.outer(
            np.exp(-p.beta_A * oms) / za, np.exp(-p.beta_B * oms) / zb
        ).reshape(9)
        assert np.max(np.abs(np.diag(rho.matrix).real - expect)) < 1e-14

    @pytest.mark.filterwarnings("error")
    def test_zero_temperature_limit_is_the_ground_state(self):
        p = TwoQutritThermalParams(omegas=(0.0, 1.0, 2.0), beta_A=0.4, beta_B=1e308)
        w = np.exp(-0.4 * np.array([0.0, 1.0, 2.0]))
        expect = np.outer(w / w.sum(), [1.0, 0.0, 0.0]).reshape(9)
        assert p.diagonal_probabilities().tolist() == expect.tolist()

    def test_descending_omegas_rejected(self):
        with pytest.raises(ParamError):
            TwoQutritThermalParams(omegas=(1.0, 0.5, 2.0), beta_A=1.0, beta_B=1.0)

    def test_marginals_thermal(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            p = random_two_qutrit_params(rng)
            rho = two_qutrit_thermal(p)
            h = qutrit_hamiltonian(p.omegas)
            for keep, beta in ((0, p.beta_A), (1, p.beta_B)):
                want = gibbs_state(h, beta).matrix
                assert np.max(np.abs(rho.marginal(keep).matrix - want)) < 1e-12


class TestEntropies:
    def test_pure_state_entropy_zero(self):
        v = np.array([1.0, 0.0], dtype=complex)
        rho = DensityMatrix(np.outer(v, v.conj()), (2,))
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_bell_mutual_information(self):
        assert mutual_information(bell_state()) == pytest.approx(2 * np.log(2), abs=1e-12)

    def test_relative_entropy_self_is_zero(self):
        rng = np.random.default_rng(13)
        rho = DensityMatrix(random_density(rng, 3), (3,))
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_relative_entropy_nonnegative(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            rho = DensityMatrix(random_density(rng, 3), (3,))
            sigma = DensityMatrix(random_density(rng, 3), (3,))
            val = relative_entropy(rho, sigma)
            assert val >= -1e-10
            if val < 1e-10:
                assert np.linalg.norm(rho.matrix - sigma.matrix) < 1e-5

    def test_relative_entropy_support_violation(self):
        v0 = np.array([1.0, 0.0], dtype=complex)
        v1 = np.array([0.0, 1.0], dtype=complex)
        rho = DensityMatrix(np.outer(v1, v1.conj()), (2,))
        sigma = DensityMatrix(np.outer(v0, v0.conj()), (2,))
        with pytest.raises(SupportError):
            relative_entropy(rho, sigma)

    def test_a_nan_eigenvalue_gives_a_nan_entropy(self):
        s = spectral_entropies(np.array([[np.nan, 0.5], [0.0, 1.0], [0.25, 0.75]]))
        assert np.isnan(s[0])
        assert s[1] == 0.0 and s[2] == -0.25 * np.log(0.25) - 0.75 * np.log(0.75)

    def test_mutual_information_local_unitary_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            rho = DensityMatrix(random_density(rng, 4), (2, 2))
            u = kron(random_unitary(rng, 2), random_unitary(rng, 2))
            rotated = DensityMatrix(u @ rho.matrix @ u.conj().T, (2, 2))
            assert mutual_information(rotated) == pytest.approx(
                mutual_information(rho), abs=1e-10
            )


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def random_populations(rng, n, d):
    """(n, d) rows of trace ~1 with entries from 1 down to 1e-320, exact zeros and
    round-off below zero, as the populations of evolved states have."""
    p = 10.0 ** rng.uniform(-320, 0, (n, d))
    p[rng.random((n, d)) < 0.2] = 0.0
    p[p.sum(axis=1) == 0, 0] = 1.0
    p /= p.sum(axis=1, keepdims=True)
    return np.where(rng.random((n, d)) < 0.1, -1e-17 * rng.random((n, d)), p)


def diagonal_stack(p, rng):
    """Diagonal complex matrices with diagonal p plus imaginary round-off."""
    n, d = p.shape
    m = np.zeros((n, d, d), dtype=complex)
    m[:, np.arange(d), np.arange(d)] = p + 1j * np.where(
        rng.random((n, d)) < 0.5, 1e-18 * rng.normal(size=(n, d)), 0.0
    )
    return m


@pytest.mark.parametrize("d", [2, 3])
def test_eigvalsh_of_a_diagonal_state_is_its_sorted_diagonal(d):
    # population_entropies relies on this LAPACK property. The trace-1 condition
    # matters: LAPACK rescales a matrix whose norm is below about 1e-146 before
    # it eigensolves, and that moves the last bits of the eigenvalues; a row of
    # trace 1 has an entry of at least 1/d, so no rescaling happens.
    rng = np.random.default_rng(40 + d)
    p = random_populations(rng, 20000, d)
    assert (p == 0).any() and ((p > 0) & (p < 1e-300)).any() and (p < 0).any()
    w = np.linalg.eigvalsh(diagonal_stack(p, rng))
    assert np.array_equal(bits(w), bits(np.sort(p)))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_population_entropies_match_entropies_of_the_marginals(dims):
    rng = np.random.default_rng(sum(dims))
    p = random_populations(rng, 5000, dims[0] * dims[1])
    rho_a, rho_b = bipartite_marginals(diagonal_stack(p, rng), dims)
    s_a, s_b = population_entropies(p, dims)
    assert np.array_equal(bits(s_a), bits(entropies(rho_a)))
    assert np.array_equal(bits(s_b), bits(entropies(rho_b)))
