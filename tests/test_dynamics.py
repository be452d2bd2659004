import numpy as np
import pytest

from heatctx import (
    DensityMatrix,
    NonResonantInteraction,
    PartialSwapInteraction,
    ResonantInteraction,
    evolve_interaction_picture,
    interaction_unitary,
    kron,
    qutrit_hamiltonian,
    swap_operator,
    zeeman_hamiltonian,
)

from heatctx.dynamics import distinct_eigenvalues

from conftest import check_energy_conservation, gibbs_state, random_density

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])


def test_zeeman_matrix():
    h = zeeman_hamiltonian(1.7)
    assert np.allclose(h.matrix, np.diag([0.0, 1.7]))


def test_resonant_matrix_layout():
    g, a, theta = 0.9, 0.4, 1.1
    h = ResonantInteraction(g, a, theta).hamiltonian().matrix
    expect = np.zeros((4, 4), dtype=complex)
    expect[1, 1] = expect[2, 2] = g * a
    expect[1, 2] = g * np.exp(1j * theta)
    expect[2, 1] = g * np.exp(-1j * theta)
    assert np.array_equal(h, expect)


def test_resonant_parts_sum_and_commute():
    inter = ResonantInteraction(0.7, a=-1.3, theta=2.2)
    h = inter.hamiltonian().matrix
    ha = inter.detuning_part().matrix
    ht = inter.exchange_part().matrix
    assert np.max(np.abs(ha + ht - h)) < 1e-15
    assert np.max(np.abs(ha @ ht - ht @ ha)) < 1e-14


def test_energy_conservation_resonant():
    h = ResonantInteraction(1.2, a=0.3, theta=0.5).hamiltonian()
    local = zeeman_hamiltonian(0.8)
    ok, residual = check_energy_conservation(h, local, local)
    assert ok and residual == 0.0


def test_energy_conservation_swap():
    h = PartialSwapInteraction(1.0, local_dim=3).hamiltonian()
    local = qutrit_hamiltonian((0.0, 0.5, 1.0))
    ok, residual = check_energy_conservation(h, local, local)
    assert ok and residual < 1e-15


def test_energy_conservation_violated():
    g, omega = 1.0, 0.8
    h_bad = g * kron(SX, np.eye(2))
    local = zeeman_hamiltonian(omega)
    ok, residual = check_energy_conservation(h_bad, local, local)
    assert not ok
    # [sigma_x x 1, H_A x 1 + 1 x H_B] has max entry g*omega
    assert residual == pytest.approx(g * omega, abs=1e-14)


def test_nonresonant_conserves_unequal_gaps():
    h = NonResonantInteraction(0.6).hamiltonian()
    ok, _ = check_energy_conservation(
        h, zeeman_hamiltonian(0.5), zeeman_hamiltonian(1.9)
    )
    assert ok


def test_swap_is_involutory():
    for d in (2, 3):
        s = swap_operator(d)
        assert np.array_equal(s @ s, np.eye(d * d))


def test_evolve_at_zero_time():
    rng = np.random.default_rng(2)
    rho = DensityMatrix(random_density(rng, 4), (2, 2))
    h = ResonantInteraction(1.0).hamiltonian()
    out = evolve_interaction_picture(rho, h, 0.0)
    assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-14


def test_full_swap_exchanges_factors():
    h = zeeman_hamiltonian(1.0)
    ra = gibbs_state(h, 0.9).matrix
    rb = gibbs_state(h, 0.2).matrix
    rho = DensityMatrix(kron(ra, rb), (2, 2))
    inter = PartialSwapInteraction(g=1.0, local_dim=2)
    out = evolve_interaction_picture(rho, inter.hamiltonian(), np.pi / 2)
    assert np.max(np.abs(out.matrix - kron(rb, ra))) < 1e-12


def test_evolution_preserves_spectrum():
    rng = np.random.default_rng(41)
    rho = DensityMatrix(random_density(rng, 4), (2, 2))
    h = ResonantInteraction(0.8, a=1.4, theta=0.3).hamiltonian()
    out = evolve_interaction_picture(rho, h, 2.7)
    w_in = np.linalg.eigvalsh(rho.matrix)
    w_out = np.linalg.eigvalsh(out.matrix)
    assert np.max(np.abs(w_in - w_out)) < 1e-10
    assert abs(np.trace(out.matrix) - 1) < 1e-12


def resonant_factors(inter, t):
    """(U1, U2) = (e^{-i t H_a}, e^{-i t H_theta}), the commuting factors of e^{-i t H_I}."""
    return (
        interaction_unitary(inter.detuning_part(), t),
        interaction_unitary(inter.exchange_part(), t),
    )


class TestResonantFactors:
    def test_a_equals_one_gives_identity_factor(self):
        u1, _ = resonant_factors(ResonantInteraction(1.0, a=1.0), 0.8)
        assert np.max(np.abs(u1.matrix - np.eye(4))) < 1e-14

    def test_zero_time(self):
        u1, u2 = resonant_factors(
            ResonantInteraction(1.0, a=0.3, theta=0.4), 0.0
        )
        assert np.allclose(u1.matrix, np.eye(4))
        assert np.allclose(u2.matrix, np.eye(4))

    def test_product_reconstructs_full_unitary(self):
        inter = ResonantInteraction(1.0, a=0.0, theta=np.pi / 2)
        t = 0.3
        u1, u2 = resonant_factors(inter, t)
        full = interaction_unitary(inter.hamiltonian(), t)
        assert np.max(np.abs(u2.matrix @ u1.matrix - full.matrix)) < 1e-12

    def test_factor_order_irrelevant(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            inter = ResonantInteraction(
                rng.uniform(0.1, 2), a=rng.uniform(-2, 2), theta=rng.uniform(0, 2 * np.pi)
            )
            t = rng.uniform(0, 5)
            u1, u2 = resonant_factors(inter, t)
            assert np.max(np.abs(u1.matrix @ u2.matrix - u2.matrix @ u1.matrix)) < 1e-12


def test_distinct_eigenvalues_merge_runs_of_equal_bits():
    # -0.0 == 0.0, but their phases e^{-i t w} differ in the sign of a zero
    # imaginary part, so they stay apart; so does an equal value out of its run.
    w = np.array([-1.0, -1.0, -0.0, 0.0, 0.0, 0.5, np.nextafter(0.5, 1), 0.5, 2.0])
    distinct, index = distinct_eigenvalues(w)
    assert distinct.view(np.uint64).tolist() == w[[0, 2, 3, 5, 6, 7, 8]].view(np.uint64).tolist()
    assert index.tolist() == [0, 0, 1, 2, 2, 3, 4, 5, 6]
    assert np.array_equal(distinct[index].view(np.uint64), w.view(np.uint64))
