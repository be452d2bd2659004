import numpy as np
import pytest

from heatctx import (
    DimensionError,
    HermitianOp,
    NotAStateError,
    UnitaryOp,
    dagger,
    eig_hermitian,
    expm_hermitian_generator,
    kron,
    partial_trace,
)
from heatctx.errors import NumericsError

from conftest import random_hermitian, random_unitary, random_density

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)


def test_hermitian_op_rejects_nonhermitian():
    with pytest.raises(Exception):
        HermitianOp(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_unitary_op_rejects_nonunitary():
    with pytest.raises(Exception):
        UnitaryOp(2 * np.eye(2, dtype=complex))


def test_kron_identities():
    assert np.array_equal(kron(I2, I2), np.eye(4))
    assert np.array_equal(kron(SZ, I2), np.diag([1, 1, -1, -1]).astype(complex))


def test_kron_sigma_x_sigma_y():
    # antidiagonal with entries (-i, i, -i, i) reading from the top-right
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 3] = -1j
    expect[1, 2] = 1j
    expect[2, 1] = -1j
    expect[3, 0] = 1j
    assert np.allclose(kron(SX, SY), expect)


def test_kron_associativity_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 3)
        c = random_hermitian(rng, 2)
        left = kron(kron(a, b), c)
        right = kron(a, kron(b, c))
        assert np.max(np.abs(left - right)) < 1e-14


def test_partial_trace_product_state():
    rng = np.random.default_rng(11)
    ra = random_density(rng, 2)
    rb = random_density(rng, 3)
    full = kron(ra, rb)
    assert np.allclose(partial_trace(full, (2, 3), 0), ra, atol=1e-12)
    assert np.allclose(partial_trace(full, (2, 3), 1), rb, atol=1e-12)


def test_partial_trace_bell_state():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    rho = np.outer(phi, phi.conj())
    assert np.allclose(partial_trace(rho, (2, 2), 0), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = random_density(rng, 6)
        red = partial_trace(m, (2, 3), 1)
        assert abs(np.trace(red) - np.trace(m)) < 1e-12


def test_partial_trace_dim_mismatch():
    with pytest.raises(DimensionError):
        partial_trace(np.eye(6), (2, 2), 0)


@pytest.mark.parametrize("keep", [-1, 2])
def test_partial_trace_keep_out_of_range(keep):
    with pytest.raises(DimensionError, match="keep index"):
        partial_trace(np.eye(6) / 6, (2, 3), keep)


@pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
def test_a_non_square_operand_is_rejected(shape):
    with pytest.raises(DimensionError, match="expected a square matrix"):
        kron(np.zeros(shape), np.eye(2))


def test_eig_pauli_z_and_x():
    w, _ = eig_hermitian(SZ)
    assert np.allclose(w, [-1.0, 1.0])
    w, v = eig_hermitian(SX)
    assert np.allclose(w, [-1.0, 1.0])
    # eigenvectors are (1, -1)/sqrt(2) and (1, 1)/sqrt(2) up to phase
    for col, sign in ((0, -1.0), (1, 1.0)):
        vec = v[:, col] / v[0, col]
        assert np.allclose(vec, [1.0, sign])


def test_eig_reconstruction_large():
    rng = np.random.default_rng(19)
    for d in (16, 64, 256):
        h = random_hermitian(rng, d)
        w, v = eig_hermitian(h)
        assert np.all(np.diff(w) >= 0)
        recon = (v * w) @ dagger(v)
        assert np.max(np.abs(recon - h)) < 1e-10


def test_expm_zero_generator():
    assert np.allclose(expm_hermitian_generator(random_hermitian(np.random.default_rng(1), 4), 0.0), np.eye(4))


def test_expm_partial_swap_closed_form():
    from heatctx import swap_operator

    s = swap_operator(2).astype(complex)
    for t in (0.3, 1.2, 2.9):
        u = expm_hermitian_generator(s, -1j * t)
        expect = np.cos(t) * np.eye(4) - 1j * np.sin(t) * s
        assert np.max(np.abs(u - expect)) < 1e-12


def test_expm_pauli_z_quarter_turn():
    u = expm_hermitian_generator(SZ, -1j * np.pi / 2)
    assert np.allclose(u, np.diag([-1j, 1j]))


def test_expm_is_unitary_for_large_times():
    rng = np.random.default_rng(23)
    for _ in range(10):
        h = random_hermitian(rng, 5)
        t = rng.uniform(-100, 100)
        u = expm_hermitian_generator(h, -1j * t)
        assert np.max(np.abs(dagger(u) @ u - np.eye(5))) < 1e-10


def test_as_matrix_rejects_nan():
    # One NaN or Inf entry anywhere, in the real or the imaginary part, gives one message.
    from heatctx.linalg import as_matrix

    with pytest.raises(NumericsError, match=r"^matrix contains NaN or Inf entries$"):
        as_matrix(np.array([[np.nan, 0], [0, 1]], dtype=complex))
    for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, np.inf)):
        for at in ((0, 0), (1, 2), (2, 1)):
            a = np.eye(3, dtype=complex)
            a[at] = bad
            with pytest.raises(NumericsError, match=r"^matrix contains NaN or Inf entries$"):
                as_matrix(a)


def test_as_matrix_passes_large_finite_entries():
    # Finite entries pass however large: 1e308 summed would overflow to inf, so
    # the check must not be a sum.
    from heatctx.linalg import as_matrix

    a = as_matrix(np.full((2, 2), 1e308))
    assert a.dtype == complex and np.array_equal(a, np.full((2, 2), 1e308))


def test_max_norm_semantics():
    from heatctx.linalg import max_norm

    assert max_norm(np.zeros((0, 0))) == 0.0 and type(max_norm(np.zeros(0))) is float
    assert max_norm([[1.0, -3.0], [2.0, 0.5j]]) == 3.0
    assert max_norm(np.array([[3 + 4j]])) == 5.0
    assert np.isnan(max_norm(np.array([1.0, np.nan, 2.0])))
