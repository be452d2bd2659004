"""Dense complex matrix algebra for small Hilbert spaces.

All generators in scope are Hermitian, so the matrix exponential is always
taken through an eigendecomposition; there is no Pade/scaling-and-squaring
path. Storage is plain row-major ``numpy`` arrays of ``complex128``.

The validation checks run on every command, on matrices of a few entries,
where numpy's Python-level wrappers (``np.max``, ``np.trace``, ``.all()``)
cost more than the work: they call the ufuncs and their ``reduce`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericsError

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
EIG_RECONSTRUCTION_TOL = 1e-10


def as_matrix(m) -> np.ndarray:
    """Coerce input (array-like or operator wrapper) to a finite complex square matrix."""
    if isinstance(m, (HermitianOp, UnitaryOp)):
        m = m.matrix
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
        raise NumericsError("matrix contains NaN or Inf entries")
    return a


def max_norm(m) -> float:
    """Entrywise max-abs norm, used for all invariant checks; 0.0 for an empty array.

    A NaN entry gives NaN, which no ``> tol`` check lets pass.
    """
    return float(np.maximum.reduce(np.abs(m), axis=None, initial=0.0))


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conjugate(np.asarray(m).swapaxes(-1, -2))


@dataclass(frozen=True)
class HermitianOp:
    """A validated Hermitian matrix (Hamiltonians, observables, Choi matrices)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix)
        deviation = max_norm(m - dagger(m))
        if deviation > HERMITIAN_TOL:
            raise NumericsError(
                f"matrix is not Hermitian to {HERMITIAN_TOL:g} (deviation {deviation:.3g})"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class UnitaryOp:
    """A validated unitary matrix (time-evolution operators)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if max_norm(dagger(m) @ m - np.eye(m.shape[0])) > UNITARY_TOL:
            raise NumericsError(f"matrix is not unitary to {UNITARY_TOL:g}")
        object.__setattr__(self, "matrix", m)


def kron(a, b) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(as_matrix(a), as_matrix(b))


def partial_trace(m, dims, keep: int) -> np.ndarray:
    """Trace out every subsystem except ``keep``.

    ``dims`` lists the subsystem dimensions whose product must equal the
    matrix dimension. The trace of the result equals the trace of ``m``.
    """
    a = as_matrix(m)
    dims = list(int(d) for d in dims)
    if int(np.prod(dims)) != a.shape[0]:
        raise DimensionError(
            f"product of dims {dims} does not match matrix dimension {a.shape[0]}"
        )
    if not 0 <= keep < len(dims):
        raise DimensionError(f"keep index {keep} out of range for {len(dims)} subsystems")
    n = len(dims)
    t = a.reshape(dims + dims)
    # Trace out all subsystems except `keep`, highest axis first so earlier
    # axis numbers stay valid.
    for sub in sorted((i for i in range(n) if i != keep), reverse=True):
        t = np.trace(t, axis1=sub, axis2=sub + t.ndim // 2)
    d_keep = dims[keep]
    return t.reshape(d_keep, d_keep)


def eig_hermitian(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector columns V) with
    V diag(w) V^dag reconstructing the input to 1e-10 in max-norm.
    """
    m = as_matrix(h)
    if max_norm(m - dagger(m)) > HERMITIAN_TOL:
        raise NumericsError("eig_hermitian requires a Hermitian input")
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericsError(f"Hermitian eigensolver did not converge: {exc}") from exc
    recon = (v * w) @ dagger(v)
    if max_norm(recon - m) > EIG_RECONSTRUCTION_TOL * max(1.0, max_norm(m)):
        raise NumericsError("eigendecomposition reconstruction error too large")
    return w, v


def expm_hermitian_generator(h, scale: complex) -> np.ndarray:
    """exp(scale * h) for Hermitian h via eigendecomposition.

    With scale = -i*t the result is unitary.
    """
    w, v = eig_hermitian(h)
    return (v * np.exp(scale * w)) @ dagger(v)
