"""Dense complex linear algebra on 2x2 and 4x4 matrices and on stacks of them.

Matrices are plain complex128 ndarrays; a stack has shape (N, d, d) and is
processed matrix by matrix.  The working space is tiny (two qubits), so the
matrix exponential is done by Hermitian eigendecomposition rather than
scaling-and-squaring, which also hands us the spectrum for free.

Batch code reports per-row failures through `RowErrors`, so one bad row of a
stack never stops its neighbours; `checked` raises them for one-row callers.
"""

from typing import Union

import numpy as np

HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-12
DENSITY_TOL = 1e-10

NOT_HERMITIAN = "matrix is not Hermitian within tolerance"

_VALID_DIMS = (2, 4)

# A field of a result: one value for one cycle, an array of shape (N,) for a batch.
Column = Union[float, complex, np.ndarray]


class RowErrors:
    """The first failure of each failing row of a batch, by row index.

    Each failure is kept as the exception the one-row public function raises
    for that row, so a batch row and a scalar call report the same text, and
    with its cause: the message template, which holds none of the row's values.
    """

    def __init__(self):
        self.first: dict[int, Exception] = {}
        self.cause: dict[int, str] = {}

    def flag(self, bad, message: str, *values, error=ValueError) -> None:
        """Record `error` with `message` formatted by row i's `values` (arrays of
        shape (N,)) for every row i where `bad` holds and none is recorded yet."""
        for i in np.flatnonzero(bad).tolist():
            if i not in self.first:
                self.first[i] = error(message.format(*(float(v[i]) for v in values)))
                self.cause[i] = message


def checked(kernel, *args):
    """Call a batch kernel (its RowErrors argument last); raise the first row failure."""
    errors = RowErrors()
    out = kernel(*args, errors)
    if errors.first:
        raise errors.first[min(errors.first)]
    return out


def as_cmat(m) -> np.ndarray:
    """Validate `m` as a square 2x2 or 4x4 matrix and cast it to complex128."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] not in _VALID_DIMS:
        raise ValueError(f"matrix dimension must be one of {_VALID_DIMS}, got {a.shape[0]}")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.conj(np.swapaxes(m, -1, -2))


def hermitian_mask(a: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Per-matrix test |a - a†| <= tol of a matrix or a stack."""
    return np.max(np.abs(a - dagger(a)), axis=(-2, -1)) <= tol


def unitary_mask(a: np.ndarray, tol: float = UNITARY_TOL) -> np.ndarray:
    """Per-matrix test |a† a - 1| <= tol of a matrix or a stack."""
    return np.max(np.abs(dagger(a) @ a - np.eye(a.shape[-1])), axis=(-2, -1)) <= tol


def density_mask(a: np.ndarray, tol: float = DENSITY_TOL) -> np.ndarray:
    """Per-matrix test: Hermitian, unit trace, and eigenvalues >= -tol."""
    tr = np.trace(a, axis1=-2, axis2=-1)
    ok = hermitian_mask(a, tol) & (np.abs(tr.real - 1.0) <= tol) & (np.abs(tr.imag) <= tol)
    # One non-finite matrix would make eigvalsh fail for the whole stack; the
    # rows already rejected (non-finite ones among them) are replaced by zeros.
    herm = np.where(np.expand_dims(ok, (-2, -1)), 0.5 * (a + dagger(a)), 0.0)
    return ok & (np.linalg.eigvalsh(herm).min(axis=-1) >= -tol)


def expm_stack(h: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(-i h t) for a stack of Hermitian h (N, d, d) and times t (N,).

    The caller vouches for Hermiticity; one stacked eigendecomposition
    serves every matrix.
    """
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t[:, None])[:, None, :]) @ dagger(v)

