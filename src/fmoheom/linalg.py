"""Dense complex linear algebra for small Hermitian matrices.

Everything in the simulator lives in dimension 7 (site basis) or 4
(chromophore pair), so plain dense numpy arrays are used throughout.
Every matrix input must be Hermitian to HERMITIAN_RTOL relative to its
largest entry; states returned by `HEOMPropagator.run` are exactly Hermitian.
"""

import math

import numpy as np

# Pauli matrices sigma_1, sigma_2, sigma_3 in the computational basis.
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)

HERMITIAN_RTOL = 1e-9


class NonHermitianError(ValueError):
    """Raised when a matrix required to be Hermitian is not, beyond tolerance."""


def check_hermitian(a, name="matrix"):
    """Validate that `a`, a square matrix or a stack of them, is Hermitian.

    Each matrix's defect max|A - A^dagger| is compared against
    HERMITIAN_RTOL times its own max|A|, floored at 1 for near-zero ones.
    A matrix with a NaN or infinite entry fails, and the message names
    the index of each such entry in the first matrix that has one.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    scale = np.abs(a).max(axis=(-2, -1), initial=1.0)
    # A NaN or inf entry makes its matrix's scale, and so the largest
    # scale, non-finite (max propagates NaN).
    if not math.isfinite(scale.max(initial=1.0)):
        k = tuple(int(j) for j in np.argwhere(~np.isfinite(scale))[0])
        where = [k + tuple(map(int, e)) for e in np.argwhere(~np.isfinite(a[k]))]
        raise NonHermitianError(f"{name} has non-finite entries at {where}")
    defect = np.abs(a - a.conj().swapaxes(-2, -1)).max(axis=(-2, -1), initial=0.0)
    good = defect / scale <= HERMITIAN_RTOL
    if not good.all():
        i = np.flatnonzero(~good)[0]
        d, s = defect.flat[i], scale.flat[i]
        raise NonHermitianError(
            f"{name} is not Hermitian: defect {d:.3e} exceeds "
            f"{HERMITIAN_RTOL:.1e} * max|entry| = {HERMITIAN_RTOL * s:.3e}"
        )
    return a


def check_hermitian_matrix(a, name="matrix"):
    """check_hermitian for functions that take one matrix, not a stack."""
    a = check_hermitian(a, name=name)
    if a.ndim != 2:
        raise ValueError(f"{name} must be one matrix, got shape {a.shape}")
    return a


def trace_distance(a, b):
    """Trace distance (1/2) sum |eigenvalues of A - B| of Hermitian matrices.

    `a` and `b` are two matrices or two stacks of the same shape, paired
    matrix by matrix: a float for one pair, an array over a stack.
    """
    a = check_hermitian(a, name="trace_distance A")
    b = check_hermitian(b, name="trace_distance B")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    d = 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum(axis=-1)
    return float(d) if d.ndim == 0 else d
