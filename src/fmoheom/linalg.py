"""Dense complex linear algebra for small Hermitian matrices.

Everything in the simulator lives in dimension 7 (site basis) or 4
(chromophore pair), so plain dense numpy arrays are used throughout.
All tolerances are relative to the largest matrix entry so the checks
are scale-free.
"""

import numpy as np

# Pauli matrices sigma_1, sigma_2, sigma_3 in the computational basis.
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)


class NonHermitianError(ValueError):
    """Raised when a matrix required to be Hermitian is not, beyond tolerance."""


def check_hermitian(a, rtol=1e-9, name="matrix"):
    """Validate that `a`, a square matrix or a stack of them, is Hermitian.

    Each matrix's defect max|A - A^dagger| is compared against rtol times
    its own max|A|, with a floor of rtol for near-zero matrices.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    scale = np.abs(a).max(axis=(-2, -1), initial=1.0)
    defect = np.abs(a - a.conj().swapaxes(-2, -1)).max(axis=(-2, -1), initial=0.0)
    bad = defect > rtol * scale
    if bad.any():
        i = np.flatnonzero(bad)[0]
        d, s = defect.flat[i], scale.flat[i]
        raise NonHermitianError(
            f"{name} is not Hermitian: defect {d:.3e} exceeds "
            f"{rtol:.1e} * max|entry| = {rtol * s:.3e}"
        )
    return a


def check_hermitian_matrix(a, rtol=1e-9, name="matrix"):
    """check_hermitian for functions that take one matrix, not a stack."""
    a = check_hermitian(a, rtol=rtol, name=name)
    if a.ndim != 2:
        raise ValueError(f"{name} must be one matrix, got shape {a.shape}")
    return a


def hermitian_eigen(a, rtol=1e-9):
    """Eigendecomposition of a Hermitian matrix with a fixed phase convention.

    Returns (eigenvalues ascending, eigenvector matrix with eigenvectors as
    columns). Each eigenvector is rotated by a global phase so that its
    largest-magnitude component is real and positive, which makes the sign
    pattern of the coefficients deterministic.
    """
    a = check_hermitian_matrix(a, rtol=rtol, name="eigen input")
    vals, vecs = np.linalg.eigh(a)
    vecs = vecs.copy()
    for i in range(vecs.shape[1]):
        v = vecs[:, i]
        j = int(np.argmax(np.abs(v)))
        phase = v[j] / abs(v[j])
        vecs[:, i] = v / phase
    return vals, vecs


def trace_distance(a, b, rtol=1e-6):
    """Trace distance (1/2) sum |eigenvalues of A - B| between Hermitian matrices.

    The relative Hermiticity tolerance is loose by default because the
    inputs are typically states sampled along an integrated trajectory.
    """
    a = check_hermitian_matrix(a, rtol=rtol, name="trace_distance A")
    b = check_hermitian_matrix(b, rtol=rtol, name="trace_distance B")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    d = a - b
    d = 0.5 * (d + d.conj().T)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(d))))

