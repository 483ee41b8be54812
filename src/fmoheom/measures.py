"""Bipartite correlation measures for chromophore pairs.

The reduced two-chromophore state is a 4x4 Hermitian matrix over the
product basis (both ground, n excited, m excited, both excited); its
double-excitation sector is empty because the model is restricted to one
excitation. Measures are evaluated on the trace-carrying reduced state
(trace <= 1 when trapping is active) without renormalization.

Each measure has two routes: a closed form valid for this single-excitation
family, and the general-purpose construction (Horodecki correlation matrix,
Wootters spin-flip) used as an independent cross-check.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import PAULI, check_hermitian, check_hermitian_matrix
from .hierarchy import _is_integer
from .model import N_SITES

# Basis ordering of the 4x4 pair state, qubit m first:
# index 0 = |0_m 0_n>, 1 = |0_m 1_n>, 2 = |1_m 0_n>, 3 = |1_m 1_n>.
GROUND_GROUND, N_EXCITED, M_EXCITED, DOUBLE = 0, 1, 2, 3

# PAULI_PAIRS[a, b] = sigma_a (x) sigma_b, the nine two-qubit Pauli products.
PAULI_PAIRS = np.einsum("aij,bkl->abikjl", PAULI, PAULI).reshape(3, 3, 4, 4)


@dataclass(frozen=True)
class ReducedPairState:
    """Reduced state of sites m < n (1-based): one 4x4 matrix or a stack."""

    m: int
    n: int
    matrix: np.ndarray
    source_trace: float

    @property
    def pop_m(self):
        return self.matrix[..., M_EXCITED, M_EXCITED].real

    @property
    def pop_n(self):
        return self.matrix[..., N_EXCITED, N_EXCITED].real

    @property
    def coherence(self):
        """The site-basis coherence rho_mn (complex)."""
        return self.matrix[..., N_EXCITED, M_EXCITED]


def reduce_pair(rho, m, n):
    """Trace out all chromophores except m and n from the 7x7 state.

    `rho` is one state or a (T, 7, 7) stack, reduced matrix by matrix.
    The ground-ground population is Tr(rho) - rho_mm - rho_nn; the
    double-excitation row and column are identically zero.
    """
    if not (_is_integer(m) and _is_integer(n)):
        raise ValueError(f"pair sites must be integers, got ({m!r}, {n!r})")
    if m == n:
        raise ValueError("pair sites must differ")
    if m > n:
        m, n = n, m
    rho = check_hermitian(rho, name="full state")
    dim = rho.shape[-1]
    if not (1 <= m <= dim and 1 <= n <= dim):
        raise ValueError(f"pair ({m},{n}) outside 1..{dim}")
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    if np.any(tr > 1.0 + 1e-9):
        raise ValueError(f"state trace {np.max(tr)} exceeds 1")
    p_m = rho[..., m - 1, m - 1].real
    p_n = rho[..., n - 1, n - 1].real
    c = rho[..., m - 1, n - 1]
    gg = tr - p_m - p_n
    if np.any(gg < -1e-9):
        raise ValueError(f"negative ground-ground population {np.min(gg):.3e}; "
                         "full state is corrupted")
    mat = np.zeros(rho.shape[:-2] + (4, 4), dtype=complex)
    mat[..., GROUND_GROUND, GROUND_GROUND] = gg
    mat[..., N_EXCITED, N_EXCITED] = p_n
    mat[..., M_EXCITED, M_EXCITED] = p_m
    mat[..., N_EXCITED, M_EXCITED] = c
    mat[..., M_EXCITED, N_EXCITED] = np.conj(c)
    return ReducedPairState(m=m, n=n, matrix=mat, source_trace=tr)


def correlation_matrix(rho4):
    """3x3 Pauli correlation matrix t_ab = Tr(rho sigma_a x sigma_b)."""
    rho4 = check_hermitian_matrix(rho4, name="pair state")
    return np.einsum("ij,abji->ab", rho4, PAULI_PAIRS).real


def horodecki_M(rho4):
    """Sum of the two largest eigenvalues of T^T T.

    The state violates the CHSH inequality iff M > 1; the Cirel'son bound
    caps M at 2 for physical states.
    """
    t = correlation_matrix(rho4)
    evals = np.linalg.eigvalsh(t.T @ t)
    return float(evals[-1] + evals[-2])


def nonlocality_B(rho4):
    """CHSH nonlocality measure sqrt(max(M - 1, 0)) in [0, 1]."""
    return float(np.sqrt(max(horodecki_M(rho4) - 1.0, 0.0)))


@dataclass(frozen=True)
class PairMeasures:
    """Closed-form measures of one reduced state, or arrays over a stack."""

    B: float
    C: float
    l1: float
    mu1: float
    mu3: float


def closed_form_measures(reduced):
    """Closed-form B, concurrence and l1 coherence for a single-excitation pair.

    The correlation-matrix spectrum for this family is mu1 = mu2 =
    4|rho_mn|^2 and mu3 = (Tr - 2(rho_mm + rho_nn))^2, so
    M = max(8|rho_mn|^2, 4|rho_mn|^2 + mu3); concurrence and l1 coherence
    both equal 2|rho_mn|. Elementwise over a stack of reduced states;
    hypot and float_power round exactly as abs(complex) and x ** 2 do on
    Python scalars.
    """
    coherence = reduced.coherence
    c_abs = np.hypot(coherence.real, coherence.imag)
    mu1 = 4.0 * np.float_power(c_abs, 2)
    mu3 = np.float_power(
        reduced.source_trace - 2.0 * (reduced.pop_m + reduced.pop_n), 2)
    b = np.sqrt(np.maximum(np.maximum(2.0 * mu1, mu1 + mu3) - 1.0, 0.0))
    c = 2.0 * c_abs
    return PairMeasures(B=b, C=c, l1=c, mu1=mu1, mu3=mu3)


def wootters_concurrence(rho4):
    """Wootters concurrence from the spin-flipped R operator.

    Conjugation is taken in the computational product basis. For
    single-excitation reduced states this equals 2|rho_mn| including the
    trace-deficient case.
    """
    rho4 = check_hermitian_matrix(rho4, name="pair state")
    evals, vecs = np.linalg.eigh(rho4)
    if evals[0] < -1e-8 * max(evals[-1], 1.0):
        raise ValueError(f"pair state is not positive (min eigenvalue {evals[0]:.3e})")
    # With rho = W W^dagger, the eigenvalues of R are the singular values of
    # W^T (sigma_y x sigma_y) W, accurate to rounding; square roots of the
    # eigenvalues of rho @ rho_tilde turn a 1e-17 error at zero into 3e-9.
    w = vecs * np.sqrt(np.clip(evals, 0.0, None))
    lam = np.linalg.svd(w.T @ PAULI_PAIRS[1, 1] @ w, compute_uv=False)
    return float(max(lam[0] - lam[1] - lam[2] - lam[3], 0.0))


def positivity_bound_check(reduced):
    """|rho_mn| <= sqrt(rho_mm rho_nn) (+ 1e-9), forced by positivity of the pair."""
    bound = np.sqrt(np.maximum(reduced.pop_m, 0.0) * np.maximum(reduced.pop_n, 0.0))
    return np.abs(reduced.coherence) <= bound + 1e-9


@dataclass(frozen=True)
class CorrelationTimeSeries(PairMeasures):
    """PairMeasures of pair (m, n) at every time of a trajectory's output grid."""

    m: int
    n: int
    times_fs: np.ndarray


def pair_series(trajectory, m, n):
    """Closed-form measures for pair (m, n) at every output time."""
    reduced = reduce_pair(trajectory.rhos, m, n)
    return CorrelationTimeSeries(m=reduced.m, n=reduced.n,
                                 times_fs=trajectory.times_fs,
                                 **vars(closed_form_measures(reduced)))


def all_pairs(n_sites=N_SITES):
    return [(m, n) for m in range(1, n_sites + 1) for n in range(m + 1, n_sites + 1)]
