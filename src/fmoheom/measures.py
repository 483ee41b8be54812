"""Bipartite correlation measures for chromophore pairs.

The reduced two-chromophore state is four numbers, `source_trace`, `pop_m`,
`pop_n` and `coherence` = rho_mn, and the 4x4 Hermitian `matrix` built from
them, whose double-excitation sector is empty because the model is
restricted to one excitation. Measures are evaluated on the trace-carrying
reduced state (trace <= 1 when trapping is active) without renormalization.

The program computes the closed forms valid for this single-excitation
family (`closed_form_measures`). The general-purpose constructions
(Horodecki correlation matrix, Wootters spin-flip) are their check.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import PAULI, STATE_TOL, check_hermitian
from .hierarchy import _is_integer
from .model import N_SITES

# PAULI_PAIRS[a, b] = sigma_a (x) sigma_b, the nine two-qubit Pauli products.
PAULI_PAIRS = np.einsum("aij,bkl->abikjl", PAULI, PAULI).reshape(3, 3, 4, 4)


@dataclass(frozen=True)
class ReducedPairState:
    """Reduced state of sites m < n (1-based): Tr rho, rho_mm, rho_nn and rho_mn,
    scalars for one state or arrays over a stack, and the `matrix` built from them."""

    m: int
    n: int
    source_trace: float
    pop_m: float
    pop_n: float
    coherence: complex
    matrix: np.ndarray = field(init=False)

    def __post_init__(self):
        # Product basis, qubit m first: 0 = |0_m 0_n>, 1 = |0_m 1_n>,
        # 2 = |1_m 0_n>, 3 = |1_m 1_n>; the double excitation stays zero.
        mat = np.zeros(np.shape(self.source_trace) + (4, 4), dtype=complex)
        mat[..., 0, 0] = self.source_trace - self.pop_m - self.pop_n
        mat[..., 1, 1] = self.pop_n
        mat[..., 2, 2] = self.pop_m
        mat[..., 1, 2] = self.coherence
        mat[..., 2, 1] = np.conj(self.coherence)
        object.__setattr__(self, "matrix", mat)


def reduce_pair(rho, m, n):
    """Trace out all chromophores except m and n from the 7x7 state.

    `rho` is one state or a (T, 7, 7) stack, reduced matrix by matrix.
    The ground-ground population Tr(rho) - rho_mm - rho_nn must not be
    negative.
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
    # One state gives scalars, the trace and the entries that [()] takes
    # out of their 0-d arrays, so the arithmetic and the checks below
    # (count_nonzero as any) make no array; [()] passes a stack's arrays.
    tr = rho.trace(axis1=-2, axis2=-1).real
    if np.count_nonzero(tr > 1.0 + STATE_TOL):
        raise ValueError(f"state trace {np.max(tr)} exceeds 1")
    p_m = rho[..., m - 1, m - 1].real[()]
    p_n = rho[..., n - 1, n - 1].real[()]
    c = rho[..., m - 1, n - 1][()]
    gg = tr - p_m - p_n
    if np.count_nonzero(gg < -STATE_TOL):
        raise ValueError(f"negative ground-ground population {np.min(gg):.3e}; "
                         "full state is corrupted")
    return ReducedPairState(m=m, n=n, source_trace=tr, pop_m=p_m, pop_n=p_n,
                            coherence=c)


def _pair_state(rho4):
    """The gate of every single-state measure: one Hermitian 4x4 matrix."""
    rho4 = check_hermitian(rho4, name="pair state")
    if rho4.ndim != 2:
        raise ValueError(f"pair state must be one matrix, got shape {rho4.shape}")
    if rho4.shape != (4, 4):
        raise ValueError(f"pair state must be 4x4, got shape {rho4.shape}")
    return rho4


def correlation_matrix(rho4):
    """3x3 Pauli correlation matrix t_ab = Tr(rho sigma_a x sigma_b)."""
    rho4 = _pair_state(rho4)
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
    return math.sqrt(max(horodecki_M(rho4) - 1.0, 0.0))


@dataclass(frozen=True)
class PairMeasures:
    """Closed-form measures of one reduced state, or arrays over a stack."""

    B: float
    C: float
    M: float
    mu1: float
    mu3: float


def closed_form_measures(reduced):
    """Closed-form B, Horodecki's M and concurrence for a single-excitation pair.

    The correlation-matrix spectrum for this family is mu1 = mu2 =
    4|rho_mn|^2 and mu3 = (Tr - 2(rho_mm + rho_nn))^2, so
    M = max(2 mu1, mu1 + mu3) and B = sqrt(max(M - 1, 0)); concurrence
    and l1 coherence both equal C = 2|rho_mn|. Elementwise over a stack
    of reduced states; hypot and float_power round exactly as abs(complex)
    and x ** 2 do on Python scalars.
    """
    coherence = reduced.coherence
    c_abs = np.hypot(coherence.real, coherence.imag)
    mu1 = 4.0 * np.float_power(c_abs, 2)
    mu3 = np.float_power(
        reduced.source_trace - 2.0 * (reduced.pop_m + reduced.pop_n), 2)
    m = np.maximum(2.0 * mu1, mu1 + mu3)
    return PairMeasures(B=np.sqrt(np.maximum(m - 1.0, 0.0)), C=2.0 * c_abs, M=m,
                        mu1=mu1, mu3=mu3)


def wootters_concurrence(rho4):
    """Wootters concurrence from the spin-flipped R operator.

    Conjugation is taken in the computational product basis. For
    single-excitation reduced states this equals 2|rho_mn| including the
    trace-deficient case.
    """
    rho4 = _pair_state(rho4)
    evals, vecs = np.linalg.eigh(rho4)
    if evals[0] < -1e-8 * max(evals[-1], 1.0):
        raise ValueError(f"pair state is not positive (min eigenvalue {evals[0]:.3e})")
    # With rho = W W^dagger, the eigenvalues of R are the singular values of
    # W^T (sigma_y x sigma_y) W, accurate to rounding; square roots of the
    # eigenvalues of rho @ rho_tilde turn a 1e-17 error at zero into 3e-9.
    w = vecs * np.sqrt(np.maximum(evals, 0.0))
    lam = np.linalg.svd(w.T @ PAULI_PAIRS[1, 1] @ w, compute_uv=False)
    return float(max(lam[0] - lam[1] - lam[2] - lam[3], 0.0))


def positivity_bound_check(reduced):
    """|rho_mn| <= sqrt(rho_mm rho_nn) (+ STATE_TOL), forced by positivity of the pair."""
    bound = np.sqrt(np.maximum(reduced.pop_m, 0.0) * np.maximum(reduced.pop_n, 0.0))
    return np.abs(reduced.coherence) <= bound + STATE_TOL


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
