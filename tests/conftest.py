import numpy as np
import pytest

from fmoheom import HEOMPropagator, SystemParams, exciton_basis, localized_state


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def pair_state(tr, p_m, p_n, c):
    """Reduced pair state of trace tr in the basis 00, 01, 10, 11: site
    populations p_m and p_n, coherence c and no double excitation."""
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = tr - p_m - p_n
    mat[1, 1] = p_n
    mat[2, 2] = p_m
    mat[1, 2] = c
    mat[2, 1] = np.conj(c)
    return mat


def random_pair_state(rng, max_trace=1.0):
    """Random single-excitation reduced pair state respecting positivity."""
    tr = rng.uniform(0.2, max_trace)
    p_m = rng.uniform(0, tr)
    p_n = rng.uniform(0, tr - p_m)
    c_abs = rng.uniform(0, np.sqrt(p_m * p_n))
    c = c_abs * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return pair_state(tr, p_m, p_n, c), p_m, p_n, c, tr


@pytest.fixture(scope="session")
def desk_params():
    """Desk-scale localized-run parameters (N=6, 520 fs)."""
    return SystemParams(truncation_N=6, t_end_fs=520.0, dt_out_fs=1.0)


@pytest.fixture(scope="session")
def traj_x1_n6(desk_params):
    return HEOMPropagator(desk_params).run(localized_state(1))


@pytest.fixture(scope="session")
def traj_x6_n6(desk_params):
    return HEOMPropagator(desk_params).run(localized_state(6))


@pytest.fixture(scope="session")
def basis():
    return exciton_basis(SystemParams(truncation_N=0))
