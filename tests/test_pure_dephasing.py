"""The whole HEOM against an exact answer: pure dephasing.

With every coupling J_mn = 0 each site's bath only dephases. For the
correlation function C(t) = (a - ib) e^{-gamma t} of one Drude mode per
site, a = 2 lambda kT, populations stay constant and

    rho_mn(t) = rho_mn(0) e^{-i (eps_m - eps_n) t} e^{-2 Re g(t)},  m != n,
    Re g(t) = (a / gamma^2) (e^{-gamma t} + gamma t - 1),

the cumulant line-shape function, exact for a Gaussian bath (Mukamel,
Principles of Nonlinear Optical Spectroscopy, Oxford 1995). The imaginary
parts of g cancel because every site has the same bath. The closed form
below is written from these formulas, in rad/fs with hbar = 1; it shares
only the unit constants with the package.
"""

import numpy as np
import pytest

from fmoheom.heom import HEOMPropagator
from fmoheom.model import CM_TO_RADFS, FMO_HAMILTONIAN_CM, KB_CM_PER_K, SystemParams


def exact_dephasing(params, rho0):
    """rho(t) on params.output_times() for a diagonal Hamiltonian."""
    eps = np.diag(params.hamiltonian_cm) * CM_TO_RADFS
    lam = params.lambda_cm * CM_TO_RADFS
    gamma = 1.0 / params.gamma_inv_fs
    a = 2.0 * lam * KB_CM_PER_K * params.temperature_K * CM_TO_RADFS
    t = params.output_times()[:, None, None]
    re_g = a / gamma**2 * (np.exp(-gamma * t) + gamma * t - 1.0)
    phase = np.exp(-1j * (eps[:, None] - eps[None, :]) * t)
    return rho0 * phase * np.exp(-2.0 * re_g * (1.0 - np.eye(eps.size)))


UNIFORM = np.full((7, 7), 1.0 / 7, dtype=complex)  # the uniform superposition


def dephasing_run(truncation_N, temperature_K, t_end_fs=300.0):
    """The parameters with the diagonal of the FMO Hamiltonian and no trap,
    and the HEOM trajectory from UNIFORM."""
    params = SystemParams(hamiltonian_cm=np.diag(np.diag(FMO_HAMILTONIAN_CM)),
                          trap_sites=(), temperature_K=temperature_K,
                          truncation_N=truncation_N, t_end_fs=t_end_fs)
    return params, HEOMPropagator(params).run(UNIFORM)


def dephasing_error(truncation_N, temperature_K):
    """max |rho_HEOM - rho_exact| over 300 fs."""
    params, trajectory = dephasing_run(truncation_N, temperature_K)
    return np.abs(trajectory.rhos - exact_dephasing(params, UNIFORM)).max()


def test_ladder_converges_to_the_exact_answer_at_77K():
    # Measured: 1.4e-1, 2.8e-2, 5.6e-3, 8.7e-4, 1.1e-4, 1.1e-5, 1.0e-6.
    errors = [dephasing_error(n, 77.0) for n in range(7)]
    assert all(deeper < shallower for shallower, deeper in zip(errors, errors[1:])), errors
    assert errors[-1] < 3e-6, errors


def test_truncation_6_at_300K():
    # Measured 1.7e-4: at 300 K the ladder falls more slowly.
    assert dephasing_error(6, 300.0) < 5e-4


@pytest.mark.parametrize("truncation_N", [0, 3])
def test_populations_stay_constant(truncation_N):
    _, trajectory = dephasing_run(truncation_N, 300.0, t_end_fs=100.0)
    np.testing.assert_allclose(trajectory.populations(), 1.0 / 7, rtol=0, atol=1e-12)
