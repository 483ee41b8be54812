"""Node-by-node reference definition of the HEOM generator.

`fmoheom.heom` evaluates the generator as one vectorized kernel on the
real storage Q of a Hermitian hierarchy. These per-node operators act on
complex matrices and follow the equations term by term, with coefficients
derived here from the parameters; the tests check the kernel, its
coefficients included, against them.
"""

from dataclasses import dataclass

import numpy as np

from fmoheom.model import N_SITES

# Wavenumbers to angular frequency: omega = 2 pi c nu, c in cm/fs.
SPEED_OF_LIGHT_CM_PER_FS = 2.99792458e-5
# Boltzmann constant in cm^-1 per kelvin.
BOLTZMANN_CM_PER_K = 0.69503


@dataclass(frozen=True)
class Coefficients:
    """The Drude-bath HEOM coefficients of one parameter set, hbar = 1."""

    h_shifted: np.ndarray  # H_e + lambda I in rad/fs
    lam: float             # reorganization energy lambda, rad/fs
    gamma: float           # relaxation rate gamma, 1/fs
    theta_comm: float      # 2 lambda / beta, rad^2/fs^2
    theta_anti: float      # lambda gamma, rad/fs^2


def reference_coefficients(params):
    """Coefficients from the parameters, written out from the paper's formulas."""
    radfs = 2.0 * np.pi * SPEED_OF_LIGHT_CM_PER_FS
    lam = params.lambda_cm * radfs
    gamma = 1.0 / params.gamma_inv_fs
    beta = 1.0 / (BOLTZMANN_CM_PER_K * params.temperature_K * radfs)
    h = params.hamiltonian_cm * radfs + lam * np.eye(N_SITES)
    return Coefficients(h_shifted=h.astype(complex), lam=lam, gamma=gamma,
                        theta_comm=2.0 * lam / beta, theta_anti=lam * gamma)


def commutator(a, b):
    """[A, B] = AB - BA."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def anticommutator(a, b):
    """{A, B} = AB + BA."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a @ b + b @ a


def apply_liouvillian(g, coef):
    """Unitary part: [H_e + lambda I, g]."""
    return commutator(coef.h_shifted, g)


def _projector(k, n):
    v = np.zeros((n, n), dtype=complex)
    v[k - 1, k - 1] = 1.0
    return v


def apply_phi(k, g):
    """Upward coupling Phi_k g = i [|k><k|, g] (k is 1-based)."""
    g = np.asarray(g, dtype=complex)
    return 1j * commutator(_projector(k, g.shape[0]), g)


def apply_theta(k, g, coef):
    """Downward coupling Theta_k g = i (2 lambda / beta) [V_k, g] + lambda gamma {V_k, g}."""
    g = np.asarray(g, dtype=complex)
    v = _projector(k, g.shape[0])
    return (1j * coef.theta_comm * commutator(v, g)
            + coef.theta_anti * anticommutator(v, g))


def apply_trapping(g, trap_sites, r_trap):
    """Reaction-center trapping: -r_trap sum_s {|s><s|, g} over trap sites."""
    if r_trap < 0:
        raise ValueError("trap rate must be nonnegative")
    g = np.asarray(g, dtype=complex)
    out = np.zeros_like(g)
    for s in trap_sites:
        out -= r_trap * anticommutator(_projector(s, g.shape[0]), g)
    return out


def reference_rhs(prop, z):
    """Derivative of the complex hierarchy state z, shape (count, n, n), node by node.

    Neighbours are looked up in a rank dict of the multi-indices, not in
    the propagator's neighbour table.
    """
    p, indices = prop.params, prop.space.tables[0]
    coef = reference_coefficients(p)
    rank = {tuple(int(v) for v in row): i for i, row in enumerate(indices)}
    out = np.empty_like(z, dtype=complex)
    for c in range(prop.count):
        nk = indices[c]
        d = -1j * apply_liouvillian(z[c], coef)
        d -= sum(n * coef.gamma for n in nk) * z[c]
        d += apply_trapping(z[c], p.trap_sites, p.trap_rate_inv_fs)
        for k in range(N_SITES):
            up, down = list(nk), list(nk)
            up[k] += 1
            down[k] -= 1
            if tuple(up) in rank:
                d += apply_phi(k + 1, z[rank[tuple(up)]])
            if tuple(down) in rank:
                d += nk[k] * apply_theta(k + 1, z[rank[tuple(down)]], coef)
        out[c] = d
    return out
