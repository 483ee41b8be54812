"""Node-by-node reference definition of the HEOM generator.

`fmoheom.heom` evaluates the generator as one vectorized kernel on the
real storage Q of a Hermitian hierarchy. These per-node operators act on
complex matrices and follow the equations term by term; the tests check
the kernel against them.
"""

import numpy as np

from fmoheom.model import N_SITES


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


def apply_liouvillian(g, h_shifted):
    """Unitary part: [H_e + sum_k lambda_k |k><k|, g]."""
    return commutator(h_shifted, g)


def _projector(k, n):
    v = np.zeros((n, n), dtype=complex)
    v[k - 1, k - 1] = 1.0
    return v


def apply_phi(k, g):
    """Upward coupling Phi_k g = i [|k><k|, g] (k is 1-based)."""
    g = np.asarray(g, dtype=complex)
    return 1j * commutator(_projector(k, g.shape[0]), g)


def apply_theta(k, g, prefactors):
    """Downward coupling Theta_k g = i (2 lam_k / beta) [V_k, g] + lam_k gamma_k {V_k, g}."""
    g = np.asarray(g, dtype=complex)
    v = _projector(k, g.shape[0])
    return (1j * prefactors.theta_comm[k - 1] * commutator(v, g)
            + prefactors.theta_anti[k - 1] * anticommutator(v, g))


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
    """Derivative of the complex hierarchy state z, shape (count, n, n), node by node."""
    p, space, pref = prop.params, prop.space, prop.pref
    out = np.empty_like(z, dtype=complex)
    for c in range(prop.count):
        nk = space.indices[c]
        d = -1j * apply_liouvillian(z[c], prop.h_shifted)
        d -= (nk @ pref.gamma) * z[c]
        d += apply_trapping(z[c], p.trap_sites, p.trap_rate_inv_fs)
        for k in range(N_SITES):
            up, down = space.neighbors_plus[c, k], space.neighbors_minus[c, k]
            if up >= 0:
                d += apply_phi(k + 1, z[up])
            if down >= 0:
                d += nk[k] * apply_theta(k + 1, z[down], pref)
        out[c] = d
    return out
