"""Hierarchically coupled equations of motion for the FMO monomer.

The full hierarchy state is a (count, n, n) complex array of auxiliary
operators zeta(n); slot 0 is the physical density operator. The
right-hand side works on two (count * n, n) row-block layouts of that
state: z2, in which row c * n + k is row k of node c, and zt2, the same
view of the per-node transposes, in which that row is column k of node c.
Each layout is multiplied by one 7x7 matrix (the unitary part with
trapping folded into a non-Hermitian H_eff) and by one constant sparse
coupling with a fixed number of entries per row (the up and down
neighbours of the hierarchy, and damping on the diagonal of the row
coupling). Integration uses the adaptive Dormand-Prince 5(4) pair
(scipy's RK45); the dense output of each step is evaluated for the
physical block only and sampled onto a uniform grid.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import RK45
from scipy.sparse import csr_matrix

from .hierarchy import enumerate_hierarchy
from .linalg import commutator, anticommutator
from .model import build_hamiltonian, output_steps, thermal_prefactors


@dataclass(frozen=True)
class IntegratorConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    initial_step_fs: float = 0.01
    max_step_fs: float = 10.0

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol", "initial_step_fs", "max_step_fs"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")


class IntegrationError(RuntimeError):
    """Integration failed (step-size underflow or tolerance not met)."""


def shifted_hamiltonian(params):
    """H_e plus the site reorganization shifts, in rad/fs."""
    h = build_hamiltonian(params)
    lam = thermal_prefactors(params).lam
    return h + np.diag(lam.astype(complex))


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


@dataclass(frozen=True)
class Trajectory:
    """Physical density operator sampled on a uniform output grid."""

    times_fs: np.ndarray  # (T,)
    rhos: np.ndarray      # (T, n, n) complex
    hierarchy_count: int

    def populations(self):
        """Real site populations, shape (T, n)."""
        return np.real(np.einsum("tii->ti", self.rhos))

    def traces(self):
        return np.real(np.trace(self.rhos, axis1=1, axis2=2))


def _neighbor_coupling(neighbors, values, count, n):
    """One CSR entry per (row c * n + k, table) from neighbor tables.

    Row c * n + k of the result picks row k of node neighbors[t][c, k]
    with weight values[t][c, k]; tables and values broadcast to
    (count, n). A missing neighbor (negative rank) keeps its slot as an
    explicit zero on the diagonal, so every row has the same width.
    """
    m = count * n
    rows = np.arange(m, dtype=np.int32).reshape(count, n)
    k = np.arange(n, dtype=np.int32)
    width = len(neighbors)
    indices = np.empty((m, width), dtype=np.int32)
    data = np.empty((m, width), dtype=complex)
    for j, (nb, val) in enumerate(zip(neighbors, values)):
        present = np.broadcast_to(nb >= 0, (count, n))
        indices[:, j] = np.where(present, nb * n + k, rows).reshape(-1)
        data[:, j] = np.where(present, val, 0.0).reshape(-1)
    indptr = np.arange(0, width * m + 1, width, dtype=np.int32)
    return csr_matrix((data.reshape(-1), indices.reshape(-1), indptr), shape=(m, m))


class HEOMPropagator:
    """Precomputed HEOM right-hand side and integrator for fixed parameters."""

    def __init__(self, params, config=None):
        self.params = params
        self.config = config or IntegratorConfig()
        self.space = enumerate_hierarchy(params.n_sites, params.truncation_N)
        self.pref = thermal_prefactors(params)
        self.h_shifted = shifted_hamiltonian(params)

        n = params.n_sites
        # Trapping -r sum_s {|s><s|, .} is the anti-Hermitian part of H_eff:
        # -i (H_eff z - z H_eff^dagger) is the unitary plus trapping term.
        h_eff = self.h_shifted.copy()
        for s in params.trap_sites:
            h_eff[s - 1, s - 1] -= 1j * params.trap_rate_inv_fs
        self._h_right = 1j * h_eff.conj().T   # z2 @ this: i z H_eff^dagger
        self._h_left_t = (-1j * h_eff).T      # zt2 @ this: (-i H_eff z)^T

        # Phi_k = i [V_k, .] from the up neighbors and n_k Theta_k from the
        # down neighbors, split into the part acting on row k (left factor)
        # and the part acting on column k (right factor); damping
        # -sum_k n_k gamma_k sits on the diagonal of the row coupling.
        plus, minus = self.space.neighbors_plus, self.space.neighbors_minus
        nk = self.space.indices.astype(float)
        a, b = self.pref.theta_comm, self.pref.theta_anti
        damp = (nk @ self.pref.gamma)[:, None]
        diag = np.arange(self.count)[:, None]
        self._row_coupling = _neighbor_coupling(
            (minus, diag, plus), (nk * (1j * a + b), -damp, 1j), self.count, n)
        self._col_coupling = _neighbor_coupling(
            (minus, plus), (nk * (-1j * a + b), -1j), self.count, n)

    @property
    def count(self):
        return self.space.count

    def initial_hierarchy(self, rho0):
        """Factorized initial condition: physical state at the top, auxiliaries zero."""
        rho0 = np.asarray(rho0, dtype=complex)
        n = self.params.n_sites
        if rho0.shape != (n, n):
            raise ValueError(f"initial state must be {n}x{n}")
        z = np.zeros((self.count, n, n), dtype=complex)
        z[0] = rho0
        return z

    def rhs(self, t, zetas):
        """Time derivative of the full hierarchy state, shape (count, n, n)."""
        zetas = np.asarray(zetas)
        n = self.params.n_sites
        shape = (self.count, n, n)
        if zetas.shape != shape:
            raise ValueError(f"hierarchy state must have shape {shape}, "
                             f"got {zetas.shape}")
        zt2 = np.ascontiguousarray(zetas.transpose(0, 2, 1)).reshape(-1, n)
        g2 = zt2 @ self._h_left_t
        g2 += self._col_coupling @ zt2
        del zt2  # state-sized; freed before the row-layout temporaries
        z2 = zetas.reshape(-1, n)
        dz2 = z2 @ self._h_right
        dz2 += self._row_coupling @ z2
        dz = dz2.reshape(shape)
        dz += g2.reshape(shape).transpose(0, 2, 1)
        return dz

    def _rhs_flat(self, t, y):
        n = self.params.n_sites
        return self.rhs(t, y.reshape(self.count, n, n)).reshape(-1)

    def run(self, rho0, t_end_fs=None, dt_out_fs=None):
        """Integrate from a factorized initial condition; return a Trajectory.

        Only the physical operator zeta(0) is stored at output times. It is
        read from the integrator's dense output of each step, evaluated for
        the n * n physical entries only, so memory stays flat in the grid
        size.
        """
        t_end = float(t_end_fs if t_end_fs is not None else self.params.t_end_fs)
        dt_out = float(dt_out_fs if dt_out_fs is not None else self.params.dt_out_fs)
        n = self.params.n_sites
        n_out = output_steps(t_end, dt_out)
        times = np.arange(n_out + 1) * dt_out

        y0 = self.initial_hierarchy(rho0).reshape(-1)
        rhos = np.empty((n_out + 1, n, n), dtype=complex)
        rhos[0] = np.asarray(rho0, dtype=complex)

        solver = RK45(
            self._rhs_flat, 0.0, y0, t_bound=t_end,
            rtol=self.config.rel_tol, atol=self.config.abs_tol,
            first_step=self.config.initial_step_fs,
            max_step=self.config.max_step_fs,
        )
        next_i = 1
        try:
            while solver.status == "running":
                solver.step()
                if solver.status == "failed":
                    raise IntegrationError(
                        f"Dormand-Prince step failed at t = {solver.t:.6g} fs "
                        "(step-size underflow or tolerance not met)"
                    )
                q = None
                while next_i <= n_out and times[next_i] <= solver.t + 1e-12:
                    if q is None:
                        # scipy's RkDenseOutput restricted to the physical block.
                        h = solver.t - solver.t_old
                        q = solver.K[:, : n * n].T @ solver.P
                        y_old = solver.y_old[: n * n]
                    x = (min(times[next_i], solver.t) - solver.t_old) / h
                    p = np.cumprod(np.full(q.shape[1], x))
                    y = h * (q @ p) + y_old
                    rhos[next_i] = y.reshape(n, n)
                    next_i += 1
        finally:
            # The solver refers to itself through these closures; breaking
            # the cycle frees its stage arrays now instead of at the next
            # cyclic garbage collection.
            solver.fun = solver.fun_vectorized = None
        if next_i <= n_out:
            raise IntegrationError(
                f"integration stopped at t = {solver.t:.6g} fs before reaching "
                f"{t_end:.6g} fs"
            )
        return Trajectory(times_fs=times, rhos=rhos, hierarchy_count=self.count)


def convergence_study(rho0, params, n_values, config=None):
    """Trace-distance convergence D(N, N+1) maximized over the output grid.

    Returns a list of (N, D) pairs for every N in `n_values`. Trajectories
    are shared between adjacent truncation levels.
    """
    from .linalg import trace_distance

    n_values = sorted(set(int(v) for v in n_values))
    needed = sorted(set(n_values) | {v + 1 for v in n_values})
    trajs = {}
    for n_trunc in needed:
        p = replace(params, truncation_N=n_trunc)
        trajs[n_trunc] = HEOMPropagator(p, config).run(rho0)
    out = []
    for n_trunc in n_values:
        a, b = trajs[n_trunc], trajs[n_trunc + 1]
        d = max(
            trace_distance(ra, rb, rtol=1e-4)
            for ra, rb in zip(a.rhos, b.rhos)
        )
        out.append((n_trunc, d))
    return out
