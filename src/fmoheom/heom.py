"""Hierarchically coupled equations of motion for the FMO monomer.

Every coupling of this HEOM preserves Hermiticity, so a Hermitian physical
state keeps every auxiliary operator zeta(n) Hermitian. Each node is
stored as the real n x n matrix Q = Re zeta + Im zeta, n = N_SITES = 7:
its symmetric part is Re zeta and its antisymmetric part Im zeta, so Q
determines zeta (`to_real`, `from_real`). The hierarchy state is a
(count, n, n) float array; slot 0 is the physical density operator.

The derivative of each node is P + P^dagger with

    P = zeta X + sum_k i V_k zeta+_k + sum_k n_k (i a + b) V_k zeta-_k
        - 1/2 gamma |n| zeta,    X = i H_eff^dagger,

where V_k = |k><k| and |n| = sum_k n_k is the depth of the node. Every
site has one Drude mode with the same reorganization energy lambda =
lambda_cm * CM_TO_RADFS and rate gamma, so `HEOMPropagator` derives three
numbers from `SystemParams` (rad/fs, hbar = 1, beta = 1 / kT):

    gamma = 1 / gamma_inv_fs              the damping rate;
    a = 2 lambda / beta                   the commutator and
    b = lambda gamma                      anticommutator coefficients of
                                          Theta_k = i a [V_k, .] + b {V_k, .}.

H_eff = H_e - i r sum_s |s><s|: the trapping -r sum_s {|s><s|, .} over
the trap sites s is its anti-Hermitian part. The site shift lambda of
H_e + lambda I is left out: with one lambda for every site it is a real
multiple of the identity, which cancels in P + P^dagger.
The right-hand side is one compiled kernel (`_kernel.c`, built and
loaded by `fmoheom.kernel`). It makes one pass over the nodes; for each
node it forms Y = Q - i Q^T = (1 - i) zeta in registers, evaluates
P' = (1 - i) P = Y X + R' Y, and writes the derivative of Q,
Re P' - (Im P')^T, once. R' is a constant CSR coupling with at most
three entries per row (down neighbour, damping, up neighbour); its only
zeros are the top node's seven damping entries, -gamma 0 / 2, kept so a
term on R''s diagonal needs no new entries. Row k of Y of a neighbour is
row k and column k of its Q.

Integration is the adaptive Dormand-Prince 5(4) pair with the step
control of `solve_ivp`'s RK45, in a loop that owns every state-sized
buffer. The stage sums y + h sum_j a_sj k_j and the RMS error norm run
in the same compiled unit; step control, FSAL, dense output and sampling
stay here. The error norm is taken over the moduli |zeta_ij| =
sqrt((Q_ij^2 + Q_ji^2) / 2), which equals RK45's norm on the complex
state, so the step sequence is that of RK45 on zeta. The loop ends at
exactly t_end, the last time of `SystemParams.output_times()`; the dense
output of each step, evaluated for the physical block only, is sampled
onto that grid.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import kernel
from .hierarchy import enumerate_hierarchy
from .linalg import check_hermitian_matrix
from .model import CM_TO_RADFS, KB_CM_PER_K, N_SITES, check_finite

# Dormand-Prince 5(4) (Hairer, Norsett & Wanner, Solving ODEs I, II.5).
# Row s of _A gives stage s from stages 0..s-1; the last row is the
# fifth-order solution, whose derivative is the first stage of the next
# step (FSAL). _E is the fifth- minus fourth-order weight over all seven
# stages and _P the quartic dense-output polynomial of `solve_ivp`'s RK45
# (Shampine, Math. Comp. 46, 135 (1986)).
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1, 1])
_A = np.array([
    [0, 0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656, 0],
    [35/384, 0, 500/1113, 125/192, -2187/6784, 11/84],
])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


@dataclass(frozen=True)
class IntegratorConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    initial_step_fs: float = 0.01
    max_step_fs: float = 10.0

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol", "initial_step_fs", "max_step_fs"):
            check_finite(name, getattr(self, name))


class IntegrationError(RuntimeError):
    """Integration failed (step-size underflow or tolerance not met)."""


def to_real(zeta):
    """Real storage Q = Re zeta + Im zeta of Hermitian matrices (..., n, n)."""
    zeta = np.asarray(zeta)
    return zeta.real + zeta.imag


def from_real(q):
    """The Hermitian matrices stored as Q: symmetric part real, antisymmetric imaginary."""
    qt = np.swapaxes(q, -1, -2)
    return 0.5 * (q + qt) + 0.5j * (q - qt)


@dataclass(frozen=True)
class IntegratorStats:
    """Cost and step sizes of one integration."""

    nfev: int           # right-hand side evaluations
    accepted: int       # accepted steps
    rejected: int       # rejected step attempts
    min_step_fs: float  # smallest accepted step
    max_step_fs: float  # largest accepted step


@dataclass(frozen=True)
class Trajectory:
    """Physical density operator sampled on a uniform output grid."""

    times_fs: np.ndarray  # (T,)
    rhos: np.ndarray      # (T, n, n) complex
    hierarchy_count: int
    stats: Optional[IntegratorStats] = None

    def populations(self):
        """Real site populations, shape (T, n)."""
        return np.real(np.einsum("tii->ti", self.rhos))

    def traces(self):
        return np.real(np.trace(self.rhos, axis1=1, axis2=2))


class HEOMPropagator:
    """Precomputed HEOM right-hand side and integrator for fixed parameters."""

    def __init__(self, params, config=None):
        self.params = params
        self.config = config or IntegratorConfig()
        self.space = space = enumerate_hierarchy(N_SITES, params.truncation_N)
        # The bath coefficients (module docstring), in rad/fs with hbar = 1.
        lam = params.lambda_cm * CM_TO_RADFS
        gamma = 1.0 / params.gamma_inv_fs
        kT = KB_CM_PER_K * params.temperature_K * CM_TO_RADFS

        # Trapping -r sum_s {|s><s|, .} is the anti-Hermitian part of H_eff:
        # -i (H_eff z - z H_eff^dagger) is the unitary plus trapping term.
        h_eff = (params.hamiltonian_cm * CM_TO_RADFS).astype(complex)
        for s in params.trap_sites:
            h_eff[s - 1, s - 1] -= 1j * params.trap_rate_inv_fs
        self._x = np.ascontiguousarray(1j * h_eff.conj().T)

        # R' in canonical CSR. Row c * n + k acts on row k of node c's
        # neighbours, in column order: n_k Theta_k on the down neighbour
        # (when n_k > 0), half the damping -gamma sum_k n_k, and
        # Phi_k = i [V_k, .] on the up neighbour (when n + e_k is within
        # the truncation: the row is the `lower` end of a down edge).
        # P + P^dagger restores the column parts and the other half. Down
        # neighbours rank lower and up neighbours higher, so nothing is sorted.
        n, m = N_SITES, self.count * N_SITES
        node, site = np.nonzero(space.indices)
        upper = node * n + site
        lower = space.neighbors_minus[node, site] * n + site
        has_down = (space.indices > 0).reshape(-1)
        width = 1 + has_down
        width[lower] += 1
        indptr = np.zeros(m + 1, dtype=np.int32)
        np.cumsum(width, out=indptr[1:])
        indices = np.empty(indptr[-1], dtype=np.int32)
        data = np.empty(indptr[-1], dtype=complex)
        first, diag, last = indptr[upper], indptr[:-1] + has_down, indptr[lower + 1] - 1
        indices[first] = lower
        data[first] = space.indices[node, site] * (1j * (2.0 * lam * kT) + lam * gamma)
        indices[diag] = np.arange(m)
        data[diag] = np.repeat(-0.5 * gamma * space.depths, n)
        indices[last] = upper
        data[last] = 1j
        self._indptr, self._indices, self._data = indptr, indices, data
        self._args = kernel.bind(self.count, self._x, indptr, indices, data)

    @property
    def count(self):
        return self.space.count

    @property
    def state_shape(self):
        return (self.count, N_SITES, N_SITES)

    def initial_hierarchy(self, rho0):
        """Factorized initial condition Q: physical state at the top, auxiliaries zero."""
        rho0 = check_hermitian_matrix(rho0, name="initial state")
        if rho0.shape != (N_SITES, N_SITES):
            raise ValueError(f"initial state must be {N_SITES}x{N_SITES}")
        q = np.zeros(self.state_shape)
        q[0] = to_real(rho0)
        return q

    def rhs(self, t, q, out=None):
        """Time derivative of the real hierarchy state Q, shape (count, n, n).

        Both `q` and `out` must be C-contiguous float64 arrays of that
        shape that share no memory; the derivative is written to `out`
        (allocated when not given) and returned.
        """
        if out is None:
            out = np.empty(self.state_shape)
        q_ptr = kernel.check("hierarchy state", q, np.float64, self.state_shape)
        out_ptr = kernel.check("derivative", out, np.float64, self.state_shape)
        if np.shares_memory(q, out):
            raise ValueError("the derivative must not overlap the hierarchy state")
        kernel.LIB.heom_rhs(*self._args, q_ptr, out_ptr)
        return out

    def run(self, rho0):
        """Integrate from a factorized initial condition; return a Trajectory.

        Only the physical operator zeta(0) is stored, at the times of
        params.output_times(). It is read from the dense output of each
        step, evaluated for the n * n physical entries only, so memory
        stays flat in the grid size.
        """
        times = self.params.output_times()
        t_end, n_out = float(times[-1]), times.size - 1
        y = self.initial_hierarchy(rho0)
        samples = np.empty((n_out + 1, N_SITES, N_SITES))
        samples[0] = y[0]

        cfg = self.config
        k = np.empty((7,) + y.shape)
        y_new = np.empty_like(y)
        # The compiled stage sum and error norm take raw pointers to these
        # buffers, which live until the loop ends; y and y_new swap after
        # each step.
        stage, norm = kernel.LIB.heom_stage, kernel.LIB.heom_error_norm
        kp, yp, ynp = k.ctypes.data, y.ctypes.data, y_new.ctypes.data
        tableau, e = _A.ctypes.data, _E.ctypes.data
        t, h_abs = 0.0, cfg.initial_step_fs
        self.rhs(t, y, out=k[0])
        nfev, accepted, rejected, h_min, h_max = 1, 0, 0, math.inf, 0.0
        next_i = 1
        while t < t_end:
            min_step = 10 * abs(np.nextafter(t, math.inf) - t)
            h_abs = min(max(h_abs, min_step), cfg.max_step_fs)
            step_rejected = False
            while True:
                if h_abs < min_step:
                    raise IntegrationError(
                        f"Dormand-Prince step failed at t = {t:.6g} fs "
                        "(step-size underflow or tolerance not met)")
                t_new = min(t + h_abs, t_end)
                h = h_abs = t_new - t
                for s in range(1, 7):
                    stage(self.count, s, tableau, h, yp, kp, ynp)
                    self.rhs(t + _C[s] * h, y_new, out=k[s])
                nfev += 6
                error_norm = norm(self.count, e, h, cfg.abs_tol, cfg.rel_tol,
                                  yp, ynp, kp)
                if error_norm < 1:
                    factor = (_MAX_FACTOR if error_norm == 0 else
                              min(_MAX_FACTOR, _SAFETY * error_norm ** -0.2))
                    h_abs *= min(1, factor) if step_rejected else factor
                    break
                h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** -0.2)
                step_rejected = True
                rejected += 1
            accepted += 1
            h_min, h_max = min(h_min, h), max(h_max, h)

            poly = None
            while next_i <= n_out and times[next_i] <= t_new + 1e-12:
                if poly is None:
                    # RK45's dense output restricted to the physical block.
                    poly = k[:, 0].reshape(7, -1).T @ _P
                x = (min(times[next_i], t_new) - t) / h
                p = np.cumprod(np.full(poly.shape[1], x))
                samples[next_i] = (h * (poly @ p)).reshape(N_SITES, N_SITES) + y[0]
                next_i += 1
            t, y, y_new, yp, ynp = t_new, y_new, y, ynp, yp
            k[0] = k[6]
        stats = IntegratorStats(nfev=nfev, accepted=accepted, rejected=rejected,
                                min_step_fs=h_min, max_step_fs=h_max)
        return Trajectory(times_fs=times, rhos=from_real(samples),
                          hierarchy_count=self.count, stats=stats)


def convergence_study(rho0, params, n_values, config=None):
    """Trace-distance convergence D(N, N+1) maximized over the output grid.

    Returns a list of (N, D) pairs for every N in `n_values`. Trajectories
    are shared between adjacent truncation levels.
    """
    # Imported at call time: perfbench patches fmoheom.linalg.trace_distance
    # then, and a module-level import would hide that layer from it.
    from .linalg import trace_distance

    n_values = sorted(set(n_values))
    needed = sorted(set(n_values) | {v + 1 for v in n_values})
    # Every level is validated before the first one is integrated.
    levels = {n_trunc: replace(params, truncation_N=n_trunc) for n_trunc in needed}
    trajs = {n_trunc: HEOMPropagator(p, config).run(rho0)
             for n_trunc, p in levels.items()}
    out = []
    for n_trunc in n_values:
        a, b = trajs[n_trunc], trajs[n_trunc + 1]
        d = max(
            trace_distance(ra, rb, rtol=1e-4)
            for ra, rb in zip(a.rhos, b.rhos)
        )
        out.append((n_trunc, d))
    return out
