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
the trap sites s is its anti-Hermitian part, so X = i H_e^T - diag(r),
with r the trap rate on the trap sites and 0 elsewhere. The site shift
lambda of H_e + lambda I is left out: with one lambda for every site it
is a real multiple of the identity, which cancels in P + P^dagger.
The right-hand side is one compiled pass over the nodes, `heom_rhs` in
`_kernel.c` (built and loaded by `fmoheom.kernel`), which states how it
evaluates P for each node from Q, X and the hierarchy's tables.

Integration is the adaptive Dormand-Prince 5(4) pair with the step
control of `solve_ivp`'s RK45. The generator L is linear and reads no
time, so a step of the pair is a polynomial in z = hL applied to y (its
stability polynomial; Hairer, Norsett & Wanner, Solving ODEs I, II.5).
The step is defined here by those polynomials, the fifth-order solution
and the error estimate,

    y_new = (1 + z + z^2/2 + z^3/6 + z^4/24 + z^5/120 + z^6/600) y,
    error = (97/120000 z^5 - 13/40000 z^6 + 1/24000 z^7) y.

The dense output of a step is the first of them at theta z, theta in
[0, 1]: y(t + theta h) = y + sum_i c_i (theta h)^i w_i, i = 1..6, with
w_i = L^i y and c_i the coefficients of y_new. Like y_new it agrees with
exp(theta z) y through z^5.

The loop owns eight state-sized buffers as one list, [y, w_1, ..., w_7].
An attempt is the chain w_j = L w_(j-1), j = 2..7, of six RHS calls from
w_1 = f(y) (FSAL), each passed the step's start time. One compiled pass,
`heom_step` in `_kernel.c`, then returns the error norm and writes y_new
into w_7's buffer and f(y_new) into w_6's; `_kernel.c` states what it
reads and writes and how it takes the norm. Acceptance swaps y with w_7
and w_1 with w_6. A rejected attempt recomputes the chain from the
untouched w_1, so a run makes 1 + 6 (accepted + rejected) RHS calls.
This form holds only while the generator stays linear and
time-independent: a time-dependent term, such as a pulsed field, would
need the stage sums back. Step control, dense output and sampling stay
here. Two departures from RK45: a step whose error estimate is not finite
ends the run with `IntegrationError`, where RK45 would shrink the step
until it underflows; and the dense output is the step polynomial above,
not RK45's own interpolant. The loop ends at exactly t_end, the last time
of `SystemParams.output_times()`. Each accepted step evaluates its dense
output on node 0 at every grid time it covers, t = 0 included, in one
product.
"""

import ctypes
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import kernel, linalg
from .hierarchy import enumerate_hierarchy
from .model import CM_TO_RADFS, KB_CM_PER_K, MAX_SAMPLES, N_SITES, check_finite

# The step polynomials of the module docstring as the coefficients of
# h^i w_i, w_i = L^i y, that `run` scales by h^i for the compiled pass:
# i = 1..6 of y_new (its i = 0 term is y) and i = 1..7 of the error.
# Each ratio of integers is the float nearest the exact coefficient.
_Y_NEW = np.array([1, 1 / 2, 1 / 6, 1 / 24, 1 / 120, 1 / 600])
_ERROR = np.array([0, 0, 0, 0, 97 / 120000, -13 / 40000, 1 / 24000])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_MIN_REL_TOL = 100 * np.finfo(float).eps


@dataclass(frozen=True)
class IntegratorConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    initial_step_fs: float = 0.01
    max_step_fs: float = 10.0

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol", "initial_step_fs", "max_step_fs"):
            check_finite(name, getattr(self, name))
        if self.rel_tol < _MIN_REL_TOL:
            raise ValueError(f"rel_tol must be at least {_MIN_REL_TOL:.3g} (100 eps, "
                             f"RK45's floor), got {self.rel_tol}")


# The configuration of every propagator given none; frozen, so it is shared.
_DEFAULT_CONFIG = IntegratorConfig()


def check_step_count(t_end_fs, max_step_fs):
    """Refuse a step cap under which a run takes more than MAX_SAMPLES
    steps, the limit of an output grid's intervals: a run over t_end_fs
    takes at least t_end_fs / max_step_fs steps."""
    steps = t_end_fs / max_step_fs
    if steps > MAX_SAMPLES:
        raise ValueError(
            f"t_end_fs = {t_end_fs:g} over max_step_fs = {max_step_fs:g} forces "
            f"at least {steps:.3g} steps, above the {MAX_SAMPLES} step limit")


class IntegrationError(RuntimeError):
    """Integration failed: step-size underflow or a non-finite error estimate."""


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
    """Cost and step sizes of one integration; a step is the accepted t_new - t."""

    nfev: int           # right-hand side evaluations
    accepted: int       # accepted steps
    rejected: int       # rejected step attempts
    min_step_fs: float  # smallest accepted step
    max_step_fs: float  # largest accepted step (cap + at most one ulp of t_new)


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
        self.config = config or _DEFAULT_CONFIG
        self.space = space = enumerate_hierarchy(N_SITES, params.truncation_N)
        # The bath coefficients (module docstring), in rad/fs with hbar = 1.
        lam = params.lambda_cm * CM_TO_RADFS
        gamma = 1.0 / params.gamma_inv_fs
        kT = KB_CM_PER_K * params.temperature_K * CM_TO_RADFS
        a, b = 2.0 * lam * kT, lam * gamma

        # X = i H^T - diag(r) (module docstring), read as H^T and r.
        self._h = np.ascontiguousarray((params.hamiltonian_cm * CM_TO_RADFS).T)
        self._r = np.zeros(N_SITES)
        self._r[[s - 1 for s in params.trap_sites]] = params.trap_rate_inv_fs
        self._args = kernel.bind(self.count, self._h, self._r, space.tables,
                                 a, b, gamma)

    @property
    def count(self):
        return self.space.count

    @property
    def state_shape(self):
        return (self.count, N_SITES, N_SITES)

    def initial_hierarchy(self, rho0):
        """Factorized initial condition Q: physical state at the top, auxiliaries zero."""
        rho0 = linalg.check_hermitian(rho0, name="initial state")
        if rho0.shape != (N_SITES, N_SITES):
            raise ValueError(f"initial state must be {N_SITES}x{N_SITES}")
        q = np.zeros(self.state_shape)
        q[0] = to_real(rho0)
        return q

    def rhs(self, t, q, out=None):
        """Time derivative of the real hierarchy state Q, shape (count, n, n).

        Both `q` and `out` must be C-contiguous float64 arrays of that
        shape that share no memory, and `out` must be writeable; the
        derivative is written to `out` (allocated when not given) and
        returned.
        """
        if out is None:
            out = np.empty(self.state_shape)
        q_ptr = kernel.check("hierarchy state", q, np.float64, self.state_shape)
        out_ptr = kernel.check("derivative", out, np.float64, self.state_shape)
        if not out.flags.writeable:
            raise ValueError("the derivative must be writeable")
        if np.shares_memory(q, out):
            raise ValueError("the derivative must not overlap the hierarchy state")
        kernel.LIB.heom_rhs(*self._args, q_ptr, out_ptr)
        return out

    def run(self, rho0):
        """Integrate from a factorized initial condition; return a Trajectory.

        Only the physical operator zeta(0) is stored, at the times of
        params.output_times(). It is read from the dense output of each
        step, evaluated for the n * n physical entries only, so memory
        stays flat in the grid size. `rho0` must be a density operator, up
        to linalg.STATE_TOL: trace at most 1, no negative eigenvalue; and
        the step cap must pass `check_step_count`.
        """
        cfg = self.config
        check_step_count(self.params.t_end_fs, cfg.max_step_fs)
        times = self.params.output_times()
        t_end = float(times[-1])
        y = self.initial_hierarchy(rho0)
        trace, lowest = np.trace(rho0).real, np.linalg.eigvalsh(rho0)[0]
        if trace > 1.0 + linalg.STATE_TOL or lowest < -linalg.STATE_TOL:
            raise ValueError(f"initial state is not a density operator: trace {trace}, "
                             f"smallest eigenvalue {lowest:.3e}")
        samples = np.empty((times.size, N_SITES, N_SITES))

        # The buffers [y, w_1, ..., w_7] and, for the compiled pass, their
        # addresses, swapped together, and its weights: _Y_NEW, then _ERROR,
        # times h^i. All of them live until the loop ends.
        s = [y, *np.empty((7,) + y.shape)]
        addresses = (ctypes.c_void_p * 8)(*(b.ctypes.data for b in s))
        weights = np.empty(_Y_NEW.size + _ERROR.size)
        t, h_abs = 0.0, cfg.initial_step_fs
        self.rhs(t, y, out=s[1])
        accepted, rejected, h_min, h_max, next_i = 0, 0, math.inf, 0.0, 0
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
                h_powers = np.cumprod(np.full(7, h))
                np.multiply(_Y_NEW, h_powers[:6], out=weights[:6])
                np.multiply(_ERROR, h_powers, out=weights[6:])
                # The generator reads no time; every call gets the step's start.
                for j in range(1, 7):
                    self.rhs(t, s[j], out=s[j + 1])
                # The dense output's coefficients of theta^1..theta^6 on
                # node 0, read before the pass overwrites w_6.
                phys = np.stack([b[0] for b in s[1:7]]).reshape(6, -1)
                poly = phys.T * weights[:6]
                error_norm = kernel.LIB.heom_step(self.count, weights.ctypes.data,
                                                  cfg.abs_tol, cfg.rel_tol, addresses)
                if not math.isfinite(error_norm):
                    raise IntegrationError(f"Dormand-Prince step failed at t = {t:.6g} "
                                           "fs (the error estimate was not finite)")
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

            # Samples next_i..covered - 1 are due by t_new, to 1e-12 fs.
            covered = np.searchsorted(times, t_new + 1e-12, side="right")
            x = (np.minimum(times[next_i:covered], t_new) - t) / h
            p = np.cumprod(np.repeat(x[:, None], 6, axis=1), axis=1)
            samples[next_i:covered] = (poly @ p[:, :, None]).reshape(
                -1, N_SITES, N_SITES) + s[0][0]
            t, next_i = t_new, covered
            # y and w_1 take y_new from w_7 and f(y_new) from w_6.
            for b in (s, addresses):
                b[0], b[1], b[6], b[7] = b[7], b[6], b[1], b[0]
        stats = IntegratorStats(nfev=1 + 6 * (accepted + rejected), accepted=accepted,
                                rejected=rejected, min_step_fs=h_min, max_step_fs=h_max)
        return Trajectory(times_fs=times, rhos=from_real(samples),
                          hierarchy_count=self.count, stats=stats)


def convergence_study(rho0, params, n_values, config=None):
    """Trace-distance convergence D(N, N+1) maximized over the output grid.

    Returns a list of (N, D) pairs for every N in `n_values`. Trajectories
    are shared between adjacent truncation levels.
    """
    n_values = sorted(set(n_values))
    needed = sorted(set(n_values) | {v + 1 for v in n_values})
    # Every level is validated before the first one is integrated.
    levels = {n_trunc: replace(params, truncation_N=n_trunc) for n_trunc in needed}
    trajs = {n_trunc: HEOMPropagator(p, config).run(rho0)
             for n_trunc, p in levels.items()}
    out = []
    for n_trunc in n_values:
        a, b = trajs[n_trunc], trajs[n_trunc + 1]
        d = max(linalg.trace_distance(ra, rb) for ra, rb in zip(a.rhos, b.rhos))
        out.append((n_trunc, d))
    return out
