"""FMO monomer model: Hamiltonian, physical parameters, units, initial states.

Energies enter in cm^-1 and are converted to angular frequency (rad/fs)
with hbar = 1, so femtoseconds are the native time unit of the dynamics.
The model is fixed at N_SITES = 7 chromophores; site indices are 1-based
in every public interface and checked by `check_site`.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .hierarchy import MAX_NODES, _is_integer, hierarchy_count

# Chromophores of one FMO monomer.
N_SITES = 7

# Speed of light in cm/fs; 1 cm^-1 corresponds to 2*pi*c rad/fs.
C_CM_PER_FS = 2.99792458e-5
CM_TO_RADFS = 2.0 * np.pi * C_CM_PER_FS
# Boltzmann constant in cm^-1 per kelvin.
KB_CM_PER_K = 0.69503


def checked_hamiltonian(value):
    """A read-only float64 copy of `value`, or ValueError unless it is a real,
    finite, symmetric N_SITES x N_SITES matrix. A complex dtype is accepted
    when every imaginary part is zero: the kernel reads H as a real matrix."""
    h = np.asarray(value)
    # A bool, integer or float dtype has no imaginary part to test.
    if h.dtype.kind not in "biuf" and np.any(np.imag(h) != 0):
        raise ValueError("hamiltonian_cm must be real")
    h = np.array(np.real(h), dtype=float)
    if h.shape != (N_SITES, N_SITES):
        raise ValueError(f"hamiltonian_cm must be {N_SITES}x{N_SITES}")
    size = np.abs(h).max()  # NaN or inf when an entry is not finite
    if not math.isfinite(size):
        raise ValueError("hamiltonian_cm must be finite")
    if np.abs(h - h.T).max() > 1e-12 * max(size, 1.0):
        raise ValueError("hamiltonian_cm must be symmetric")
    h.flags.writeable = False
    return h


# Electronic Hamiltonian of one FMO monomer (Chlorobaculum tepidum) in cm^-1.
# The common 12210 cm^-1 offset on the diagonal is dropped: it shifts every
# single-excitation state equally and only contributes a global phase.
# Checked here once, it is the default of every SystemParams, which keeps
# it without a copy. It is a view of a read-only array, so it cannot be
# made writeable.
FMO_HAMILTONIAN_CM = checked_hamiltonian(
    [
        [200.0, -87.7, 5.5, -5.9, 6.7, -13.7, -9.9],
        [-87.7, 320.0, 30.8, 8.2, 0.7, 11.8, 4.3],
        [5.5, 30.8, 0.0, -53.5, -2.2, -9.6, 6.0],
        [-5.9, 8.2, -53.5, 110.0, -70.7, -17.0, -63.3],
        [6.7, 0.7, -2.2, -70.7, 270.0, 81.1, -1.3],
        [-13.7, 11.8, -9.6, -17.0, 81.1, 420.0, 39.7],
        [-9.9, 4.3, 6.0, -63.3, -1.3, 39.7, 230.0],
    ]
).view()

# Most output intervals t_end_fs / dt_out_fs of one run: the (T, 7, 7)
# real samples alone then take 2 GB. heom.check_step_count bounds the
# steps t_end_fs / max_step_fs that a step cap forces by the same number.
MAX_SAMPLES = 5_000_000


def check_finite(name, value, rule="positive"):
    """Reject a scalar unless it is a real number that is finite and `rule`.

    `rule` is "positive" or "nonnegative". A bool is not a number here.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    low = value > 0 if rule == "positive" else value >= 0
    if not (low and value < math.inf):
        raise ValueError(f"{name} must be finite and {rule}, got {value}")


def check_site(x, name):
    """Reject a site index that is not an integer in 1..N_SITES (a bool is
    not a site); `name` labels the message."""
    if not _is_integer(x):
        raise ValueError(f"{name}: site must be an integer, got {x!r}")
    if not 1 <= x <= N_SITES:
        raise ValueError(f"{name}: site {x} outside 1..{N_SITES}")


@dataclass(frozen=True)
class SystemParams:
    """Physical and numerical parameters of one simulation.

    lambda_cm / gamma_inv_fs are uniform across sites (scalars broadcast
    to all 7 chromophores); gamma_inv_fs is the bath relaxation time scale,
    i.e. gamma_k = 1 / gamma_inv_fs.
    """

    hamiltonian_cm: np.ndarray = field(default_factory=lambda: FMO_HAMILTONIAN_CM)
    lambda_cm: float = 35.0
    gamma_inv_fs: float = 50.0
    temperature_K: float = 300.0
    trap_rate_inv_ps: float = 1.0
    trap_sites: tuple = (3, 4)
    truncation_N: int = 12
    t_end_fs: float = 1000.0
    dt_out_fs: float = 1.0

    def __post_init__(self):
        if self.hamiltonian_cm is not FMO_HAMILTONIAN_CM:  # checked at import
            object.__setattr__(self, "hamiltonian_cm",
                               checked_hamiltonian(self.hamiltonian_cm))
        if not _is_integer(self.truncation_N):
            raise ValueError(
                f"truncation_N must be an integer, got {self.truncation_N!r}")
        if not (isinstance(self.trap_sites, tuple)
                and all(_is_integer(s) for s in self.trap_sites)):
            raise ValueError(
                f"trap_sites must be a tuple of integer sites, got {self.trap_sites!r}")
        for name, rule in (("lambda_cm", "positive"), ("gamma_inv_fs", "positive"),
                           ("temperature_K", "positive"),
                           ("trap_rate_inv_ps", "nonnegative"),
                           ("truncation_N", "nonnegative")):
            check_finite(name, getattr(self, name), rule)
        count = hierarchy_count(N_SITES, self.truncation_N)
        if count > MAX_NODES:
            raise ValueError(f"truncation_N = {self.truncation_N} gives {count} "
                             f"hierarchy nodes, above the {MAX_NODES} node limit")
        output_steps(self.t_end_fs, self.dt_out_fs)
        for s in self.trap_sites:
            check_site(s, "trap_sites")
        if len(set(self.trap_sites)) != len(self.trap_sites):
            raise ValueError(
                f"trap_sites must not repeat a site, got {self.trap_sites}")

    def output_times(self):
        """Output grid i * dt_out_fs whose last sample is t_end_fs itself."""
        steps = output_steps(self.t_end_fs, self.dt_out_fs)
        times = np.arange(steps + 1) * self.dt_out_fs
        times[-1] = self.t_end_fs
        return times

    @property
    def trap_rate_inv_fs(self):
        """Trap rate r_trap in fs^-1 (input time scale is in ps)."""
        if self.trap_rate_inv_ps == 0:
            return 0.0
        return 1.0 / (self.trap_rate_inv_ps * 1000.0)


def output_steps(t_end_fs, dt_out_fs):
    """Number of output intervals t_end_fs / dt_out_fs, required to be an integer.

    A grid that does not end at t_end_fs would ask for samples past the
    end of the integration, so it is rejected before any work is done.
    A ratio within 1e-9 of an integer is accepted; `output_times` then
    places the last sample at t_end_fs. More than MAX_SAMPLES intervals
    are refused before anything is allocated.
    """
    check_finite("t_end_fs", t_end_fs)
    check_finite("dt_out_fs", dt_out_fs)
    ratio = t_end_fs / dt_out_fs
    if ratio > MAX_SAMPLES:
        raise ValueError(
            f"t_end_fs = {t_end_fs:g} over dt_out_fs = {dt_out_fs:g} gives "
            f"{ratio:.0f} output intervals, above the {MAX_SAMPLES} limit")
    steps = round(ratio)
    if steps < 1 or abs(ratio - steps) > 1e-9 * ratio:
        raise ValueError(
            f"t_end_fs = {t_end_fs:g} must be an integer multiple of "
            f"dt_out_fs = {dt_out_fs:g}"
        )
    return steps


@dataclass(frozen=True)
class ExcitonBasis:
    """Eigenstates of the electronic Hamiltonian, ordered by increasing energy.

    coeffs[r, k] is the real coefficient c_rk of exciton r (0-based row r-1)
    on site k (0-based column k-1); the phase convention makes the
    largest-magnitude coefficient of each exciton positive.
    """

    energies_cm: np.ndarray
    coeffs: np.ndarray


def exciton_basis(params):
    """Diagonalize the electronic Hamiltonian (in cm^-1) into exciton states."""
    # A complex eigh: a real one rounds differently and would move the FRET outputs.
    vals, vecs = np.linalg.eigh(params.hamiltonian_cm.astype(complex))
    gaps = np.diff(vals)
    if np.any(gaps < 1.0):
        raise ValueError(
            f"exciton energies nearly degenerate (min gap {gaps.min():.3g} cm^-1); "
            "ascending ordering is ill-defined"
        )
    # Phase rule: dividing each exciton by the phase of its largest component
    # makes that component real and positive, and every imaginary part 0.
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(N_SITES)]
    coeffs = (vecs / (lead / np.abs(lead))).T.real
    return ExcitonBasis(energies_cm=vals, coeffs=coeffs)


def localized_state(x, n_sites=N_SITES):
    """Density matrix |x><x| for an excitation localized on chromophore x."""
    check_site(x, "x")
    rho = np.zeros((n_sites, n_sites), dtype=complex)
    rho[x - 1, x - 1] = 1.0
    return rho


def fret_state(x, basis):
    """FRET initial state: mixture of excitons weighted by their site-x amplitude.

    rho = sum_r c_rx^2 |e_r><e_r|, which is stationary under the electronic
    Hamiltonian but carries site-basis coherences.
    """
    check_site(x, "x")
    rho = np.zeros((N_SITES, N_SITES), dtype=complex)
    for v in basis.coeffs:
        rho += v[x - 1] ** 2 * np.outer(v, v)
    return rho
