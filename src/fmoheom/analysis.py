"""Trajectory analytics: short-time predictions, interference decomposition
of the FRET initial state, and detection of the abrupt permanent loss of
nonlocality ("sudden death")."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .measures import all_pairs, closed_form_measures, reduce_pair
from .model import CM_TO_RADFS, N_SITES, check_finite, check_site, fret_state


@dataclass(frozen=True)
class ShortTimePrediction:
    """Leading-order growth of C and B for one pair after localized excitation.

    For a pair containing the excited site x, C grows linearly (slope_C) and
    B grows linearly only when the dominant-coupling inequality holds;
    for any other pair C grows quadratically (quadratic_C_coeff) and B stays
    zero at leading order.
    """

    slope_C: float            # rad/fs
    slope_B: float            # rad/fs
    quadratic_C_coeff: float  # (rad/fs)^2


def short_time_oracle(x, params):
    """Leading-order C and B growth for every pair, from the coupling row of x."""
    check_site(x, "x")
    j = params.hamiltonian_cm * CM_TO_RADFS  # only off-diagonal entries are read
    preds = {}
    for m, n in all_pairs():
        if x in (m, n):
            other = n if m == x else m
            jx = j[x - 1, other - 1]
            rest = sum(
                j[x - 1, l - 1] ** 2
                for l in range(1, N_SITES + 1)
                if l not in (x, other)
            )
            slope_b = 2.0 * np.sqrt(max(jx ** 2 - rest, 0.0))
            preds[(m, n)] = ShortTimePrediction(
                slope_C=2.0 * abs(jx), slope_B=slope_b, quadratic_C_coeff=0.0,
            )
        else:
            quad = 2.0 * abs(j[m - 1, x - 1] * j[x - 1, n - 1])
            preds[(m, n)] = ShortTimePrediction(
                slope_C=0.0, slope_B=0.0, quadratic_C_coeff=quad,
            )
    return preds


def dominant_pair(x, params):
    """The unique pair that can develop nonlocality right after exciting x.

    That is the pair whose B grows linearly (slope_B > 0 in
    short_time_oracle): J_xn^2 exceeds the sum of the squares of all other
    couplings out of x, which at most one site n can satisfy. Returns None
    when no pair does.
    """
    preds = short_time_oracle(x, params)
    return next((pair for pair, p in preds.items() if p.slope_B > 0), None)


@dataclass(frozen=True)
class FretInterferenceReport:
    """Why the FRET mixture loses the nonlocality its exciton components carry.

    For the pair (m, n) where correlation concentrates, each exciton e_r
    restricted (and renormalized) to the pair is a pure two-level-pair state
    with B = C = 2|c_rm c_rn| / (c_rm^2 + c_rn^2), but the mixture coherence
    is the signed sum over r of c_rx^2 c_rm c_rn, so components with opposite
    sign on site x interfere destructively.
    """

    m: int
    n: int
    weights: np.ndarray        # c_rx^2 per exciton, ascending energy
    pure_BC: np.ndarray        # pair-normalized 2|c_rm c_rn| per exciton
    contributions: np.ndarray  # signed c_rx^2 c_rm c_rn per exciton
    dominant_excitons: tuple   # 1-based indices of the two largest weights
    coherence_two_state: float
    coherence_full: float
    pop_m: float
    pop_n: float
    horodecki_M_full: float
    non_paper_site: bool


def fret_interference_report(x, basis):
    """Decompose the t=0 FRET state for site x into exciton contributions."""
    rho = fret_state(x, basis)
    coeffs = basis.coeffs
    pops = np.real(np.diag(rho))
    # Correlation concentrates on the two most populated sites.
    top = np.argsort(pops)[::-1][:2] + 1
    m, n = int(min(top)), int(max(top))

    weights = coeffs[:, x - 1] ** 2
    pair_norm = coeffs[:, m - 1] ** 2 + coeffs[:, n - 1] ** 2
    pure_bc = np.divide(
        2.0 * np.abs(coeffs[:, m - 1] * coeffs[:, n - 1]), pair_norm,
        out=np.zeros_like(pair_norm), where=pair_norm > 0,
    )
    contributions = weights * coeffs[:, m - 1] * coeffs[:, n - 1]
    r1, r2 = np.argsort(weights)[::-1][:2]
    reduced = reduce_pair(rho, m, n)
    return FretInterferenceReport(
        m=m, n=n,
        weights=weights,
        pure_BC=pure_bc,
        contributions=contributions,
        dominant_excitons=(int(r1) + 1, int(r2) + 1),
        coherence_two_state=float(contributions[r1] + contributions[r2]),
        coherence_full=float(contributions.sum()),
        pop_m=reduced.pop_m,
        pop_n=reduced.pop_n,
        horodecki_M_full=closed_form_measures(reduced).M,
        non_paper_site=x not in (1, 6),
    )


@dataclass(frozen=True)
class SuddenDeathReport:
    death_time_fs: Optional[float]
    peak_B: float
    peak_time_fs: float


def detect_sudden_death(series, threshold=1e-6):
    """Locate the last permanent downward crossing of B through `threshold`.

    B = sqrt(max(M - 1, 0)) falls to zero like a square root, so the
    crossing is found on M - 1, which crosses zero with a nonzero slope,
    against threshold^2, by linear interpolation between the last sample
    above it and the next. peak_B and peak_time_fs are grid samples.

    Returns death_time_fs = None when B never exceeds the threshold, or when
    it is still above it at the end of the grid (no permanent drop observed).
    """
    check_finite("threshold", threshold, "nonnegative")
    t = series.times_fs
    if t.size == 0:
        raise ValueError("empty time series")
    i_peak = int(np.argmax(series.B))
    report = dict(peak_B=float(series.B[i_peak]), peak_time_fs=float(t[i_peak]))
    excess = series.M - 1.0 - threshold ** 2
    above = excess > 0.0
    if not above.any() or above[-1]:
        return SuddenDeathReport(death_time_fs=None, **report)
    i = int(np.flatnonzero(above)[-1])
    frac = excess[i] / (excess[i] - excess[i + 1])
    death = float(t[i] + frac * (t[i + 1] - t[i]))
    return SuddenDeathReport(death_time_fs=death, **report)


@dataclass(frozen=True)
class ShortTimeFit:
    fitted_slope_C: float
    fitted_slope_B: float
    fitted_quadratic_C: float
    rel_dev_slope_C: Optional[float]
    rel_dev_slope_B: Optional[float]
    rel_dev_quadratic_C: Optional[float]


def _fit_leading(t, y, powers, window_fs):
    """Least-squares fit of y ~ sum_p a_p t^p; return a_p of the first power."""
    a = np.vstack([t ** p for p in powers]).T
    coeffs, _, rank, _ = np.linalg.lstsq(a, y, rcond=None)
    if rank < len(powers):
        raise ValueError(f"window_fs = {window_fs} fs holds {t.size} samples, "
                         f"too few to fit {len(powers)} terms")
    return float(coeffs[0])


def short_time_validation(series, prediction, window_fs=5.0):
    """Fit the early-time growth of C and B against the analytic prediction.

    Higher powers are included in the fit basis so the leading coefficient
    is not contaminated by the next order within the window.
    """
    t = series.times_fs
    if window_fs > t[-1]:
        raise ValueError(f"window {window_fs} fs exceeds trajectory end {t[-1]} fs")
    sel = t <= window_fs + 1e-12
    tw = t[sel]
    cw = series.C[sel]
    bw = series.B[sel]

    slope_c = _fit_leading(tw, cw, [1, 2, 3], window_fs)
    slope_b = _fit_leading(tw, bw, [1, 2, 3], window_fs)
    quad_c = _fit_leading(tw, cw, [2, 3, 4], window_fs)

    def rel(fit, ref):
        return abs(fit - ref) / abs(ref) if ref != 0.0 else None

    return ShortTimeFit(
        fitted_slope_C=slope_c,
        fitted_slope_B=slope_b,
        fitted_quadratic_C=quad_c,
        rel_dev_slope_C=rel(slope_c, prediction.slope_C),
        rel_dev_slope_B=rel(slope_b, prediction.slope_B),
        rel_dev_quadratic_C=rel(quad_c, prediction.quadratic_C_coeff),
    )
