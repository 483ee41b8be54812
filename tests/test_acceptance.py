"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Full-scale (N=12) halves of criteria 3, 6 and 9 take minutes to hours and
run only when FMOHEOM_FULL_SCALE=1 is set; the desk-scale halves always run.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import filecmp
import os
from math import comb

import numpy as np
import pytest

from fmoheom import (
    HEOMPropagator,
    SystemParams,
    convergence_study,
    enumerate_hierarchy,
    exciton_basis,
    fret_state,
    localized_state,
    nonlocality_B,
    pair_series,
    reduce_pair,
    wootters_concurrence,
)
from fmoheom.analysis import (
    detect_sudden_death,
    dominant_pair,
    fret_interference_report,
    short_time_oracle,
    short_time_validation,
)
from fmoheom.cli import main
from fmoheom.measures import ReducedPairState, all_pairs, closed_form_measures
from fmoheom.model import CM_TO_RADFS

from conftest import random_pair_state

FULL_SCALE = os.environ.get("FMOHEOM_FULL_SCALE") == "1"
full_scale_only = pytest.mark.skipif(
    not FULL_SCALE, reason="set FMOHEOM_FULL_SCALE=1 for N=12 runs")


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def fret_trajs():
    """N=6 desk-scale proxy for the paper's N=12 FRET runs (criterion 6)."""
    p = SystemParams(truncation_N=6, t_end_fs=1000.0, dt_out_fs=2.0)
    basis = exciton_basis(p)
    prop = HEOMPropagator(p)
    return {x: prop.run(fret_state(x, basis)) for x in (1, 6)}


def test_criterion_1_hierarchy_combinatorics():
    space = enumerate_hierarchy(7, 12)
    ok = space.count == 50388 == comb(19, 7)
    for n in range(7):
        ok = ok and enumerate_hierarchy(7, n).count == comb(n + 7, 7)
    report(1, ok, f"enumerate_hierarchy(7,12).count = {space.count}")


def test_criterion_2_unitary_limit():
    p = SystemParams(truncation_N=0, lambda_cm=1e-8, trap_rate_inv_ps=0,
                     t_end_fs=1000.0, dt_out_fs=5.0)
    traj = HEOMPropagator(p).run(localized_state(1))
    trace_dev = np.max(np.abs(traj.traces() - 1.0))
    purity = np.real(np.einsum("tij,tji->t", traj.rhos, traj.rhos))
    purity_dev = np.max(np.abs(purity - 1.0))
    ok = trace_dev <= 1e-8 and purity_dev <= 1e-7
    report(2, ok, f"trace dev {trace_dev:.2e} (<=1e-8), "
                  f"purity dev {purity_dev:.2e} (<=1e-7)")


def _check_state_quality(traj):
    herm = max(np.max(np.abs(r - r.conj().T)) for r in traj.rhos)
    min_eig = min(np.linalg.eigvalsh(r).min() for r in traj.rhos)
    monotone = np.all(np.diff(traj.traces()) <= 1e-12)
    return herm, min_eig, monotone


def test_criterion_3_state_quality_desk():
    p = SystemParams(truncation_N=4, t_end_fs=1000.0, dt_out_fs=5.0)
    traj = HEOMPropagator(p).run(localized_state(1))
    herm, min_eig, monotone = _check_state_quality(traj)
    ok = herm <= 1e-9 and min_eig >= -1e-6 and monotone
    report(3, ok, f"N=4: herm defect {herm:.2e}, min eig {min_eig:.2e}, "
                  f"trace monotone {monotone}")


@full_scale_only
def test_criterion_3_state_quality_full():
    p = SystemParams(truncation_N=12, t_end_fs=1000.0, dt_out_fs=5.0)
    traj = HEOMPropagator(p).run(localized_state(1))
    herm, min_eig, monotone = _check_state_quality(traj)
    ok = herm <= 1e-9 and min_eig >= -1e-6 and monotone
    report(3, ok, f"N=12: herm defect {herm:.2e}, min eig {min_eig:.2e}, "
                  f"trace monotone {monotone}")


def test_criterion_4_dual_route_equivalence(traj_x1_n6):
    rng = np.random.default_rng(2024)
    max_db = max_dc = 0.0
    for _ in range(10_000):
        mat, p_m, p_n, c, tr = random_pair_state(rng)
        r = ReducedPairState(m=1, n=2, source_trace=tr, pop_m=p_m, pop_n=p_n,
                             coherence=c)
        meas = closed_form_measures(r)
        max_db = max(max_db, abs(meas.B - nonlocality_B(mat)))
        max_dc = max(max_dc, abs(meas.C - wootters_concurrence(mat)))
    for i in range(0, traj_x1_n6.times_fs.size, 5):
        for m, n in [(1, 2), (5, 6), (3, 4), (2, 7)]:
            r = reduce_pair(traj_x1_n6.rhos[i], m, n)
            meas = closed_form_measures(r)
            max_db = max(max_db, abs(meas.B - nonlocality_B(r.matrix)))
            max_dc = max(max_dc, abs(meas.C - wootters_concurrence(r.matrix)))
    ok = max_db <= 1e-10 and max_dc <= 1e-10
    report(4, ok, f"max |B_closed - B_horodecki| = {max_db:.2e}, "
                  f"max |C_closed - C_wootters| = {max_dc:.2e} (<=1e-10)")


def test_criterion_5_fret_t0_numbers(basis):
    rep = fret_interference_report(1, basis)
    rho = fret_state(1, basis)
    r12 = reduce_pair(rho, 1, 2)
    meas = closed_form_measures(r12)
    from fmoheom.measures import horodecki_M
    m_exact = horodecki_M(r12.matrix)
    checks = {
        "weight e3 0.769": abs(rep.weights[2] - 0.769) <= 0.005,
        "weight e6 0.208": abs(rep.weights[5] - 0.208) <= 0.005,
        "pure 0.801": abs(rep.pure_BC[2] - 0.801) <= 0.005,
        "pure 0.822": abs(rep.pure_BC[5] - 0.822) <= 0.005,
        "C 0.428": abs(meas.C - 0.428) <= 0.01,
        "M 0.964": abs(m_exact - 0.964) <= 0.01,
        "B = 0": meas.B == 0.0 and nonlocality_B(r12.matrix) == 0.0,
    }
    ok = all(checks.values())
    report(5, ok, f"exact C = {meas.C:.4f}, exact M = {m_exact:.4f}; "
                  + ", ".join(k for k, v in checks.items() if not v)
                  if not ok else
                  f"weights {rep.weights[2]:.3f}/{rep.weights[5]:.3f}, "
                  f"pure {rep.pure_BC[2]:.3f}/{rep.pure_BC[5]:.3f}, "
                  f"C {meas.C:.3f}, M {m_exact:.3f}, B = 0")


def _fret_no_nonlocality(traj, x):
    max_b = 0.0
    max_c_key = 0.0
    key_pair = (1, 2) if x == 1 else (5, 6)
    for m, n in all_pairs():
        s = pair_series(traj, m, n)
        max_b = max(max_b, s.B.max())
        if (m, n) == key_pair:
            max_c_key = s.C.max()
    return max_b, max_c_key


def test_criterion_6_fret_no_nonlocality_desk(fret_trajs):
    # N=6 desk-scale proxy for the N=12 default (documented caveat).
    details = []
    ok = True
    for x in (1, 6):
        max_b, max_c = _fret_no_nonlocality(fret_trajs[x], x)
        ok = ok and max_b <= 1e-6 and max_c > 0.1
        details.append(f"x={x}: max B {max_b:.2e}, max C {max_c:.3f}")
    report(6, ok, "N=6 proxy; " + "; ".join(details))


@full_scale_only
def test_criterion_6_fret_no_nonlocality_full():
    p = SystemParams(truncation_N=12, t_end_fs=1000.0, dt_out_fs=2.0)
    basis = exciton_basis(p)
    prop = HEOMPropagator(p)
    details = []
    ok = True
    for x in (1, 6):
        traj = prop.run(fret_state(x, basis))
        max_b, max_c = _fret_no_nonlocality(traj, x)
        ok = ok and max_b <= 1e-6 and max_c > 0.1
        details.append(f"x={x}: max B {max_b:.2e}, max C {max_c:.3f}")
    report(6, ok, "N=12; " + "; ".join(details))


def _sudden_death_case(traj, x, window):
    """Criterion 7: nonlocality sudden death in the presence of entanglement.

    Only the dominant pair of x may become nonlocal. Its B must drop
    permanently below 1e-6 inside `window`, while its concurrence C stays
    nonvanishing: C > 0.01 at the death time and 200 fs later, and
    C > 1e-3 (well above the truncation error of C) at every sample in
    between, so that entanglement does not die with or soon after B.
    Returns (ok, detail).
    """
    pair = dominant_pair(x, SystemParams(truncation_N=0))
    nonlocal_pairs = [mn for mn in all_pairs()
                      if pair_series(traj, *mn).B.max() > 1e-6]
    unique = nonlocal_pairs == [pair]
    s = pair_series(traj, *pair)
    t_d = detect_sudden_death(s, threshold=1e-6).death_time_fs
    head = f"x={x}: pair {pair}, unique {unique}"
    if t_d is None:
        return False, f"{head}, no permanent drop of B below 1e-6"
    in_window = window[0] <= t_d <= window[1]
    c_death = float(np.interp(t_d, s.times_fs, s.C))
    # nan (a failure) if the trajectory ends before death + 200 fs
    c_later = float(np.interp(t_d + 200.0, s.times_fs, s.C, right=np.nan))
    sel = (s.times_fs > t_d) & (s.times_fs <= t_d + 200.0)
    min_c = float(s.C[sel].min())
    ok = (unique and in_window and c_death > 0.01 and c_later > 0.01
          and min_c > 1e-3)
    return ok, (f"{head}, death {t_d:.1f} fs (in [{window[0]:.0f},"
                f"{window[1]:.0f}]: {in_window}), C at death {c_death:.3f}, "
                f"C at death+200 fs {c_later:.3f}, "
                f"min C over (death, death+200] {min_c:.4f}")


def test_criterion_7_sudden_death_x1(traj_x1_n6):
    report(7, *_sudden_death_case(traj_x1_n6, 1, (60.0, 100.0)))


def test_criterion_7_sudden_death_x6(traj_x6_n6):
    # C = 2|rho_56| passes through an oscillation node near 148 fs: Im rho_56
    # crosses zero there while |Re rho_56| is only about 0.003, as Re rho_56
    # itself changes sign on its way to about -0.026 (300-520 fs). The
    # minimum, 0.0064/0.0062/0.0062 for N = 6/7/8 and 0.0062 at 0.1 fs
    # output, is physics, not truncation error: |dC| against N = 7 and 8 is
    # at most 3.4e-4 over the window. Hence the 1e-3 floor, about 3x that
    # error, in place of a 0.01 floor the paper does not claim. C recovers
    # to 0.09 by 190 fs and is 0.033 at death + 200 fs.
    report(7, *_sudden_death_case(traj_x6_n6, 6, (35.0, 55.0)))


def test_criterion_8_short_time_oracles():
    p = SystemParams(truncation_N=0, trap_rate_inv_ps=0,
                     t_end_fs=10.0, dt_out_fs=0.1)
    traj = HEOMPropagator(p).run(localized_state(1))
    preds = short_time_oracle(1, p)
    fit12 = short_time_validation(pair_series(traj, 1, 2), preds[(1, 2)],
                                  window_fs=5.0)
    fit23 = short_time_validation(pair_series(traj, 2, 3), preds[(2, 3)],
                                  window_fs=5.0)
    expected_slope_c = 2 * 87.7 * CM_TO_RADFS
    doms = (dominant_pair(1, p), dominant_pair(6, p))
    ok = (fit12.rel_dev_slope_C < 0.01
          and abs(preds[(1, 2)].slope_C - expected_slope_c) < 1e-12
          and fit12.rel_dev_slope_B < 0.02
          and fit23.rel_dev_quadratic_C < 0.05
          and doms == ((1, 2), (5, 6)))
    report(8, ok, f"slope_C dev {fit12.rel_dev_slope_C:.2e} (<1%), "
                  f"slope_B dev {fit12.rel_dev_slope_B:.2e} (<2%), "
                  f"quad dev {fit23.rel_dev_quadratic_C:.2e} (<5%), "
                  f"dominant pairs {doms}")


def test_criterion_9_convergence_desk():
    p = SystemParams(truncation_N=2, t_end_fs=300.0, dt_out_fs=10.0)
    results = convergence_study(localized_state(1), p, range(2, 9))
    ds = [d for _, d in results]
    decreasing = all(
        ds[i + 1] < ds[i] or max(ds[i], ds[i + 1]) <= 1e-6
        for i in range(len(ds) - 1)
    )
    report(9, decreasing,
           "log10 D(N,N+1) over N=2..8: "
           + ", ".join(f"{np.log10(d):.2f}" for d in ds))


@full_scale_only
def test_criterion_9_convergence_full():
    p = SystemParams(truncation_N=12, t_end_fs=1000.0, dt_out_fs=10.0)
    results = convergence_study(localized_state(1), p, [12])
    d = results[0][1]
    ok = 1e-6 <= d <= 1e-4
    report(9, ok, f"D(12,13) = {d:.2e} (accept [1e-6, 1e-4])")


def test_criterion_10_population_dynamics(traj_x1_n6):
    pop1 = traj_x1_n6.populations()[:, 0]
    t = traj_x1_n6.times_fs
    below = np.where(pop1 < 0.5)[0]
    crosses_early = below.size > 0 and t[below[0]] <= 150.0
    first_500 = pop1[t <= 500.0]
    sign_changes = np.diff(np.sign(np.diff(first_500)))
    n_extrema = int(np.count_nonzero(sign_changes))
    ok = crosses_early and n_extrema >= 2
    report(10, ok, f"rho_11 < 0.5 at t = {t[below[0]] if below.size else 'never'}"
                   f" fs (<=150), {n_extrema} extrema in 500 fs (>=2)")


def test_criterion_11_cli_determinism(tmp_path):
    args = ["--set", "system.truncation_N=2", "--set", "system.t_end_fs=50",
            "--set", "system.dt_out_fs=5", "--set", "pairs=1-2"]
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["simulate", "--out", str(out), *args]) == 0
        outs.append(out)
    files = ["populations.csv", "measures_1_2.csv", "run_manifest.json"]
    same = all(filecmp.cmp(outs[0] / f, outs[1] / f, shallow=False)
               for f in files)
    report(11, same, f"repeated runs byte-identical across {files}")
