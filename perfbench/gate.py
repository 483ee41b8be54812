"""Correctness gate applied to every output a benchmark pass produces.

Each check returns a list of problems (empty when the output passes) and,
where it compares against reference data, the largest absolute deviation
it saw. A pass counts an operation as failed when it raises or when its
check reports a problem.

Tolerances:
- RHO_TOL bounds |rho - rho_ref| per entry. The default integrator
  (rel 1e-8, abs 1e-10) differs from the tight-tolerance reference by
  about 1.2e-7 for x = 1, N = 6 over 1000 fs, so 1e-6 sits above its
  error and far below any change in the physics.
- The state-quality tolerances are those of acceptance criterion 3, and
  DUAL_ROUTE_TOL is the 1e-10 of criterion 4.
- CSV_TOL covers the 12 significant digits the CLI writes.
"""

import csv
from pathlib import Path

import numpy as np

from fmoheom.measures import (
    all_pairs,
    closed_form_measures,
    nonlocality_B,
    reduce_pair,
    wootters_concurrence,
)

RHO_TOL = 1e-6
DUAL_ROUTE_TOL = 1e-10
HERM_TOL = 1e-9
MIN_EIG_TOL = -1e-6
TRACE_STEP_TOL = 1e-12
CSV_TOL = 1e-10


def state_problems(rhos):
    """Hermiticity, trace <= 1 and non-increasing, and positivity of each rho."""
    rhos = np.asarray(rhos)
    problems = []
    herm = float(np.max(np.abs(rhos - np.conj(np.swapaxes(rhos, 1, 2)))))
    if not herm <= HERM_TOL:
        problems.append(f"Hermiticity defect {herm:.2e} > {HERM_TOL:.0e}")
    traces = np.real(np.trace(rhos, axis1=1, axis2=2))
    if not np.max(traces) <= 1.0 + TRACE_STEP_TOL:
        problems.append(f"trace {np.max(traces):.15f} exceeds 1")
    rise = float(np.max(np.diff(traces))) if traces.size > 1 else 0.0
    if not rise <= TRACE_STEP_TOL:
        problems.append(f"trace increases by {rise:.2e}")
    hermitian_part = 0.5 * (rhos + np.conj(np.swapaxes(rhos, 1, 2)))
    min_eig = float(np.min(np.linalg.eigvalsh(hermitian_part)))
    if not min_eig >= MIN_EIG_TOL:
        problems.append(f"min eigenvalue {min_eig:.2e} < {MIN_EIG_TOL:.0e}")
    return problems


def trajectory_problems(rhos, ref_rhos):
    """Compare a sampled trajectory with its reference and check invariants.

    Returns (problems, max |rho - rho_ref|).
    """
    rhos = np.asarray(rhos)
    ref_rhos = np.asarray(ref_rhos)
    if rhos.shape != ref_rhos.shape:
        return [f"shape {rhos.shape} != reference {ref_rhos.shape}"], float("inf")
    dev = float(np.max(np.abs(rhos - ref_rhos)))
    problems = []
    if not dev <= RHO_TOL:
        problems.append(f"max |rho - rho_ref| = {dev:.2e} > {RHO_TOL:.0e}")
    return problems + state_problems(rhos), dev


def dual_route_problems(rho, m, n):
    """Closed-form B and C against the Horodecki and Wootters routes."""
    r = reduce_pair(rho, m, n)
    closed = closed_form_measures(r)
    db = abs(closed.B - nonlocality_B(r.matrix))
    dc = abs(closed.C - wootters_concurrence(r.matrix))
    problems = []
    if not db <= DUAL_ROUTE_TOL:
        problems.append(f"pair ({m},{n}): |B_closed - B_horodecki| = {db:.2e}")
    if not dc <= DUAL_ROUTE_TOL:
        problems.append(f"pair ({m},{n}): |C_closed - C_wootters| = {dc:.2e}")
    return problems


def read_csv(path):
    """Header and float rows of a CLI CSV file; raises ValueError if it does not parse."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name} is empty")
    header, body = rows[0], rows[1:]
    data = np.array([[float(v) for v in row] for row in body], dtype=float)
    if data.ndim != 2 or data.shape[1] != len(header):
        raise ValueError(f"{path.name}: rows do not match the header")
    return header, data


def simulate_problems(outdir, ref_rhos, t_out):
    """Check the CSVs of one `fmoheom simulate` run against its reference.

    The CSVs hold populations, the trace and per-pair measures, not the
    full rho, so accuracy is checked on the populations and on |rho_mn|
    (C = l1 = 2|rho_mn|); B, mu1 and mu3 must agree with the closed forms
    evaluated on the written columns. Returns (problems, max deviation).
    """
    outdir = Path(outdir)
    ref_rhos = np.asarray(ref_rhos)
    n = ref_rhos.shape[1]
    header, pops = read_csv(outdir / "populations.csv")
    expected = ["t_fs"] + [f"rho_{k}{k}" for k in range(1, n + 1)] + ["trace"]
    if header != expected:
        return [f"populations.csv header {header}"], float("inf")
    if pops.shape[0] != ref_rhos.shape[0] or not np.allclose(pops[:, 0], t_out):
        return ["populations.csv time grid differs from the reference"], float("inf")
    problems = []
    p = pops[:, 1:-1]
    trace = pops[:, -1]
    ref_p = np.real(np.einsum("tii->ti", ref_rhos))
    dev = float(np.max(np.abs(p - ref_p)))
    if not np.max(np.abs(trace - p.sum(axis=1))) <= CSV_TOL:
        problems.append("trace column differs from the sum of populations")
    if not np.max(trace) <= 1.0 + CSV_TOL:
        problems.append(f"trace {np.max(trace):.12f} exceeds 1")
    if trace.size > 1 and not np.max(np.diff(trace)) <= CSV_TOL:
        problems.append(f"trace increases by {np.max(np.diff(trace)):.2e}")
    if not np.min(p) >= MIN_EIG_TOL:
        problems.append(f"negative population {np.min(p):.2e}")

    for m, k in all_pairs(n):
        h, s = read_csv(outdir / f"measures_{m}_{k}.csv")
        if h != ["t_fs", "B", "C", "l1", "mu1", "mu3"] or s.shape[0] != p.shape[0]:
            problems.append(f"measures_{m}_{k}.csv has the wrong layout")
            continue
        b, c, l1, mu1, mu3 = s[:, 1], s[:, 2], s[:, 3], s[:, 4], s[:, 5]
        ref_c = 2.0 * np.abs(ref_rhos[:, m - 1, k - 1])
        dev = max(dev, float(np.max(np.abs(c - ref_c))) / 2.0)
        pm, pk = p[:, m - 1], p[:, k - 1]
        m_val = np.maximum(2.0 * mu1, mu1 + mu3)
        # (error, tolerance): consistency of the written columns, and the
        # 2x2 principal minor that positivity of rho requires.
        checks = {
            "l1 != C": (np.max(np.abs(l1 - c)), CSV_TOL),
            "mu1 != C^2": (np.max(np.abs(mu1 - c * c)), CSV_TOL),
            "mu3 != (tr - 2(p_m + p_n))^2":
                (np.max(np.abs(mu3 - (trace - 2.0 * (pm + pk)) ** 2)), CSV_TOL),
            "B^2 != max(M - 1, 0)":
                (np.max(np.abs(b * b - np.maximum(m_val - 1.0, 0.0))), CSV_TOL),
            "|rho_mn|^2 > rho_mm rho_nn":
                (np.max(c * c / 4.0 - pm * pk), RHO_TOL),
        }
        for what, (err, tol) in checks.items():
            if not err <= tol:
                problems.append(f"pair ({m},{k}): {what} by {err:.2e}")
    if not dev <= RHO_TOL:
        problems.append(f"max deviation from reference {dev:.2e} > {RHO_TOL:.0e}")
    return problems, dev


def convergence_rows(outdir):
    """(N, D) pairs from convergence.csv; D = 0 where log10 D is -inf."""
    header, data = read_csv(Path(outdir) / "convergence.csv")
    if header != ["N", "log10_D"]:
        raise ValueError(f"convergence.csv header {header}")
    return [(int(n), float(10.0 ** v)) for n, v in data]


def convergence_problems(n_trunc, d, ref_d):
    """One convergence value D(N, N+1) against the reference value."""
    if not (np.isfinite(d) and d >= 0.0):
        return [f"D({n_trunc},{n_trunc + 1}) = {d} is not a finite distance"], float("inf")
    dev = abs(d - ref_d)
    if not dev <= RHO_TOL:
        return [f"|D({n_trunc},{n_trunc + 1}) - reference| = {dev:.2e}"], dev
    return [], dev
