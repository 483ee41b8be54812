"""The four benchmark workloads and the pass that runs one of them.

A workload is a fixed problem size plus inputs drawn from the seed. Every
pass of a run repeats the same inputs. A pass has two timed steps:
- setup: construct the workload's HEOMPropagator(s), i.e. hierarchy
  enumeration plus the constructor's precomputation, several times;
- the pass itself, from the first call into fmoheom to the last output
  check, in one closed loop (one call at a time).

The adaptive integrator takes a different number of steps from
different starts, so the seed must not pick how much work a pass does.
sweep_n4 runs every start; the other workloads use windows in which the
step sequence is the same from every start, and the seed picks it.

An operation is one trajectory, one CLI invocation, one dual-route check
or one convergence value; it fails if it raises or misses the gate.
"""

import json
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np

import fmoheom.analysis
import fmoheom.cli
import fmoheom.linalg
import fmoheom.measures
from fmoheom import (
    HEOMPropagator,
    IntegratorConfig,
    SystemParams,
    Trajectory,
    convergence_study,
    exciton_basis,
    fret_state,
    localized_state,
)

import gate

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
N_SITES = 7
KINDS = ("localized", "fret")
ALL_STARTS = [(kind, site) for kind in KINDS for site in range(1, N_SITES + 1)]
LOCALIZED_STARTS = ALL_STARTS[:N_SITES]
PAIRS = fmoheom.measures.all_pairs(N_SITES)

# Reference data come from the same runs at a tighter tolerance. The
# smaller first step gives a step sequence of its own, so even a run that
# the default settings finish in one step is checked against an
# independent solution.
REFERENCE_INTEGRATOR = IntegratorConfig(abs_tol=1e-13, rel_tol=1e-11,
                                        initial_step_fs=1e-3)


def start_key(kind, site):
    return f"{kind}{site}"


def seeded_site(seed):
    return {"site": int(np.random.default_rng(seed).integers(1, N_SITES + 1))}


def start_state(kind, site, basis):
    if kind == "localized":
        return localized_state(site, N_SITES)
    return fret_state(site, basis)


class Ops:
    """Attempted and failed operations of one pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.max_dev = 0.0

    def check(self, label, fn, *args):
        """Run `fn(*args) -> (problems, deviation)` as one operation.

        Returns True when the operation passed.
        """
        self.attempted += 1
        try:
            problems, dev = fn(*args)
        except Exception as exc:  # a failing operation is counted, not fatal
            problems, dev = [f"{type(exc).__name__}: {exc}"], 0.0
        self.max_dev = max(self.max_dev, dev)
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")
        return not problems


def _cli_settings(n_trunc, t_end, dt_out, kind, site):
    values = {"system.truncation_N": n_trunc, "system.t_end_fs": t_end,
              "system.dt_out_fs": dt_out, "initial.kind": kind,
              "initial.site": site}
    out = []
    for key, value in values.items():
        out += ["--set", f"{key}={value}"]
    return out


def _bytes_in(outdir):
    return sum(f.stat().st_size for f in Path(outdir).iterdir())


class Workload:
    """Problem size and reference data shared by the workloads."""

    name = ""
    n_trunc = t_end = dt_out = None
    setup_repeats = 1
    reference_starts = ALL_STARTS

    def params(self, n_trunc=None):
        return SystemParams(
            truncation_N=self.n_trunc if n_trunc is None else n_trunc,
            t_end_fs=self.t_end, dt_out_fs=self.dt_out)

    def setup(self, inputs):
        return HEOMPropagator(self.params())

    def make_reference(self, integrator):
        """Sampled rho of every start the seed can pick, keyed by start."""
        p = self.params()
        basis = exciton_basis(p)
        prop = HEOMPropagator(p, integrator)
        return {start_key(kind, site): prop.run(start_state(kind, site, basis)).rhos
                for kind, site in self.reference_starts}


class SimulateN6(Workload):
    """`fmoheom simulate` in-process at N = 6, all 21 pairs; seeded start.

    Over 2.5 fs every start, localized or FRET, takes the same four
    integrator steps (25 RHS calls), so the work does not depend on the
    seed. Output every 0.1 fs gives about one sample per RHS call, as in
    a 1000 fs run sampled every 1 fs. Set-up builds, on its own, the
    propagator the invocation builds.
    """

    name = "simulate_n6"
    n_trunc, t_end, dt_out = 6, 2.5, 0.1
    setup_repeats = 10

    def inputs(self, seed):
        kind, site = ALL_STARTS[np.random.default_rng(seed).integers(len(ALL_STARTS))]
        return {"kind": kind, "site": site}

    def run_pass(self, inputs, built, ref, workdir, tracer, ops):
        kind, site = inputs["kind"], inputs["site"]
        t_out = np.arange(int(round(self.t_end / self.dt_out)) + 1) * self.dt_out
        outdir = Path(workdir) / "simulate"
        argv = ["simulate", "--out", str(outdir)] + _cli_settings(
            self.n_trunc, self.t_end, self.dt_out, kind, site)

        def invocation():
            code = fmoheom.cli.main(argv)
            if code != 0:
                return [f"exit status {code}"], 0.0
            json.loads((outdir / "run_manifest.json").read_text())
            return gate.simulate_problems(outdir, ref[start_key(kind, site)], t_out)

        ops.check(f"simulate {kind} x={site}", invocation)
        return {"cli.bytes_written": _bytes_in(outdir) if outdir.is_dir() else 0}


class SweepN4(Workload):
    """One N = 4 propagator reused for every start plus seeded mixtures."""

    name = "sweep_n4"
    n_trunc, t_end, dt_out = 4, 30.0, 1.0
    mixtures = 2
    dual_route_times = 5
    setup_repeats = 30

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        weights = rng.dirichlet(np.ones(len(ALL_STARTS)), size=self.mixtures)
        n_times = int(round(self.t_end / self.dt_out)) + 1
        times = [np.sort(rng.choice(n_times, self.dual_route_times, replace=False))
                 for _ in range(len(ALL_STARTS) + self.mixtures)]
        return {"weights": weights, "dual_route_times": times}

    def run_pass(self, inputs, prop, ref, workdir, tracer, ops):
        basis = exciton_basis(prop.params)
        starts = [start_state(kind, site, basis) for kind, site in ALL_STARTS]
        keys = [start_key(kind, site) for kind, site in ALL_STARTS]
        trajs = []
        for (kind, site), rho0, key in zip(ALL_STARTS, starts, keys):
            trajs.append(None)

            def fixed():
                trajs[-1] = prop.run(rho0)
                return gate.trajectory_problems(trajs[-1].rhos, ref[key])

            ops.check(f"sweep {key}", fixed)

        for j, w in enumerate(inputs["weights"]):
            trajs.append(None)

            def mixture():
                rho0 = sum(wi * r for wi, r in zip(w, starts))
                trajs[-1] = prop.run(rho0)
                ref_mix = sum(wi * ref[k] for wi, k in zip(w, keys))
                problems, dev = gate.trajectory_problems(trajs[-1].rhos, ref_mix)
                if all(t is not None for t in trajs[:len(starts)]):
                    mixed = sum(wi * t.rhos for wi, t in zip(w, trajs))
                    lin = float(np.max(np.abs(trajs[-1].rhos - mixed)))
                    if not lin <= gate.RHO_TOL:
                        problems.append(f"linearity defect {lin:.2e}")
                return problems, dev

            ops.check(f"sweep mixture {j}", mixture)

        for traj, times in zip(trajs, inputs["dual_route_times"]):
            if traj is None:
                continue
            for m, n in PAIRS:
                series = fmoheom.measures.pair_series(traj, m, n)
                fmoheom.analysis.detect_sudden_death(series)
            for i in times:
                for m, n in PAIRS:
                    with tracer.span("measures.dual_route"):
                        ops.check(f"dual route t={traj.times_fs[i]} ({m},{n})",
                                  lambda: (gate.dual_route_problems(
                                      traj.rhos[i], m, n), 0.0))
        return {"cli.bytes_written": 0}


class DeepN12(Workload):
    """One trajectory at the reference truncation N = 12, seeded start site.

    Over 0.01 fs the integrator takes one step (7 RHS calls) from every
    start, so the work does not depend on the seed.
    """

    name = "deep_n12"
    n_trunc, t_end, dt_out = 12, 0.01, 0.005
    setup_repeats = 1
    reference_starts = LOCALIZED_STARTS

    inputs = staticmethod(seeded_site)

    def run_pass(self, inputs, prop, ref, workdir, tracer, ops):
        site = inputs["site"]
        key = start_key("localized", site)
        ops.check(f"deep x={site}", lambda: gate.trajectory_problems(
            prop.run(localized_state(site, N_SITES)).rhos, ref[key]))
        return {"cli.bytes_written": 0}


class ConvergeLadder(Workload):
    """`fmoheom converge --n-min 2 --n-max 6` in-process, seeded start site.

    Over 2.3 fs every level N = 2..7 takes four steps (25 RHS calls) from
    every start, so the work does not depend on the seed. The distances
    are at the integrator's noise level this early; the physics of the
    ladder is tier-1 criterion 9, and this workload measures its cost.
    """

    name = "converge_ladder"
    n_min, n_max, t_end, dt_out = 2, 6, 2.3, 0.1
    n_trunc = n_min
    setup_repeats = 5
    reference_starts = LOCALIZED_STARTS

    inputs = staticmethod(seeded_site)

    def setup(self, inputs):
        return [HEOMPropagator(self.params(n))
                for n in range(self.n_min, self.n_max + 2)]

    def make_reference(self, integrator):
        """D(N, N+1) for N = n_min..n_max from every start, keyed by start."""
        return {
            start_key(kind, site): np.array([d for _, d in convergence_study(
                localized_state(site, N_SITES), self.params(),
                range(self.n_min, self.n_max + 1), integrator)])
            for kind, site in self.reference_starts
        }

    def run_pass(self, inputs, built, ref, workdir, tracer, ops):
        site = inputs["site"]
        ref_d = ref[start_key("localized", site)]
        outdir = Path(workdir) / "converge"
        argv = (["converge", "--out", str(outdir), "--n-min", str(self.n_min),
                 "--n-max", str(self.n_max)]
                + _cli_settings(self.n_min, self.t_end, self.dt_out,
                                "localized", site))
        rows = []

        def invocation():
            code = fmoheom.cli.main(argv)
            if code != 0:
                return [f"exit status {code}"], 0.0
            json.loads((outdir / "run_manifest.json").read_text())
            rows.extend(gate.convergence_rows(outdir))
            expected = list(range(self.n_min, self.n_max + 1))
            if [n for n, _ in rows] != expected:
                return [f"convergence.csv rows {[n for n, _ in rows]}"], 0.0
            return [], 0.0

        ops.check(f"converge x={site}", invocation)
        for (n_trunc, d), d_ref in zip(rows, ref_d):
            ops.check(f"D({n_trunc},{n_trunc + 1}) x={site}",
                      gate.convergence_problems, n_trunc, d, d_ref)
        written = _bytes_in(outdir) if outdir.is_dir() else 0
        return {"cli.bytes_written": written}


WORKLOADS = {w.name: w for w in (SimulateN6(), SweepN4(), DeepN12(), ConvergeLadder())}


def reference_path(name):
    return REFERENCE_DIR / f"{name}.npz"


def load_reference(name):
    with np.load(reference_path(name)) as data:
        return {key: data[key] for key in data.files}


def probe_layers(tracer, workdir):
    """Call each traced layer once on a minimal input.

    Traced passes start with this, outside the timed pass, so that every
    per-layer time is a measurement on every workload: a layer a workload
    never calls would otherwise read exactly 0 on every run. It adds one
    call to the measures, analysis, linalg, config and cli counts, and two
    pair samples; it builds and runs no propagator.
    """
    rho = localized_state(1, N_SITES)
    traj = Trajectory(times_fs=np.array([0.0, 1.0]), rhos=np.stack([rho, rho]),
                      hierarchy_count=1)
    fmoheom.analysis.detect_sudden_death(fmoheom.measures.pair_series(traj, 1, 2))
    with tracer.span("measures.dual_route"):
        gate.dual_route_problems(rho, 1, 2)
    fmoheom.linalg.trace_distance(rho, rho)
    fmoheom.cli.load_run_config()
    Path(workdir).mkdir(parents=True, exist_ok=True)
    fmoheom.cli.write_csv(Path(workdir) / "probe.csv", ["t_fs"], [(0.0,)])


def measure_pass(name, seed, tracer, setup_repeats, workdir):
    """Set up and run one pass; return its measurements.

    `tracer` is a tracing.Tracer (with the package instrumented by the
    caller) or a tracing.NullTracer.
    """
    wl = WORKLOADS[name]
    inputs = wl.inputs(seed)
    ref = load_reference(name)
    setup_s = []
    with tracer.span("setup"):
        for _ in range(setup_repeats):
            built = None  # release the previous copy before timing the next
            t0 = perf_counter()
            built = wl.setup(inputs)
            setup_s.append(perf_counter() - t0)
    ops = Ops()
    Path(workdir).mkdir(parents=True, exist_ok=True)
    try:
        with tracer.span("pass"):
            t0 = perf_counter()
            extra = wl.run_pass(inputs, built, ref, workdir, tracer, ops)
            wall_s = perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "problems": ops.problems[:20],
        "max_abs_drho": ops.max_dev,
        **extra,
    }
