"""Self-check of the benchmark's correctness gate.

    python3 -m pytest -q perfbench/tests

A result perturbed past the tolerance must count as a failed operation,
and the unmodified package must pass with no failed operation.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import fmoheom.cli  # noqa: E402
import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PAST_TOL = 3 * gate.RHO_TOL


def test_references_satisfy_the_invariants():
    for name in ("simulate_n6", "sweep_n4", "deep_n12"):
        for key, rhos in workloads.load_reference(name).items():
            assert gate.state_problems(rhos) == [], (name, key)


def test_trajectory_perturbed_past_tolerance_fails():
    ref = workloads.load_reference("sweep_n4")["localized1"]
    problems, dev = gate.trajectory_problems(ref.copy(), ref)
    assert problems == [] and dev == 0.0
    bad = ref.copy()
    bad[5, 0, 1] += PAST_TOL
    bad[5, 1, 0] += PAST_TOL
    problems, dev = gate.trajectory_problems(bad, ref)
    assert dev == pytest.approx(PAST_TOL)
    assert any("rho_ref" in p for p in problems)


def test_invariant_violations_fail():
    ref = workloads.load_reference("sweep_n4")["fret3"]
    skew = ref.copy()
    skew[3, 0, 1] += 1e-6
    assert any("Hermiticity" in p for p in gate.state_problems(skew))
    rising = ref.copy()
    rising[-1] = ref[-1] * (ref[-2].trace().real / ref[-1].trace().real + 1e-9)
    assert any("trace increases" in p for p in gate.state_problems(rising))
    negative = workloads.load_reference("sweep_n4")["localized1"].copy()
    negative[4] -= 1e-5 * np.eye(7)
    assert any("eigenvalue" in p for p in gate.state_problems(negative))


def test_simulate_csv_perturbed_past_tolerance_fails(tmp_path):
    wl = workloads.WORKLOADS["simulate_n6"]
    ref = workloads.load_reference("simulate_n6")["fret2"]
    argv = ["simulate", "--out", str(tmp_path)] + workloads._cli_settings(
        wl.n_trunc, wl.t_end, wl.dt_out, "fret", 2)
    assert fmoheom.cli.main(argv) == 0
    t_out = np.arange(ref.shape[0]) * wl.dt_out
    problems, dev = gate.simulate_problems(tmp_path, ref, t_out)
    assert problems == [] and dev < gate.RHO_TOL

    header, data = gate.read_csv(tmp_path / "measures_1_2.csv")
    data[4, 2] += PAST_TOL  # C, which is 2 |rho_12|
    fmoheom.cli.write_csv(tmp_path / "measures_1_2.csv", header, data)
    problems, _ = gate.simulate_problems(tmp_path, ref, t_out)
    assert any("reference" in p for p in problems)


def test_dual_route_agrees_on_reference_states():
    ref = workloads.load_reference("sweep_n4")["localized1"]
    for m, n in workloads.PAIRS:
        assert gate.dual_route_problems(ref[10], m, n) == []


def test_ops_counts_raises_and_problems():
    ops = workloads.Ops()
    ops.check("ok", lambda: ([], 1e-9))
    ops.check("bad", lambda: (["off"], 2e-6))
    ops.check("raises", lambda: 1 / 0)
    assert (ops.attempted, ops.failed) == (3, 2)
    assert ops.max_dev == 2e-6


def test_seed_code_passes(tmp_path):
    for name in ("sweep_n4", "converge_ladder"):
        result = workloads.measure_pass(name, 7, tracing.NullTracer(), 1,
                                        tmp_path / name)
        assert result["attempted"] > 0
        assert result["failed"] == 0, result["problems"]


def test_perturbed_reference_counts_every_value(tmp_path, monkeypatch):
    load = workloads.load_reference

    def shifted(name):
        return {k: v + PAST_TOL for k, v in load(name).items()}

    monkeypatch.setattr(workloads, "load_reference", shifted)
    result = workloads.measure_pass("converge_ladder", 7, tracing.NullTracer(),
                                    1, tmp_path)
    # One CLI invocation passes; each of the five D(N, N+1) values fails.
    assert (result["attempted"], result["failed"]) == (6, 5)


def test_traced_pass_counts_layers(tmp_path):
    main = fmoheom.cli.main
    tracer = tracing.Tracer("test")
    with tracing.instrument(tracer):
        result = workloads.measure_pass("converge_ladder", 7, tracer, 1, tmp_path)
    assert fmoheom.cli.main is main
    layers = tracing.layer_metrics(tracer)
    assert result["failed"] == 0
    assert layers["hierarchy.nodes"] == 3432
    assert layers["heom.runs"] == 6
    assert layers["heom.rhs_calls"] == 6 * 25
    assert layers["linalg.trace_distance_calls"] == 5 * 24
    assert all(t >= 0.0 for t in tracer.self_times())
