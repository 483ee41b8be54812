"""fmoheom benchmark: one workload, closed loop, one fresh process per pass.

    python3 perfbench/run.py --workload simulate_n6 --seed 1 --seconds 20 --trace 0

Passes repeat until --seconds have elapsed. Each pass runs in its own
process (perfbench/worker.py), which first times the workload's setup and
then the pass itself, checking every output against the gate in
perfbench/gate.py.

With --trace 0 the last line of stdout reports the end-to-end metrics:
wall_s (median pass wall time), setup_s (median propagator set-up time)
and peak_rss_mb (median peak RSS of a pass process). With --trace 1 the
passes alternate untraced and traced; the last line reports the per-layer
metrics of the traced passes (medians), and trace.overhead_s is the
traced minus the untraced median wall time. Spans are written to
.bench_out/trace-<workload>-seed<seed>.json.

Exits with status 2, printing no result, when the package source or the
reference data are missing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("simulate_n6", "sweep_n4", "deep_n12", "converge_ladder")

# BLAS/OpenMP threads per pass process, fixed at or below nproc so that
# runs on one machine compare; one thread is the steadiest on a shared host.
BLAS_THREADS = 1
# A fixed hash seed makes a pass's allocations, and so its peak RSS, repeat;
# with random hashing the same pass peaked anywhere from 110 to 124 MB.
PASS_ENV = {"PYTHONHASHSEED": "0", **{
    name: str(BLAS_THREADS)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}

PASS_TIMEOUT_S = 150
# Prefix of the stdout line listing every pass's wall_s, for record.py.
SAMPLES_PREFIX = "wall_s samples: "


def metric_units(kind):
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def preflight():
    """Refuse to run without the package source and the reference data."""
    if not (ROOT / "BENCHMARK.json").is_file():
        return f"no BENCHMARK.json in {ROOT}"
    if not (ROOT / "src" / "fmoheom" / "__init__.py").is_file():
        return f"no fmoheom source under {ROOT / 'src'}"
    missing = [w for w in WORKLOADS
               if not (HERE / "reference" / f"{w}.npz").is_file()]
    if missing:
        return f"reference data missing for {', '.join(missing)}"
    return None


def run_pass(workload, seed, index, traced, env):
    """One pass in a fresh process; returns its result dict."""
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{workload}-{seed}-{os.getpid()}-{index}"
    out = OUT_DIR / f"pass-{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           tag, "1" if traced else "0", str(OUT_DIR / f"work-{tag}"), str(out)]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                          timeout=PASS_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"pass process exited with status {proc.returncode}")
    try:
        return json.loads(out.read_text())
    finally:
        out.unlink()


def upper_percentile(samples, beyond=10):
    """Highest percentile with at least `beyond` samples above it, or None."""
    xs = sorted(samples)
    k = len(xs) - beyond
    if k < 1:
        return None
    return 100.0 * k / len(xs), xs[k - 1]


def end_to_end(passes):
    setup = [s for p in passes for s in p["setup_s"]]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(untraced, traced, attempted, failed):
    layers = {name: statistics.median(p["layers"][name] for p in traced)
              for name in traced[0]["layers"]}
    layers["heom.max_abs_drho"] = max(p["max_abs_drho"] for p in traced)
    layers["cli.bytes_written"] = statistics.median(
        p["cli.bytes_written"] for p in traced)
    layers["failed_ops_frac"] = failed / attempted
    layers["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                  - statistics.median(p["wall_s"] for p in untraced))
    return layers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = preflight()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    env = {**os.environ, **PASS_ENV}

    passes = []
    start = perf_counter()
    while True:
        traced = args.trace == 1 and len(passes) % 2 == 1
        try:
            result = run_pass(args.workload, args.seed, len(passes), traced, env)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {args.workload} pass {len(passes)}: {exc}",
                  file=sys.stderr)
            return 1
        result["traced"] = traced
        passes.append(result)
        for line in result["problems"]:
            print(f"FAILED {line}", file=sys.stderr)
        if perf_counter() - start >= args.seconds and (
                args.trace == 0 or len(passes) >= 2):
            break

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    walls = [p["wall_s"] for p in untraced]

    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced "
          f"and {len(traced)} traced passes, {attempted} operations, "
          f"{failed} failed ({failed / attempted:.3g})")
    if args.trace == 0:
        metrics = end_to_end(untraced)
        units = metric_units("end_to_end")
        hi = upper_percentile(walls)
        print(f"  wall_s p{hi[0]:.0f} = {hi[1]:.6g} s over {len(walls)} passes"
              if hi else f"  wall_s: {len(walls)} passes, too few for a "
              "percentile with 10 samples beyond it")
        print(f"{SAMPLES_PREFIX}{json.dumps(walls)}")
    else:
        metrics = per_layer(untraced, traced, attempted, failed)
        units = metric_units("per_layer")
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps([s for p in traced for s in p["spans"]]))
        print(f"  spans written to {trace_file.relative_to(ROOT)}")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
