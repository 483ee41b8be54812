"""Run every workload over several seeds and record the results.

    python3 perfbench/record.py [--seeds 10] [--workload NAME ...] [--out FILE]

For each workload this makes one untraced run per seed (seeds 1..n) and
two traced runs with seed 1, through perfbench/run.py with the
run_seconds of BENCHMARK.json. It prints every end-to-end and per-layer
metric with its unit and, for each end-to-end metric, the median and
the quartile spread (q3 - q1) / median of the per-seed values, from
statistics.quantiles(values, n=4). The count metrics of the two traced
runs must agree exactly.

It also re-counts the seed figures quoted in ROADMAP.md: 793 RHS calls
for x = 1 at N = 6 over 1000 fs, and 1 716 / 50 388 hierarchy nodes at
N = 6 / 12.

With --out it writes all of this, plus a record of the machine and
software, as JSON. perfbench/baseline.json holds the seed commit's
numbers, and perfbench/baseline_repeat.json a second set made right
after it.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import run  # noqa: E402

COUNT_METRICS = ("hierarchy.nodes", "heom.rhs_calls", "heom.runs",
                 "measures.pair_samples", "measures.dual_route_calls",
                 "analysis.sudden_death_calls", "linalg.trace_distance_calls",
                 "cli.bytes_written")


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_samples"] = next(
        (json.loads(line[len(run.SAMPLES_PREFIX):]) for line in lines
         if line.startswith(run.SAMPLES_PREFIX)), [])
    return result


def spread(values):
    """Median and, from two values on, quartiles and quartile spread."""
    out = {"values": values, "median": statistics.median(values)}
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / out["median"])
    return out


def cross_check():
    """Seed figures of ROADMAP.md, counted again with the tracer."""
    import tracing
    from fmoheom import (HEOMPropagator, SystemParams, enumerate_hierarchy,
                         localized_state)

    tracer = tracing.Tracer("cross-check")
    with tracing.instrument(tracer):
        HEOMPropagator(SystemParams(truncation_N=6)).run(localized_state(1))
    got = {
        "rhs_calls_x1_n6_1000fs": tracing.layer_metrics(tracer)["heom.rhs_calls"],
        "nodes_n6": enumerate_hierarchy(7, 6).count,
        "nodes_n12": enumerate_hierarchy(7, 12).count,
    }
    expected = {"rhs_calls_x1_n6_1000fs": 793, "nodes_n6": 1716, "nodes_n12": 50388}
    return {"measured": got, "roadmap": expected, "agree": got == expected}


def run_record(seeds, seconds):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": run.BLAS_THREADS,
        "seeds": list(seeds),
        "traced_seed": 1,
        "run_seconds": seconds,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    seeds = range(1, args.seeds + 1)
    e2e_units = run.metric_units("end_to_end")
    layer_units = run.metric_units("per_layer")
    doc = {"run_record": run_record(seeds, seconds), "workloads": {}}

    ok = True
    for workload in args.workload or run.WORKLOADS:
        results = [bench(workload, seed, seconds, 0) for seed in seeds]
        traced = [bench(workload, 1, seconds, 1) for _ in range(2)]
        failed = sum(r["failed"] for r in results + traced)
        attempted = sum(r["attempted"] for r in results + traced)
        e2e = {name: spread([r["metrics"][name]["value"] for r in results])
               for name in e2e_units}
        walls = [w for r in results for w in r["wall_samples"]]
        hi = run.upper_percentile(walls)
        e2e["wall_s"]["passes"] = len(walls)
        if hi:
            e2e["wall_s"][f"p{hi[0]:.0f}"] = hi[1]
        layers = {name: m["value"] for name, m in traced[0]["metrics"].items()}
        repeat = all(traced[0]["metrics"][c]["value"] == traced[1]["metrics"][c]["value"]
                     for c in COUNT_METRICS)
        ok = ok and failed == 0 and repeat
        doc["workloads"][workload] = {
            "attempted": attempted, "failed": failed,
            "end_to_end": e2e, "per_layer": layers, "counts_repeat": repeat}

        print(f"{workload}: {attempted} operations, {failed} failed, "
              f"count metrics repeat exactly: {repeat}")
        for name, s in e2e.items():
            unit = e2e_units[name]
            print(f"  {name}: median {s['median']:.6g} {unit} over "
                  f"{len(s['values'])} seeds, quartile spread "
                  f"{s.get('spread', float('nan')):.3f}")
        if hi:
            print(f"  wall_s p{hi[0]:.0f} over all {len(walls)} passes: "
                  f"{hi[1]:.6g} s")
        for name, value in layers.items():
            print(f"  {name} = {value:.6g} {layer_units[name]}")

    check = cross_check()
    doc["cross_check"] = check
    print(f"seed figures: measured {check['measured']}, ROADMAP {check['roadmap']}")
    ok = ok and check["agree"]
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
