"""Generate the gate's reference data in perfbench/reference/.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs every start each workload can pick through the same fmoheom calls
as the benchmark, with the integrator tightened to rel 1e-11, abs 1e-13
and a first step of 1e-3 fs, and stores the sampled rho (for
converge_ladder, the convergence values D(N, N+1)) keyed by start.
Takes a few minutes, most of it the N = 12 runs of deep_n12.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def main(names):
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or workloads.WORKLOADS:
        ref = workloads.WORKLOADS[name].make_reference(
            workloads.REFERENCE_INTEGRATOR)
        np.savez_compressed(workloads.reference_path(name), **ref)
        print(f"{name}: {len(ref)} starts -> {workloads.reference_path(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
