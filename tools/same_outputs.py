"""Check that this checkout gives the same outputs as another one.

    python3 tools/same_outputs.py PARENT_CHECKOUT

PARENT_CHECKOUT is a second source tree of fmoheom, e.g. the parent
commit made with `git archive`. The check compares two things:

- trajectories, as the uint64 bits of every sample, with `hierarchy_count`
  and `IntegratorStats` compared field by field: localized and FRET starts
  x = 1 and 6 at N = 0..8 over 1000 fs, and x = 1 at N = 12 over 100 fs;
- `diff -r` of the files that `simulate`, `converge`, `sudden-death`,
  `oracle` and `fret-report` write, each run's stdout and
  `run_manifest.json` included.

Each checkout runs in its own processes, with its own `src` on the path:
two imported copies of fmoheom cannot compare their dataclasses with `==`.
The compiled kernel's cache is keyed by its source, so both share it.
A process peaks at about 240 MB, in the N = 12 case. A change that alters
outputs on purpose fails this check, so no CI job runs it. Exit status 0 means every
output is identical, 1 that some differ.
"""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# (name, kind, x, N, t_end_fs) of each compared trajectory.
CASES = [(f"{kind}_x{x}_n{n}", kind, x, n, 1000.0)
         for kind in ("localized", "fret") for x in (1, 6) for n in range(9)]
CASES.append(("localized_x1_n12", "localized", 1, 12, 100.0))

# (directory, argv) of each CLI run.
_N6 = ["--set", "system.truncation_N=6"]
CLI_RUNS = [
    ("simulate_x1", ["simulate", "--set", "initial.site=1", *_N6]),
    ("simulate_fret_x6", ["simulate", "--set", "initial.kind=fret",
                          "--set", "initial.site=6", *_N6]),
    ("converge", ["converge", "--n-min", "2", "--n-max", "6",
                  "--set", "system.t_end_fs=300"]),
    *[(f"sudden_death_x{x}", ["sudden-death", "--set", f"initial.site={x}", *_N6])
      for x in (1, 6)],
    *[(f"oracle_x{x}", ["oracle", "--set", f"initial.site={x}"]) for x in range(1, 8)],
    *[(f"fret_report_x{x}", ["fret-report", "--set", "initial.kind=fret",
                             "--set", f"initial.site={x}"]) for x in range(1, 8)],
]


def dump_trajectories(out):
    """Run every case of CASES with the fmoheom on the path; write out.npz
    (the samples) and out.json (the package's directory, and each case's
    hierarchy_count and stats)."""
    import fmoheom
    from fmoheom.heom import HEOMPropagator
    from fmoheom.model import SystemParams, exciton_basis, fret_state, localized_state

    arrays, meta = {}, {"package": str(Path(fmoheom.__file__).parent)}
    for name, kind, x, n, t_end in CASES:
        params = SystemParams(truncation_N=n, t_end_fs=t_end)
        rho0 = (localized_state(x) if kind == "localized"
                else fret_state(x, exciton_basis(params)))
        traj = HEOMPropagator(params).run(rho0)
        arrays[f"{name}.times"] = traj.times_fs
        arrays[f"{name}.rhos"] = traj.rhos
        meta[name] = {"hierarchy_count": traj.hierarchy_count,
                      **dataclasses.asdict(traj.stats)}
    np.savez(f"{out}.npz", **arrays)
    with open(f"{out}.json", "w") as fh:
        json.dump(meta, fh, indent=1)


def run_checkout(checkout, out):
    """Write the trajectories and the CLI outputs of `checkout` under `out`."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout, "src").resolve()))
    out.mkdir()
    subprocess.run([sys.executable, __file__, "--dump", str(out / "trajectories")],
                   env=env, check=True)
    with open(out / "trajectories.json") as fh:
        package = Path(json.load(fh)["package"])
    if package != Path(env["PYTHONPATH"], "fmoheom"):
        sys.exit(f"{checkout}: imported fmoheom from {package}, not from the checkout")
    cli = "import sys; from fmoheom.cli import main; sys.exit(main(sys.argv[1:]))"
    for directory, argv in CLI_RUNS:
        target = out / "cli" / directory
        proc = subprocess.run([sys.executable, "-c", cli, *argv, "--out", str(target)],
                              env=env, capture_output=True, text=True)
        if proc.returncode:
            sys.exit(f"{checkout}: fmoheom {' '.join(argv)} failed:\n{proc.stderr}")
        (target / "stdout.txt").write_text(proc.stdout)


def compare_trajectories(parent, change):
    """Names of the cases whose samples, grid, hierarchy_count or stats differ."""
    with open(f"{parent}.json") as fa, open(f"{change}.json") as fb:
        meta_a, meta_b = json.load(fa), json.load(fb)
    differ = []
    with np.load(f"{parent}.npz") as a, np.load(f"{change}.npz") as b:
        for name, *_ in CASES:
            fields = [f for f in meta_a[name] if meta_a[name][f] != meta_b[name][f]]
            for key in ("times", "rhos"):
                bits_a = a[f"{name}.{key}"].view(np.uint64)
                bits_b = b[f"{name}.{key}"].view(np.uint64)
                if bits_a.shape != bits_b.shape or np.any(bits_a != bits_b):
                    fields.append(key)
            if fields:
                differ.append(f"{name}: {', '.join(fields)}")
    return differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", type=Path,
                        help="the checkout to compare this one with")
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:
        dump_trajectories(args.dump)
        return 0
    if args.parent is None or not (args.parent / "src" / "fmoheom").is_dir():
        parser.error("PARENT_CHECKOUT must be a source tree with src/fmoheom")
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": args.parent, "change": ROOT}
        for side, checkout in sides.items():
            print(f"running {checkout} ...", flush=True)
            run_checkout(checkout, Path(tmp, side))
        differ = compare_trajectories(Path(tmp, "parent", "trajectories"),
                                      Path(tmp, "change", "trajectories"))
        for line in differ:
            print(f"trajectory differs: {line}")
        diff = subprocess.run(["diff", "-r", "parent/cli", "change/cli"], cwd=tmp,
                              capture_output=True, text=True)
        print(diff.stdout, end="")
    print(f"{len(CASES)} trajectories, {len(CLI_RUNS)} CLI runs: "
          + ("same outputs" if not differ and diff.returncode == 0 else "outputs DIFFER"))
    return int(bool(differ) or diff.returncode != 0)


if __name__ == "__main__":
    sys.exit(main())
