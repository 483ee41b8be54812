"""Command-line interface: run simulations and emit plot-ready CSV files.

All CSV output uses a fixed scientific format with 12 significant digits
and newline-terminated rows, so identical configurations produce
byte-identical files.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, heom, measures, model
from .config import load_run_config

FLOAT_FMT = "%.11e"
# Rows formatted by one % operation: bounds the string built at a time.
BLOCK_ROWS = 4096


def write_csv(path, header, rows):
    """Write `rows` (sequences or a 2-D array) under `header`: a column whose first
    value is an integer as %d, any other as FLOAT_FMT, None and "nan" as nan."""
    rows = rows if isinstance(rows, np.ndarray) else list(rows)
    ints = [isinstance(v, (int, np.integer)) for v in rows[0]] if len(rows) else []
    table = np.asarray(rows, dtype=float).reshape(-1, len(header))
    line = ",".join("%d" if i else FLOAT_FMT for i in ints) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), BLOCK_ROWS):
            block = table[start:start + BLOCK_ROWS]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def _initial_state(cfg):
    if cfg.initial_kind == "localized":
        return model.localized_state(cfg.initial_site)
    basis = model.exciton_basis(cfg.params)
    return model.fret_state(cfg.initial_site, basis)


def _write_manifest(outdir, cfg, extra):
    doc = dict(cfg.as_flat_dict())
    doc.update(extra)
    with open(outdir / "run_manifest.json", "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_trajectory(cfg):
    return heom.HEOMPropagator(cfg.params, cfg.integrator).run(_initial_state(cfg))


def cmd_simulate(cfg, outdir, args):
    traj = _run_trajectory(cfg)
    header = ["t_fs"] + [f"rho_{k}{k}" for k in range(1, model.N_SITES + 1)] + ["trace"]
    write_csv(outdir / "populations.csv", header,
              np.column_stack([traj.times_fs, traj.populations(), traj.traces()]))

    for m, nn in cfg.pair_list():
        s = measures.pair_series(traj, m, nn)
        # The l1 coherence of a single-excitation pair is C.
        write_csv(
            outdir / f"measures_{m}_{nn}.csv",
            ["t_fs", "B", "C", "l1", "mu1", "mu3"],
            np.column_stack([s.times_fs, s.B, s.C, s.C, s.mu1, s.mu3]),
        )
    _write_manifest(outdir, cfg, {"hierarchy_count": traj.hierarchy_count})
    return 0


def cmd_converge(cfg, outdir, args):
    results = heom.convergence_study(
        _initial_state(cfg), cfg.params,
        range(args.n_min, args.n_max + 1), cfg.integrator,
    )
    rows = [(n, np.log10(d) if d > 0 else float("-inf")) for n, d in results]
    write_csv(outdir / "convergence.csv", ["N", "log10_D"], rows)
    _write_manifest(outdir, cfg, {"n_min": args.n_min, "n_max": args.n_max})
    return 0


def cmd_sudden_death(cfg, outdir, args):
    traj = _run_trajectory(cfg)
    rows = []
    for m, nn in cfg.pair_list():
        s = measures.pair_series(traj, m, nn)
        r = analysis.detect_sudden_death(s, threshold=args.threshold)
        rows.append((m, nn, r.death_time_fs, r.peak_B, r.peak_time_fs, args.threshold))
    write_csv(
        outdir / "sudden_death.csv",
        ["pair_m", "pair_n", "death_time_fs", "peak_B", "peak_time_fs", "threshold"],
        rows,
    )
    _write_manifest(outdir, cfg, {"hierarchy_count": traj.hierarchy_count,
                                  "threshold": args.threshold})
    return 0


def cmd_oracle(cfg, outdir, args):
    x = cfg.initial_site
    preds = analysis.short_time_oracle(x, cfg.params)
    rows = [
        (m, n, p.slope_C, p.slope_B, p.quadratic_C_coeff)
        for (m, n), p in sorted(preds.items())
    ]
    write_csv(
        outdir / "oracle.csv",
        ["pair_m", "pair_n", "slope_C_radfs", "slope_B_radfs", "quadratic_C_coeff"],
        rows,
    )
    dom = analysis.dominant_pair(x, cfg.params)
    write_csv(
        outdir / "dominant_pair.csv",
        ["x", "pair_m", "pair_n"],
        [(x, dom[0], dom[1])] if dom else [(x, "nan", "nan")],
    )
    print(f"dominant pair for x={x}: " + (f"({dom[0]},{dom[1]})" if dom else "none"))
    return 0


def cmd_fret_report(cfg, outdir, args):
    basis = model.exciton_basis(cfg.params)
    rep = analysis.fret_interference_report(cfg.initial_site, basis)
    rows = [
        (r + 1, basis.energies_cm[r], rep.weights[r], rep.pure_BC[r],
         rep.contributions[r])
        for r in range(model.N_SITES)
    ]
    write_csv(
        outdir / "fret_report.csv",
        ["exciton", "energy_cm", "weight", "pure_BC", "contribution"],
        rows,
    )
    write_csv(
        outdir / "fret_summary.csv",
        ["x", "pair_m", "pair_n", "coherence_two_state", "coherence_full",
         "pop_m", "pop_n", "horodecki_M", "non_paper_site"],
        [(cfg.initial_site, rep.m, rep.n, rep.coherence_two_state, rep.coherence_full,
          rep.pop_m, rep.pop_n, rep.horodecki_M_full, int(rep.non_paper_site))],
    )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fmoheom",
        description="HEOM excitation-transfer simulator for the 7-site FMO "
                    "monomer with pairwise nonlocality and entanglement measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, run, summary):
        """A subcommand with the shared options; `run` is its cmd_* function."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", type=Path, default=None,
                       help="path to a key = value configuration file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       dest="overrides", help="override one configuration key")
        p.add_argument("--out", type=Path, default=Path("."),
                       help="output directory (created if missing)")
        p.set_defaults(run=run)
        return p

    add("simulate", cmd_simulate, "integrate and emit populations and per-pair "
        "measures")
    p = add("converge", cmd_converge, "trace-distance convergence in the "
            "truncation level")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=8)
    p = add("sudden-death", cmd_sudden_death, "per-pair nonlocality death times")
    p.add_argument("--threshold", type=float, default=1e-6)
    add("oracle", cmd_oracle, "short-time slope predictions and the dominant pair")
    add("fret-report", cmd_fret_report, "exciton decomposition of the FRET "
        "initial state")
    return parser


def _check_args(args):
    """Reject bad subcommand arguments before any output or integration."""
    if args.command == "converge":
        if args.n_min < 0:
            raise ValueError(f"--n-min must be nonnegative, got {args.n_min}")
        if args.n_min >= args.n_max:
            raise ValueError(f"--n-min must be smaller than --n-max, got "
                             f"{args.n_min} and {args.n_max}")
        try:  # the study compares level n_max with level n_max + 1
            model.SystemParams(truncation_N=args.n_max + 1)
        except ValueError as exc:
            raise ValueError(f"--n-max {args.n_max} (compared with N = "
                             f"{args.n_max + 1}): {exc}") from None
    if args.command == "sudden-death":
        model.check_finite("--threshold", args.threshold, "nonnegative")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        cfg = load_run_config(args.config, args.overrides)
        outdir = args.out
        outdir.mkdir(parents=True, exist_ok=True)
        return args.run(cfg, outdir, args)
    except (ValueError, OSError, MemoryError, heom.IntegrationError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
