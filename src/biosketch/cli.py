"""Command-line front end.

Subcommands: simulate (frr|far|sar), bounds, equiv, leakage, linkage,
design.  Experiment configs are JSON files with the ExperimentConfig
fields; exit code 2 signals the run completed but violated an operating
assumption.

Every command prints its document on stdout and, with --out, writes the
same text through `_write_out`.  simulate, bounds and linkage print what
`harness.rows_to_csv` or `harness.summary_json` make of one `run_config`
result.  The operating-assumption notes of a run are gathered by
`harness.assumption_warnings` and reported by `_exit_status`, which prints
one `warning:` line per note and returns the exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .gf2 import matrix_to_text
from .harness import (
    CodeSpec,
    ExperimentConfig,
    assumption_warnings,
    equivalence_report,
    rows_to_csv,
    run_config,
    summary_json,
)
from .leakage import (
    LEAKAGE_QUERIES,
    LeakageReport,
    exact_mutual_info,
    exact_single_system_fits,
    exact_single_system_leakage,
    leakage_rank_bound,
    single_system_leakage,
)
from .multisys import design_search
from .schemes import Scheme, SystemParams


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.from_json(Path(args.config).read_text())
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if getattr(args, "trials", None) is not None:
        config = dataclasses.replace(config, trials=args.trials)
    if getattr(args, "matrix_file", None):
        config = dataclasses.replace(config, code=CodeSpec(kind="file", path=args.matrix_file))
    return config


def _write_out(args, files: dict[str, str]) -> None:
    """Write each named text into the --out directory, if one was given."""
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text)


def _exit_status(notes) -> int:
    """Report operating-assumption notes on stderr; 2 if there were any, else 0."""
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    return 2 if notes else 0


def _emit(args, config: ExperimentConfig, result) -> int:
    text_csv = rows_to_csv(result.rows)
    summary = summary_json(config, result)
    _write_out(args, {f"{config.experiment_id}.csv": text_csv,
                      f"{config.experiment_id}.summary.json": summary})
    print(summary if args.format == "json" else text_csv, end="")
    return _exit_status(result.warnings)


def _cmd_simulate(args) -> int:
    config = dataclasses.replace(_load_config(args), metric=args.metric)
    return _emit(args, config, run_config(config))


def _cmd_bounds(args) -> int:
    config = dataclasses.replace(_load_config(args), trials=0)
    return _emit(args, config, run_config(config))


def _cmd_equiv(args) -> int:
    base = _load_config(args)
    fc = dataclasses.replace(base, scheme="FC", metric="frr", attack=None,
                             experiment_id=base.experiment_id + "-fc")
    ss = dataclasses.replace(base, scheme="SS", metric="frr", attack=None,
                             experiment_id=base.experiment_id + "-ss")
    blob = equivalence_report(fc, ss, sar_trials=min(base.trials, 10_000) or 1_000).to_json()
    _write_out(args, {f"{base.experiment_id}.equiv.json": blob})
    print(blob)
    return 0


def _cmd_leakage(args) -> int:
    config = _load_config(args)
    codes = config.build_codes()
    reports = []
    if config.u == 1:
        params = SystemParams(scheme=Scheme(config.scheme), keyed=config.keyed,
                              tau=config.scalar_tau(), code=codes[0])
        for query in LEAKAGE_QUERIES:
            reports.append(single_system_leakage(params, query))
            if args.exact and exact_single_system_fits(params):
                reports.append(exact_single_system_leakage(params, query))
    else:
        full = config.fully_compromised()
        H_list = [codes[i - 1].H for i in full]
        p_list = [config.enroll_noise[i - 1] for i in full]
        bound = leakage_rank_bound(H_list)
        try:
            reports.append(exact_mutual_info(H_list, p_list, codes[0].n))
        except ValueError:
            # honest-bound policy: no estimate beyond exact reach, rank bound only
            reports.append(LeakageReport(
                bits_leaked=None, method="rank-formula", bound=float(bound),
                params={"l": len(full), "n": codes[0].n,
                        "note": "instance too large for exact oracle; bound only"}))
    blob = "[" + ",\n".join(r.to_json() for r in reports) + "]"
    _write_out(args, {f"{config.experiment_id}.leakage.json": blob})
    print(blob)
    return 0


def _cmd_linkage(args) -> int:
    config = _load_config(args)
    if args.preset:
        m = args.m if args.m is not None else (config.code.m or 8)
        config = dataclasses.replace(
            config, code=CodeSpec(kind="preset", name=args.preset, m=m,
                                  seed=config.code.seed),
            enroll_noise=(config.enroll_noise * 3)[:3],
            probe_noise=(config.probe_noise * 3)[:3])
    if config.metric != "sar":
        config = dataclasses.replace(config, metric="sar")
    return _emit(args, config, run_config(config))


def _cmd_design(args) -> int:
    rng = np.random.default_rng(args.seed)
    with assumption_warnings() as notes:
        codes, report = design_search(args.u, args.m, args.n, args.L,
                                      objective=args.objective, rng=rng,
                                      restarts=args.restarts)
    matrices = "\n".join(matrix_to_text(c.H) for c in codes)
    report_json = json.dumps({
        "L": report.L,
        "r_max": report.r_max,
        "t_min": report.t_min,
        "r_profile": {",".join(map(str, k)): v for k, v in report.r_profile.items()},
        "t_profile": {",".join(map(str, k[0])) + "|" + str(k[1]): v
                      for k, v in report.t_profile.items()},
        "objective": args.objective,
        "u": args.u, "m": args.m, "n": args.n,
    }, sort_keys=True, indent=2)
    _write_out(args, {"design_matrices.txt": matrices, "design_report.json": report_json})
    print(matrices)
    print(report_json)
    return _exit_status(notes)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biosketch",
        description="Simulate and analyze ECC-based fuzzy commitment / secure sketch systems")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--trials", type=int, default=None, help="override trial count")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--matrix-file", default=None,
                       help="parity-check matrix in text format, overrides config code")

    p_sim = sub.add_parser("simulate", help="Monte Carlo estimate of frr, far, or sar")
    p_sim.add_argument("metric", choices=("frr", "far", "sar"))
    common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_bounds = sub.add_parser("bounds", help="closed-form bounds only (trials = 0)")
    common(p_bounds)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_equiv = sub.add_parser("equiv", help="fuzzy commitment vs secure sketch comparison")
    common(p_equiv)
    p_equiv.set_defaults(func=_cmd_equiv)

    p_leak = sub.add_parser("leakage", help="privacy leakage reports")
    common(p_leak)
    p_leak.add_argument("--exact", action="store_true",
                        help="add exact-enumeration reports for small instances")
    p_leak.set_defaults(func=_cmd_leakage)

    p_link = sub.add_parser("linkage", help="multi-system attack scenarios")
    common(p_link)
    p_link.add_argument("--preset", choices=("example1", "example2", "example3", "example4"),
                        default=None, help="three-system matrix geometry preset")
    p_link.add_argument("--m", type=int, default=None, help="preset syndrome length")
    p_link.set_defaults(func=_cmd_linkage)

    p_design = sub.add_parser("design", help="search parity-check tuples for rank tradeoffs")
    p_design.add_argument("--u", type=int, required=True)
    p_design.add_argument("--m", type=int, required=True)
    p_design.add_argument("--n", type=int, required=True)
    p_design.add_argument("--L", type=int, required=True)
    p_design.add_argument("--objective", choices=("min_rmax", "max_tmin", "weighted"),
                          default="max_tmin")
    p_design.add_argument("--restarts", type=int, default=4)
    p_design.add_argument("--seed", type=int, default=0)
    p_design.add_argument("--out", default=None)
    p_design.set_defaults(func=_cmd_design)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
