"""Command-line entry point.

`polarbec --help` lists the subcommands; `_COMMANDS` maps each name to
its handler, whose docstring is its help line.  A file-writing handler
writes its tables and returns (files, meta); `_finish` then writes
manifest.json (meta becomes its `run` section), prints one `wrote ...`
line, with the converged-points tally when meta counts points, and
picks the exit code.  `selftest` writes no files and prints its checks.

Common flags: --config PATH (INI file, or a manifest.json from an
earlier run to replay it), --out DIR (overrides [output] directory),
--allow-partial (keep going and exit zero when some points failed to
converge).  Every command runs in one process.  The retired --threads N
flag is still accepted, so earlier scripts keep working, and is ignored
with one warning on stderr, as retired configuration keys are.

Exit codes: 0 success, 1 selftest failure, 2 configuration or usage
error, 3 unconverged points without --allow-partial (in every command
that solves steady states, sensitivity included) or a failed
cross-check, 4 I/O failure (an OSError, or a foreign lock on the output
directory).  Any other
exception is a fault of the program and ends the run with its
traceback (exit status 1).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .analytic import ground_thresholds
from .cavity import mode_ladder
from .config import (ConfigError, RunConfig, check_excess_range,
                     default_config, parse_config)
from .dye import absorption_rate, build_rate_table, emission_rate
from .dynamics import CrosscheckError
from .runio import (OutputLockError, build_manifest,
                    config_text_from_manifest, gnuplot_chi_sweep, gnuplot_grid,
                    gnuplot_pump_sweep, gnuplot_spectrum, output_lock,
                    write_csv, write_manifest)
from .sweeps import chi_sweep, grid_sweep, pump_sweep, sensitivity

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_CONFIG = 2
EXIT_UNCONVERGED = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="INI run configuration, or a manifest.json "
                             "from an earlier run to replay")
    common.add_argument("--out", metavar="DIR",
                        help="output directory (overrides the configuration)")
    common.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    common.add_argument("--allow-partial", action="store_true",
                        help="exit zero even if some points did not converge")

    parser = argparse.ArgumentParser(
        prog="polarbec",
        description="Polarised photon-condensate simulator for "
                    "enantiomeric-excess sensing")
    parser.add_argument("--version", action="version",
                        version=f"polarbec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=handler.__doc__)
    return parser


def _load_config(args) -> RunConfig:
    if args.config is None:
        return default_config()
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}")
    if text.lstrip().startswith("{"):
        text = config_text_from_manifest(text)
    config = parse_config(text)
    if args.command == "sensitivity":
        if config.medium_kind != "sample":
            raise ConfigError(
                "sensitivity needs the chiral-sample medium description "
                "(epsilon enters through the sample)")
        check_excess_range(config)
    return config


def _finish(args, config: RunConfig, out_dir: str, files: list[str],
            meta: dict) -> int:
    """Write the manifest, print the summary line and pick the exit code."""
    manifest = build_manifest(args.command, config, files, meta=meta)
    write_manifest(os.path.join(out_dir, "manifest.json"), manifest)
    tally = ""
    if "points" in meta:
        tally = (f" ({meta['converged_points']}/{meta['points']} points "
                 f"converged)")
    print(f"wrote {', '.join(files)} and manifest.json to {out_dir}{tally}")
    unconverged = meta.get("points", 0) - meta.get("converged_points", 0)
    if unconverged and not args.allow_partial:
        print("some points did not converge (rerun with --allow-partial "
              "to accept)", file=sys.stderr)
        return EXIT_UNCONVERGED
    return EXIT_OK


def _write_sweep(out_dir: str, name: str, result, plot, *plot_args):
    """The sweep's CSV and its gnuplot script; returns both file names."""
    files = [f"{name}.csv", f"{name}.gp"]
    write_csv(os.path.join(out_dir, files[0]), result.columns)
    with open(os.path.join(out_dir, files[1]), "w", encoding="utf-8") as fh:
        fh.write(plot(files[0], *plot_args))
    return files


def _ladder(config: RunConfig):
    """The mode ladder at the run's own medium."""
    return mode_ladder(config.cavity, config.medium_indices(), config.l_max,
                       config.kappa_override)


def _sigma(ladder) -> list[str]:
    """The polarisation of each mode, read off the ladder's n_left."""
    return ["L"] * ladder.n_left + ["R"] * (ladder.size - ladder.n_left)


def _cmd_modes(args, config: RunConfig, out_dir: str):
    """write the cavity mode table"""
    ladder = _ladder(config)
    write_csv(os.path.join(out_dir, "modes.csv"), {
        "sigma": _sigma(ladder), "l": ladder.l,
        "j": np.full(ladder.size, config.cavity.longitudinal_index),
        "omega": ladder.omega, "degeneracy": ladder.degeneracy,
        "kappa": ladder.kappa})
    return ["modes.csv"], {"modes": ladder.size}


def _cmd_spectrum(args, config: RunConfig, out_dir: str):
    """write the dye rate profiles and mode markers"""
    ladder = _ladder(config)
    dye = config.dye
    omegas = ladder.omega.tolist()
    # the emission peak and every mode, each with a margin of linewidths
    lo = min(omegas) - dye.linewidth
    hi = max(dye.Omega0 + dye.DeltaOmega + 2.0 * dye.linewidth,
             max(omegas) + dye.linewidth)
    grid = np.linspace(lo, hi, 2001)
    write_csv(os.path.join(out_dir, "dye_spectrum.csv"), {
        "omega": grid, "gamma_down": emission_rate(dye, grid),
        "gamma_up": absorption_rate(dye, grid)})
    rates = build_rate_table(dye, ladder)
    write_csv(os.path.join(out_dir, "mode_markers.csv"), {
        "sigma": _sigma(ladder), "l": ladder.l,
        "degeneracy": ladder.degeneracy, "omega": ladder.omega,
        "gamma_down": rates.gamma_down, "gamma_up": rates.gamma_up})
    with open(os.path.join(out_dir, "spectrum.gp"), "w",
              encoding="utf-8") as fh:
        fh.write(gnuplot_spectrum("dye_spectrum.csv", "mode_markers.csv"))
    return (["dye_spectrum.csv", "mode_markers.csv", "spectrum.gp"],
            {"grid_points": len(grid), "modes": ladder.size})


def _cmd_sweep_pump(args, config: RunConfig, out_dir: str):
    """sweep the pump rate"""
    result = pump_sweep(config.cavity, config.medium_indices(), config.dye,
                        config.l_max, config.solver, config.sweep.pump,
                        config.kappa_override)
    return (_write_sweep(out_dir, "pump_sweep", result, gnuplot_pump_sweep),
            result.meta)


def _cmd_sweep_chi(args, config: RunConfig, out_dir: str):
    """sweep the index splitting"""
    result = chi_sweep(config.cavity, config.base_index(), config.dye,
                       config.l_max, config.solver, config.sweep.chi,
                       config.kappa_override, scales=config.sweep.scales,
                       chi_per_epsilon=config.chi_per_epsilon())
    return (_write_sweep(out_dir, "chi_sweep", result, gnuplot_chi_sweep,
                         config.sweep.scales), result.meta)


def _cmd_sweep_grid(args, config: RunConfig, out_dir: str):
    """map the chi x pump plane"""
    pump_spec = replace(config.sweep.pump,
                        points=config.sweep.grid_pump_points)
    result = grid_sweep(config.cavity, config.base_index(), config.dye,
                        config.l_max, config.solver, config.sweep.chi,
                        pump_spec, config.kappa_override)
    return (_write_sweep(out_dir, "grid", result, gnuplot_grid,
                         config.sweep.chi.points, pump_spec.points),
            result.meta)


def _cmd_sensitivity(args, config: RunConfig, out_dir: str):
    """slope of S3 against enantiomeric excess"""
    report = sensitivity(config.cavity, config.sample, config.solvent,
                         config.dye, config.l_max, config.solver,
                         config.sweep.sensitivity_epsilon,
                         config.sweep.sensitivity_step,
                         config.kappa_override)
    payload = asdict(report)
    write_manifest(os.path.join(out_dir, "sensitivity.json"), payload)
    print(f"dS3/depsilon = {report.slope:.6g} at epsilon = {report.epsilon:g} "
          f"(bracket [{report.epsilon_minus:g}, {report.epsilon_plus:g}])")
    if report.noise_dominated:
        print("warning: S3 difference is below the solver noise floor; "
              "the slope is not resolved", file=sys.stderr)
    return ["sensitivity.json"], payload


def _cmd_threshold(args, config: RunConfig, out_dir: str):
    """ground-mode threshold report"""
    ladder = _ladder(config)
    report = ground_thresholds(build_rate_table(config.dye, ladder), ladder,
                               config.dye)
    write_csv(os.path.join(out_dir, "threshold.csv"),
              {name: [value] for name, value in asdict(report).items()})
    print(f"tau_L = {report.tau_L:.6e} 1/s, tau_R = {report.tau_R:.6e} 1/s, "
          f"winner: {report.winner}")
    return ["threshold.csv"], asdict(report)


def _cmd_selftest(args, config: RunConfig, out_dir: str | None) -> int:
    """run the built-in consistency checks"""
    from .selftest import run_all
    results = run_all()
    failures = 0
    for name, passed, detail in results:
        tag = "PASS" if passed else "FAIL"
        print(f"{tag} {name}: {detail}")
        failures += 0 if passed else 1
    if failures:
        print(f"{failures} of {len(results)} suites failed", file=sys.stderr)
        return EXIT_SELFTEST
    print(f"all {len(results)} suites passed")
    return EXIT_OK


# every subcommand, in --help order
_COMMANDS = {
    "modes": _cmd_modes,
    "spectrum": _cmd_spectrum,
    "sweep-pump": _cmd_sweep_pump,
    "sweep-chi": _cmd_sweep_chi,
    "sweep-grid": _cmd_sweep_grid,
    "sensitivity": _cmd_sensitivity,
    "threshold": _cmd_threshold,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.threads is not None:
        print("warning: --threads is retired and ignored; sweeps run in one "
              "process", file=sys.stderr)

    try:
        config = _load_config(args)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "selftest":
        return _cmd_selftest(args, config, None)

    out_dir = args.out if args.out is not None else config.output_dir
    try:
        with output_lock(out_dir):
            try:
                files, meta = _COMMANDS[args.command](args, config, out_dir)
                return _finish(args, config, out_dir, files, meta)
            except CrosscheckError as exc:
                print(f"cross-check failure: {exc}", file=sys.stderr)
                return EXIT_UNCONVERGED
    except (OutputLockError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
