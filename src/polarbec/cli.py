"""Command-line entry point.

Subcommands:

    modes        mode table of the configured cavity and medium
    spectrum     dye rate profiles on a dense frequency grid, with the
                 cavity modes marked
    sweep-pump   steady states along the pump grid (plus the frozen-loser
                 comparison trace)
    sweep-chi    steady states along the index-splitting grid at fixed
                 pump, one curve per absorption-scale factor
    sweep-grid   chi x pump map
    sensitivity  dS3/depsilon at the configured operating excess
    threshold    gain-balance thresholds of the two polarisation ground
                 modes
    selftest     built-in consistency checks

Common flags: --config PATH (INI file, or a manifest.json from an
earlier run to replay it), --out DIR (overrides [output] directory),
--allow-partial (keep going and exit zero when some points failed to
converge).  Every command runs in one process.  The retired --threads N
flag is still accepted, so earlier scripts keep working, and is ignored
with one warning on stderr, as retired configuration keys are.

Exit codes: 0 success, 1 selftest failure, 2 configuration or usage
error, 3 unconverged points without --allow-partial, 4 I/O failure
(an OSError, or a foreign lock on the output directory).  Any other
exception is a fault of the program and ends the run with its
traceback (exit status 1).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .analytic import ground_thresholds
from .cavity import build_mode_set
from .config import ConfigError, RunConfig, default_config, parse_config
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
    for name, helptext in [
        ("modes", "write the cavity mode table"),
        ("spectrum", "write the dye rate profiles and mode markers"),
        ("sweep-pump", "sweep the pump rate"),
        ("sweep-chi", "sweep the index splitting"),
        ("sweep-grid", "map the chi x pump plane"),
        ("sensitivity", "slope of S3 against enantiomeric excess"),
        ("threshold", "ground-mode threshold report"),
        ("selftest", "run the built-in consistency checks"),
    ]:
        sub.add_parser(name, parents=[common], help=helptext)
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
    return parse_config(text)


def _finish_sweep(args, config, command, out_dir, result, files) -> int:
    converged = result.meta["converged_points"]
    points = result.meta["points"]
    manifest = build_manifest(command, config, files, meta=result.meta)
    write_manifest(os.path.join(out_dir, "manifest.json"), manifest)
    print(f"wrote {', '.join(files)} and manifest.json to {out_dir} "
          f"({converged}/{points} points converged)")
    if converged < points and not args.allow_partial:
        print("some points did not converge (rerun with --allow-partial "
              "to accept)", file=sys.stderr)
        return EXIT_UNCONVERGED
    return EXIT_OK


def _cmd_modes(args, config: RunConfig, out_dir: str) -> int:
    modes = build_mode_set(config.cavity, config.medium_indices(),
                           config.l_max, config.kappa_override)
    columns = ["sigma", "l", "j", "omega", "degeneracy", "kappa"]
    rows = [[m.sigma, m.l, m.j, m.omega, m.degeneracy, m.kappa]
            for m in modes]
    write_csv(os.path.join(out_dir, "modes.csv"), columns, rows)
    manifest = build_manifest("modes", config, ["modes.csv"],
                              meta={"modes": len(modes)})
    write_manifest(os.path.join(out_dir, "manifest.json"), manifest)
    print(f"wrote modes.csv ({len(modes)} modes) and manifest.json "
          f"to {out_dir}")
    return EXIT_OK


def _cmd_spectrum(args, config: RunConfig, out_dir: str) -> int:
    modes = build_mode_set(config.cavity, config.medium_indices(),
                           config.l_max, config.kappa_override)
    dye = config.dye
    lo = min(m.omega for m in modes) - dye.linewidth
    hi = dye.Omega0 + dye.DeltaOmega + 2.0 * dye.linewidth
    grid = np.linspace(lo, hi, 2001)
    spec_rows = [[w, emission_rate(dye, w), absorption_rate(dye, w)]
                 for w in grid]
    write_csv(os.path.join(out_dir, "dye_spectrum.csv"),
              ["omega", "gamma_down", "gamma_up"], spec_rows)
    rates = build_rate_table(dye, modes)
    marker_rows = [[m.sigma, m.l, m.degeneracy, m.omega,
                    float(rates.gamma_down[i]), float(rates.gamma_up[i])]
                   for i, m in enumerate(modes)]
    write_csv(os.path.join(out_dir, "mode_markers.csv"),
              ["sigma", "l", "degeneracy", "omega", "gamma_down", "gamma_up"],
              marker_rows)
    with open(os.path.join(out_dir, "spectrum.gp"), "w",
              encoding="utf-8") as fh:
        fh.write(gnuplot_spectrum("dye_spectrum.csv", "mode_markers.csv"))
    files = ["dye_spectrum.csv", "mode_markers.csv", "spectrum.gp"]
    manifest = build_manifest("spectrum", config, files,
                              meta={"grid_points": len(grid),
                                    "modes": len(modes)})
    write_manifest(os.path.join(out_dir, "manifest.json"), manifest)
    print(f"wrote {', '.join(files)} and manifest.json to {out_dir}")
    return EXIT_OK


def _cmd_sweep_pump(args, config: RunConfig, out_dir: str) -> int:
    result = pump_sweep(config.cavity, config.medium_indices(), config.dye,
                        config.l_max, config.solver, config.sweep.pump,
                        config.kappa_override)
    write_csv(os.path.join(out_dir, "pump_sweep.csv"), result.columns,
              result.rows)
    with open(os.path.join(out_dir, "pump_sweep.gp"), "w",
              encoding="utf-8") as fh:
        fh.write(gnuplot_pump_sweep("pump_sweep.csv"))
    return _finish_sweep(args, config, "sweep-pump", out_dir, result,
                         ["pump_sweep.csv", "pump_sweep.gp"])


def _cmd_sweep_chi(args, config: RunConfig, out_dir: str) -> int:
    spec = config.sweep.chi
    epsilons = None
    chi_unit = config.chi_per_epsilon()
    if chi_unit is not None and chi_unit != 0.0:
        epsilons = [chi / chi_unit for chi in spec.grid()]
    result = chi_sweep(config.cavity, config.base_index(), config.dye,
                       config.l_max, config.solver, spec,
                       config.kappa_override, scales=config.sweep.scales,
                       epsilons=epsilons)
    write_csv(os.path.join(out_dir, "chi_sweep.csv"), result.columns,
              result.rows)
    with open(os.path.join(out_dir, "chi_sweep.gp"), "w",
              encoding="utf-8") as fh:
        fh.write(gnuplot_chi_sweep("chi_sweep.csv", config.sweep.scales))
    return _finish_sweep(args, config, "sweep-chi", out_dir, result,
                         ["chi_sweep.csv", "chi_sweep.gp"])


def _cmd_sweep_grid(args, config: RunConfig, out_dir: str) -> int:
    pump_spec = replace(config.sweep.pump,
                        points=config.sweep.grid_pump_points)
    result = grid_sweep(config.cavity, config.base_index(), config.dye,
                        config.l_max, config.solver, config.sweep.chi,
                        pump_spec, config.kappa_override)
    write_csv(os.path.join(out_dir, "grid.csv"), result.columns, result.rows)
    with open(os.path.join(out_dir, "grid.gp"), "w", encoding="utf-8") as fh:
        fh.write(gnuplot_grid("grid.csv", config.sweep.chi.points,
                              pump_spec.points))
    return _finish_sweep(args, config, "sweep-grid", out_dir, result,
                         ["grid.csv", "grid.gp"])


def _cmd_sensitivity(args, config: RunConfig, out_dir: str) -> int:
    if config.medium_kind != "sample":
        raise ConfigError(
            "sensitivity needs the chiral-sample medium description "
            "(epsilon enters through the sample)")
    report = sensitivity(config.cavity, config.sample, config.solvent,
                         config.dye, config.l_max, config.solver,
                         config.sweep.sensitivity_epsilon,
                         config.sweep.sensitivity_step,
                         config.kappa_override)
    payload = {
        "epsilon": report.epsilon,
        "slope": report.slope,
        "step": report.step,
        "epsilon_minus": report.epsilon_minus,
        "epsilon_plus": report.epsilon_plus,
        "S3_minus": report.S3_minus,
        "S3_plus": report.S3_plus,
        "noise_dominated": report.noise_dominated,
    }
    write_manifest(os.path.join(out_dir, "sensitivity.json"), payload)
    manifest = build_manifest("sensitivity", config, ["sensitivity.json"],
                              meta=payload)
    write_manifest(os.path.join(out_dir, "manifest.json"), manifest)
    print(f"dS3/depsilon = {report.slope:.6g} at epsilon = {report.epsilon:g} "
          f"(bracket [{report.epsilon_minus:g}, {report.epsilon_plus:g}])")
    if report.noise_dominated:
        print("warning: S3 difference is below the solver noise floor; "
              "the slope is not resolved", file=sys.stderr)
    print(f"wrote sensitivity.json and manifest.json to {out_dir}")
    return EXIT_OK


def _cmd_threshold(args, config: RunConfig, out_dir: str) -> int:
    modes = build_mode_set(config.cavity, config.medium_indices(),
                           config.l_max, config.kappa_override)
    rates = build_rate_table(config.dye, modes)
    report = ground_thresholds(rates, modes, config.dye)
    write_csv(os.path.join(out_dir, "threshold.csv"),
              ["tau_L", "tau_R", "winner"],
              [[report.tau_L, report.tau_R, report.winner]])
    manifest = build_manifest("threshold", config, ["threshold.csv"],
                              meta={"tau_L": report.tau_L,
                                    "tau_R": report.tau_R,
                                    "winner": report.winner})
    write_manifest(os.path.join(out_dir, "manifest.json"), manifest)
    print(f"tau_L = {report.tau_L:.6e} 1/s, tau_R = {report.tau_R:.6e} 1/s, "
          f"winner: {report.winner}")
    print(f"wrote threshold.csv and manifest.json to {out_dir}")
    return EXIT_OK


def _cmd_selftest(args, config: RunConfig, out_dir: str | None) -> int:
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


_COMMANDS = {
    "modes": _cmd_modes,
    "spectrum": _cmd_spectrum,
    "sweep-pump": _cmd_sweep_pump,
    "sweep-chi": _cmd_sweep_chi,
    "sweep-grid": _cmd_sweep_grid,
    "sensitivity": _cmd_sensitivity,
    "threshold": _cmd_threshold,
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
                return _COMMANDS[args.command](args, config, out_dir)
            except ConfigError as exc:
                print(f"configuration error: {exc}", file=sys.stderr)
                return EXIT_CONFIG
            except CrosscheckError as exc:
                print(f"cross-check failure: {exc}", file=sys.stderr)
                return EXIT_UNCONVERGED
    except (OutputLockError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
