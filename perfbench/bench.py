"""Sweep benchmark: wall time of the polarbec CLI to a checked S3 map.

Run from the repository root:

    python3 perfbench/bench.py --workload grid --seed 1 --seconds 40 --trace 0

One run drives the real CLI (`python -m polarbec.cli`) from this single
process, one child at a time, with `--threads 1` and single-threaded
BLAS, for about `--seconds` seconds (at least one CLI run; another run
starts only while the previous one still fits in the budget).  It is a
closed loop with one client.

--trace 0  prints the end-to-end metrics: wall_s (launch to exit of the
           fastest CLI run), setup_s (median over fresh interpreters that
           import polarbec.cli and parse the workload's config) and
           peak_rss_mb (median peak RSS of the CLI child, from wait4).
--trace 1  alternates traced and untraced CLI runs.  The traced child
           (perfbench/traced_cli.py) times the calls into each module's
           public functions; the per-layer metrics and the tracing
           overhead come from those spans and counters.

Both modes check the output.  A point fails when its `converged`
column is false, when the CSV row does not belong to the configured
grid, or when it is one of a seeded sample of points that this process
re-solves cold by the other steady-state route and the CSV misses the
re-solved S3 or block totals by more than the convergence contract
allows.  A non-zero exit or a missing or short CSV fails every point of
that run, and so does a CSV whose bytes differ from the first run's.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The full report (timing
percentiles, sample counts, CSV SHA-256, exact counts, environment) is
written to .perfbench_out/<workload>-<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
TRACED_CLI = os.path.join(HERE, "traced_cli.py")
SPAWN = os.path.join(HERE, "spawn.py")

# a run must end within 180 s; children still running at this many
# seconds after start are killed
DEADLINE_S = 150.0
STARTED = time.perf_counter()

# fresh-interpreter probes per run; setup_s is their median
SETUP_PROBES = 15
# points per run re-solved by the other route
CHECK_POINTS = 64
# relative agreement of CSV parameter columns with the configured grid
# (the CSV prints 12 significant digits)
CSV_RTOL = 1e-11

SETUP_PROBE = ("import sys, polarbec.cli, polarbec.config; "
               "polarbec.config.parse_config(open(sys.argv[1]).read())")


# --- workloads -------------------------------------------------------------


def _grid_ini(rng: random.Random) -> str:
    chi = 3e-5 * rng.uniform(0.95, 1.05)
    return (f"[sweep]\nchi_start = {-chi:.6g}\nchi_stop = {chi:.6g}\n"
            f"pump_start = {1e8 * rng.uniform(0.95, 1.05):.6g} Hz\n"
            f"pump_stop = {1e10 * rng.uniform(0.95, 1.05):.6g} Hz\n")


def _chi_wide_ini(rng: random.Random) -> str:
    chi = 0.01 * rng.uniform(0.95, 1.05)
    return ("[cavity]\nl_max = 2000\n"
            f"[sweep]\nchi_start = {-chi:.6g}\nchi_stop = {chi:.6g}\n"
            "chi_points = 244\n")


def _pump_pt_ini(rng: random.Random) -> str:
    return ("[cavity]\nl_max = 2000\n[solver]\nmode = semi_dynamical\n"
            f"[sweep]\npump_start = {1e8 * rng.uniform(0.95, 1.05):.6g} Hz\n"
            f"pump_stop = {1e10 * rng.uniform(0.95, 1.05):.6g} Hz\n"
            "pump_points = 2000\n")


@dataclass(frozen=True)
class Workload:
    """One CLI sweep: its subcommand, config generator and check route."""

    command: str
    ini: Callable[[random.Random], str]   # INI override text
    check_mode: str       # the other steady-state route


# The seed jitters grid endpoints within +-5 %: chi stays symmetric and
# far inside |chi| < 0.05, and every pump range spans the condensation
# knee near 1.27e9 1/s.  Point counts and ladder sizes are fixed.
WORKLOADS = {
    # default 61 x 50 map, fixed_point with warm start: the solve dominates
    "grid": Workload("sweep-grid", _grid_ini, "semi_dynamical"),
    # 4 scales x 244 cold solves at 4002 modes: ladder build per point
    "chi_wide": Workload("sweep-chi", _chi_wide_ini, "semi_dynamical"),
    # 2000 warm pseudo-transient solves at 4002 modes
    "pump_pt": Workload("sweep-pump", _pump_pt_ini, "fixed_point"),
}

CSV_NAME = {"sweep-grid": "grid.csv", "sweep-chi": "chi_sweep.csv",
            "sweep-pump": "pump_sweep.csv"}


def workload_ini(name: str, seed: int) -> str:
    return WORKLOADS[name].ini(random.Random(f"{name}:{seed}"))


# --- points of a sweep and the output check ----------------------------------


@dataclass(frozen=True)
class Point:
    """Inputs of one CSV row: its parameter columns, medium and dye."""

    params: dict
    medium: object
    dye: object


def sweep_points(command: str, config) -> list[Point]:
    """The points of a CLI sweep, in CSV row order."""
    from polarbec.chiral import refractive_indices

    sweep = config.sweep
    dye = config.dye
    if command == "sweep-pump":
        medium = config.medium_indices()
        return [Point({"pump": p}, medium, replace(dye, gamma_up_pump=p))
                for p in map(float, sweep.pump.grid())]
    if command == "sweep-chi":
        n0 = config.base_index()
        return [Point({"scale": s, "chi": c}, refractive_indices(n0, c),
                      replace(dye, gamma_up0=dye.gamma_up0 * s))
                for s in map(float, sweep.scales)
                for c in map(float, sweep.chi.grid())]
    if command == "sweep-grid":
        n0 = config.base_index()
        pumps = replace(sweep.pump, points=sweep.grid_pump_points).grid()
        return [Point({"chi": c, "pump": p}, refractive_indices(n0, c),
                      replace(dye, gamma_up_pump=p))
                for c in map(float, sweep.chi.grid())
                for p in map(float, pumps)]
    raise ValueError(f"no point layout for {command!r}")


def resolve(config, point: Point, mode: str) -> dict:
    """Cold steady state of one point by `mode`, through the public API."""
    from polarbec import (build_mode_set, build_rate_table,
                          find_steady_state, stokes_s3)

    modes = build_mode_set(config.cavity, point.medium, config.l_max,
                           config.kappa_override)
    rates = build_rate_table(point.dye, modes)
    steady = find_steady_state(rates, modes, point.dye,
                               replace(config.solver, mode=mode))
    obs = stokes_s3(steady, modes)
    return {"S3": obs.S3, "N_L_total": obs.N_L_total,
            "N_R_total": obs.N_R_total, "converged": steady.converged}


def total_rtol() -> float:
    """Allowed relative gap between two converged block totals.

    Each route stops once every mode's drift is below BALANCE_FTOL times
    the gross flux through it, S + |drift| = 2 S at balance, so its
    occupations sit within 2 * BALANCE_FTOL of the exact ones; two
    routes can land on opposite sides, and a weighted total inherits
    the per-mode bound.  CSV rounding adds CSV_RTOL.
    """
    from polarbec.dynamics import BALANCE_FTOL
    return 2.0 * (2.0 * BALANCE_FTOL) + CSV_RTOL


def point_gap(row: dict, ref: dict) -> tuple[float, float]:
    """(|dS3|, worst relative block-total gap) of a CSV row against `ref`."""
    d_total = max(abs(float(row[k]) - ref[k])
                  / max(abs(float(row[k])), abs(ref[k]), 1e-300)
                  for k in ("N_L_total", "N_R_total"))
    s3 = float(row["S3"])
    if math.isnan(s3) and math.isnan(ref["S3"]):
        return 0.0, d_total
    return abs(s3 - ref["S3"]), d_total


def point_ok(row: dict, ref: dict) -> bool:
    """Whether a CSV row agrees with the other route within the contract.

    S3 = (R - L) / (R + L) moves by (1 - S3^2) / 2 * (dR/R - dL/L), so
    totals within total_rtol() bound |dS3| by (1 - S3^2) * total_rtol().
    """
    d_s3, d_total = point_gap(row, ref)
    tol = total_rtol()
    s3 = ref["S3"]
    s3_tol = (1.0 - s3 * s3) * tol + CSV_RTOL if not math.isnan(s3) else 0.0
    return ref["converged"] and d_total <= tol and d_s3 <= s3_tol


def reference_states(config, points: list[Point], mode: str,
                     seed: int, k: int = CHECK_POINTS) -> dict:
    """Seeded sample of point indices, each re-solved cold by `mode`."""
    picks = sorted(random.Random(seed).sample(range(len(points)),
                                              min(k, len(points))))
    return {i: resolve(config, points[i], mode) for i in picks}


def read_csv(data: bytes) -> list[dict]:
    return list(csv.DictReader(data.decode("utf-8").splitlines()))


def failed_points(rc: int, rows: list[dict] | None, points: list[Point],
                  refs: dict) -> set[int]:
    """Indices of the points of one CLI run that count as failed."""
    if rc != 0 or rows is None or len(rows) != len(points):
        return set(range(len(points)))
    failed = set()
    for i, (row, point) in enumerate(zip(rows, points)):
        try:
            on_grid = all(abs(float(row[k]) - v) <= CSV_RTOL * abs(v)
                          for k, v in point.params.items())
            if not on_grid or row["converged"] != "true":
                failed.add(i)
            elif i in refs and not point_ok(row, refs[i]):
                failed.add(i)
        except (KeyError, TypeError, ValueError):
            failed.add(i)
    return failed


# --- child processes ---------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class ChildRun:
    rc: int
    wall_s: float
    peak_rss_mb: float


def run_child(argv: list[str], log_path: str) -> ChildRun:
    """Run one child to exit through perfbench/spawn.py (see there why).

    A child still running at the deadline is killed and fails its run.
    """
    timeout = max(1.0, DEADLINE_S - (time.perf_counter() - STARTED))
    out = subprocess.run([sys.executable, SPAWN, str(timeout), log_path]
                         + argv,
                         env=child_env(), cwd=ROOT, check=True,
                         stdout=subprocess.PIPE).stdout
    result = json.loads(out)
    return ChildRun(result["rc"], result["wall_s"], result["peak_rss_mb"])


class Session:
    """CLI runs of one workload and seed inside the run directory."""

    def __init__(self, workload: str, seed: int, traced: bool):
        self.wl = WORKLOADS[workload]
        self.dir = os.path.join(OUT, f"{workload}-{seed}-trace{int(traced)}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.ini_path = os.path.join(self.dir, "config.ini")
        with open(self.ini_path, "w", encoding="utf-8") as fh:
            fh.write(workload_ini(workload, seed))
        self.out = os.path.join(self.dir, "out")
        self.csv_path = os.path.join(self.out, CSV_NAME[self.wl.command])
        self.runs = 0

    def setup_probe(self) -> ChildRun:
        return run_child([sys.executable, "-c", SETUP_PROBE, self.ini_path],
                         os.path.join(self.dir, "setup.log"))

    def cli(self, trace_path: str | None = None):
        """One CLI run; returns (ChildRun, CSV bytes or None)."""
        shutil.rmtree(self.out, ignore_errors=True)
        args = [self.wl.command, "--config", self.ini_path,
                "--out", self.out, "--threads", "1"]
        if trace_path is None:
            argv = [sys.executable, "-m", "polarbec.cli"] + args
        else:
            argv = [sys.executable, TRACED_CLI, trace_path] + args
        self.runs += 1
        run = run_child(argv, os.path.join(self.dir, f"cli{self.runs}.log"))
        try:
            with open(self.csv_path, "rb") as fh:
                data = fh.read()
        except OSError:
            data = None
        return run, data


# --- statistics and trace aggregation -------------------------------------------


def summary(values: list[float]) -> dict:
    """Minimum, median, highest percentile with >= 10 samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    out = {"min": xs[0], "median": statistics.median(xs), "n": n,
           "values": values}
    if n > 10:
        out["p_high"] = {"pct": round(100.0 * (n - 10) / n, 2),
                         "value": xs[n - 11]}
    return out


def layer_metrics(trace: dict, process_wall: float, points: int) -> dict:
    """Per-layer metrics of one traced CLI run (spans and counts)."""
    spans = trace["spans"]
    counts = trace["counts"]
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    durations: dict[str, list] = {}
    for (name, t0, t1, _), inner in zip(spans, child_time):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (t1 - t0)
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - inner)
        durations.setdefault(name, []).append(t1 - t0)
    fss = sorted(durations.get("dynamics.find_steady_state", [0.0]))

    def pct(q):
        return 1e6 * fss[min(len(fss) - 1, int(q * len(fss)))]

    return {
        "cli.overhead_s": process_wall - total["cli.main"],
        "config.parse_config.s": total.get("config.parse_config", 0.0),
        "cavity.build_mode_set.calls": calls.get("cavity.build_mode_set", 0),
        "cavity.build_mode_set.s": total.get("cavity.build_mode_set", 0.0),
        "cavity.modes_built": counts["modes_built"],
        "dye.build_rate_table.calls": calls.get("dye.build_rate_table", 0),
        "dye.build_rate_table.s": total.get("dye.build_rate_table", 0.0),
        "dynamics.find_steady_state.calls":
            calls.get("dynamics.find_steady_state", 0),
        "dynamics.find_steady_state.s":
            total.get("dynamics.find_steady_state", 0.0),
        "dynamics.find_steady_state.p50_us": pct(0.50),
        "dynamics.find_steady_state.p99_us": pct(0.99),
        "dynamics.from_tables.s": total.get("dynamics.from_tables", 0.0),
        "dynamics.drift_evals": counts["drift_evals"],
        "dynamics.drift_evals_per_point": counts["drift_evals"] / points,
        "dynamics.exact_solves": counts["exact_solves"],
        "analytic.pinned_pair.s": total.get("analytic.pinned_pair", 0.0),
        "sweeps.stokes_s3.calls": calls.get("sweeps.stokes_s3", 0),
        "sweeps.stokes_s3.s": total.get("sweeps.stokes_s3", 0.0),
        "sweeps.driver_self_s": self_s.get("sweeps.driver", 0.0),
        "runio.write_csv.s": total.get("runio.write_csv", 0.0),
        "runio.csv_bytes": counts["csv_bytes"],
        "runio.write_manifest.s": total.get("runio.write_manifest", 0.0),
    }


def metric_units() -> dict:
    """Unit of every metric, as BENCHMARK.json declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# --- the run ---------------------------------------------------------------


def environment(seed: int, traced: bool) -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "seed": seed, "traced": traced}


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    from polarbec.config import parse_config

    session = Session(workload, seed, traced)
    with open(session.ini_path, encoding="utf-8") as fh:
        config = parse_config(fh.read())
    points = sweep_points(session.wl.command, config)
    refs = reference_states(config, points, session.wl.check_mode, seed)

    # compile bytecode and fill the file cache before anything is timed
    session.setup_probe()
    setup = [] if traced else [session.setup_probe().wall_s
                               for _ in range(SETUP_PROBES)]

    runs: list[ChildRun] = []
    plain: list[ChildRun] = []
    layers: list[dict] = []
    failed = 0
    first_csv = None
    digests = []
    start = time.perf_counter()
    while True:
        t_iter = time.perf_counter()
        trace_path = os.path.join(session.dir, "trace.json") if traced else None
        run, data = session.cli(trace_path)
        runs.append(run)
        rows = None
        if data is not None:
            digests.append(hashlib.sha256(data).hexdigest())
            first_csv = data if first_csv is None else first_csv
            if data == first_csv:
                rows = read_csv(data)
        failed += len(failed_points(run.rc, rows, points, refs))
        if traced:
            if run.rc == 0:
                with open(trace_path, encoding="utf-8") as fh:
                    layers.append(layer_metrics(json.load(fh), run.wall_s,
                                                len(points)))
            plain.append(session.cli()[0])
        now = time.perf_counter()
        if now - start + (now - t_iter) > seconds:
            break

    gaps = []
    if first_csv is not None:
        rows = read_csv(first_csv)
        if len(rows) == len(points):
            gaps = [point_gap(rows[i], ref) for i, ref in refs.items()]
    attempted = len(points) * len(runs)
    report = {
        "workload": workload,
        "command": session.wl.command,
        "config_ini": workload_ini(workload, seed),
        "environment": environment(seed, traced),
        "points_per_run": len(points),
        "cli_runs": len(runs),
        "exit_codes": [r.rc for r in runs],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "csv_sha256": sorted(set(digests)),
        "check": {
            "route": session.wl.check_mode,
            "points": sorted(refs),
            "total_rtol": total_rtol(),
            "max_dS3": max((g[0] for g in gaps), default=None),
            "max_dtotal_rel": max((g[1] for g in gaps), default=None),
        },
        "wall_s": summary([r.wall_s for r in runs]),
    }
    if traced:
        report["untraced_wall_s"] = summary([r.wall_s for r in plain])
        report["layers"] = layers
        metrics = {}
        if layers and gaps:
            # median_low keeps counts integral: they repeat exactly
            metrics = {k: statistics.median_low(m[k] for m in layers)
                       for k in layers[0]}
            metrics["dynamics.iterations_sum"] = sum(
                int(r["iterations"]) for r in read_csv(first_csv))
            metrics["trace.overhead_s"] = (
                report["wall_s"]["median"] - report["untraced_wall_s"]["median"])
            metrics["dynamics.xcheck_max_dS3"] = report["check"]["max_dS3"]
    else:
        report["setup_s"] = summary(setup)
        report["peak_rss_mb"] = summary([r.peak_rss_mb for r in runs])
        # On a shared virtual machine the CPU speed can drift by tens of
        # percent over minutes; interference only ever adds time, so the
        # fastest CLI run is the steadiest estimate of the program's cost.
        metrics = {"wall_s": report["wall_s"]["min"],
                   "setup_s": report["setup_s"]["median"],
                   "peak_rss_mb": report["peak_rss_mb"]["median"]}
    report["metrics"] = metrics
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "polarbec", "cli.py")):
        print(f"error: no polarbec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    path = os.path.join(OUT, f"{args.workload}-{args.seed}"
                             f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"{args.workload} seed {args.seed}: {report['cli_runs']} CLI runs, "
          f"{report['failed']}/{report['attempted']} points failed "
          f"(failed_frac {report['failed_frac']:g}); report {path}")
    units = metric_units()
    for name, value in report["metrics"].items():
        print(f"  {name} = {value:.6g} {units[name]}")
    result = {
        "correct": report["failed"] == 0 and bool(report["metrics"]),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in report["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
