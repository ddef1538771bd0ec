"""Committed reference outputs, regenerated through the CLI and compared.

Each file in tests/data is the table one command writes,

    polarbec COMMAND --config run.ini --out DIR

tests/data/pump_sweep_<mode>.csv from sweep-pump at run.ini =
pump_config(mode) below (l_max = 30, 12 pump points), one file per
solver route; grid.csv, chi_sweep.csv, threshold.csv and modes.csv from
sweep-grid, sweep-chi, threshold and modes at run.ini = TABLE_CONFIG
(l_max = 30, 5 chi x 6 pump points).  A change that moves an answer on
purpose regenerates these files the same way, in the same change, and
says which columns moved.

One comparator serves every file.  It is not byte for byte, because the
block totals go through BLAS dot products (dynamics.row_dot) whose
rounding moves with the BLAS build:

* block totals and ground occupations within crosscheck_bound()
  relative, the gap two converged solves may show;
* p_e within twice that: Gamma_up and Gamma_up + Gamma_dn each move by
  at most the occupations' relative gap;
* S3 and S3_ground within (1 - S3^2) crosscheck_bound(): S3 =
  (R - L) / (R + L) moves by (1 - S3^2) / 2 (dR/R - dL/L);
* iterations and residual_norm not at all: the count of h(u)
  evaluations and the residual follow the rounding of h(u);
* every other column exactly.  The parameter columns (pump, chi, scale,
  epsilon), S3_pinned and every column of modes.csv and threshold.csv
  are grids, closed forms, element-wise or scalar arithmetic with no
  BLAS call; converged holds because no reference residual exceeds 0.27
  of its tolerance.
"""

from __future__ import annotations

import csv
import math
import pathlib

import pytest

from polarbec.cli import EXIT_OK, main
from polarbec.dynamics import SOLVER_MODES, crosscheck_bound

DATA = pathlib.Path(__file__).parent / "data"

TOTALS = ("N_L_total", "N_R_total", "N_ground_L", "N_ground_R")
STOKES = ("S3", "S3_ground")
NOT_COMPARED = ("iterations", "residual_norm")

TABLE_CONFIG = ("[cavity]\nl_max = 30\n[sweep]\nchi_points = 5\n"
                "grid_pump_points = 6\n")


def pump_config(mode: str) -> str:
    return (f"[cavity]\nl_max = 30\n[solver]\nmode = {mode}\n"
            "[sweep]\npump_points = 12\n")


# the tables written from TABLE_CONFIG: (command, table name)
TABLES = [("sweep-grid", "grid.csv"), ("sweep-chi", "chi_sweep.csv"),
          ("threshold", "threshold.csv"), ("modes", "modes.csv")]


def read_table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        return next(reader), list(reader)


def relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def assert_cell_matches(name: str, got: str, want: str, where) -> None:
    bound = crosscheck_bound()
    if name in NOT_COMPARED:
        return
    if name in TOTALS or name == "p_e":
        allowed = bound if name in TOTALS else 2.0 * bound
        assert relative_gap(float(got), float(want)) <= allowed, (
            name, where, got, want)
    elif name in STOKES:
        s3, s3_ref = float(got), float(want)
        if math.isnan(s3_ref):
            assert math.isnan(s3), (name, where)
        else:
            assert abs(s3 - s3_ref) <= (1.0 - s3_ref**2) * bound, (
                name, where, got, want)
    else:
        assert got == want, (name, where, got, want)


def assert_reproduces(tmp_path, command, table, reference, config):
    """Run `command` on `config` and compare `table` with `reference`."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(config, encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    columns, rows = read_table(out / table)
    ref_columns, ref_rows = read_table(DATA / reference)
    assert columns == ref_columns
    assert len(rows) == len(ref_rows) > 0
    for k, (row, ref) in enumerate(zip(rows, ref_rows)):
        for name, got, want in zip(columns, row, ref, strict=True):
            assert_cell_matches(name, got, want, (k, ref[:2]))


@pytest.mark.parametrize("mode", SOLVER_MODES)
def test_sweep_pump_reproduces_its_reference_output(tmp_path, mode):
    assert_reproduces(tmp_path, "sweep-pump", "pump_sweep.csv",
                      f"pump_sweep_{mode}.csv", pump_config(mode))


@pytest.mark.parametrize("command, table", TABLES, ids=[c for c, _ in TABLES])
def test_table_reproduces_its_reference_output(tmp_path, command, table):
    assert_reproduces(tmp_path, command, table, table, TABLE_CONFIG)
