"""Committed reference outputs, regenerated through the CLI and compared.

tests/data/pump_sweep_<mode>.csv is the pump_sweep.csv that

    polarbec sweep-pump --config run.ini --out DIR

writes for run.ini = reference_config(mode) below (l_max = 30, 12 pump
points), one file per solver route.  A change that moves an answer on
purpose regenerates these files the same way, in the same change, and
says which columns moved.

The comparison is not byte for byte, because the block totals go
through BLAS dot products (dynamics.row_dot) whose rounding moves with
the BLAS build:

* pump and S3_pinned exactly: the grid and the closed-form pinned trace
  make no BLAS call; converged exactly: no reference residual exceeds
  0.27 of its tolerance;
* block totals and ground occupations within crosscheck_bound()
  relative, the gap two converged solves may show;
* p_e within twice that: Gamma_up and Gamma_up + Gamma_dn each move by
  at most the occupations' relative gap;
* S3 and S3_ground within (1 - S3^2) crosscheck_bound(): S3 =
  (R - L) / (R + L) moves by (1 - S3^2) / 2 (dR/R - dL/L).

iterations and residual_norm are not compared: the count of h(u)
evaluations and the residual follow the rounding of h(u).
"""

from __future__ import annotations

import csv
import math
import pathlib

import pytest

from polarbec.cli import EXIT_OK, main
from polarbec.dynamics import SOLVER_MODES, crosscheck_bound

DATA = pathlib.Path(__file__).parent / "data"

EXACT = ("pump", "S3_pinned", "converged")
TOTALS = ("N_L_total", "N_R_total", "N_ground_L", "N_ground_R")
STOKES = ("S3", "S3_ground")


def reference_config(mode: str) -> str:
    return (f"[cavity]\nl_max = 30\n[solver]\nmode = {mode}\n"
            "[sweep]\npump_points = 12\n")


def read_table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        return next(reader), list(reader)


def relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


@pytest.mark.parametrize("mode", SOLVER_MODES)
def test_sweep_pump_reproduces_its_reference_output(tmp_path, mode):
    cfg = tmp_path / "run.ini"
    cfg.write_text(reference_config(mode), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sweep-pump", "--config", str(cfg), "--out",
                 str(out)]) == EXIT_OK
    columns, rows = read_table(out / "pump_sweep.csv")
    ref_columns, ref_rows = read_table(DATA / f"pump_sweep_{mode}.csv")
    assert columns == ref_columns
    assert len(rows) == len(ref_rows) == 12
    bound = crosscheck_bound()
    for row, ref in zip(rows, ref_rows):
        got = dict(zip(columns, row))
        want = dict(zip(columns, ref))
        for name in EXACT:
            assert got[name] == want[name], (name, want["pump"])
        for name in TOTALS:
            assert relative_gap(float(got[name]), float(want[name])) <= bound, (
                name, want["pump"], got[name], want[name])
        assert relative_gap(float(got["p_e"]),
                            float(want["p_e"])) <= 2.0 * bound, want["pump"]
        for name in STOKES:
            s3, s3_ref = float(got[name]), float(want[name])
            if math.isnan(s3_ref):
                assert math.isnan(s3), (name, want["pump"])
                continue
            assert abs(s3 - s3_ref) <= (1.0 - s3_ref**2) * bound, (
                name, want["pump"], got[name], want[name])
