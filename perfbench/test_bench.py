"""Tests of the benchmark's output check and trace aggregation.

They run the real CLI on a small pump sweep, so the check is exercised
on CSV bytes the program wrote, then corrupt single rows.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import bench

SMALL_INI = "[cavity]\nl_max = 30\n[sweep]\npump_points = 12\n"


def _cli(tmp_path, ini, *prefix):
    ini_path = tmp_path / "config.ini"
    ini_path.write_text(ini)
    out = tmp_path / "out"
    argv = [sys.executable, *prefix, "sweep-pump", "--config", str(ini_path),
            "--out", str(out), "--threads", "1"]
    proc = subprocess.run(argv, env=bench.child_env(), capture_output=True)
    return proc.returncode, out


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    from polarbec.config import parse_config

    rc, out = _cli(tmp_path_factory.mktemp("run"), SMALL_INI,
                   "-m", "polarbec.cli")
    assert rc == 0
    config = parse_config(SMALL_INI)
    points = bench.sweep_points("sweep-pump", config)
    refs = bench.reference_states(config, points, "semi_dynamical", seed=0,
                                  k=len(points))
    rows = bench.read_csv((out / "pump_sweep.csv").read_bytes())
    return points, refs, rows


def test_real_output_passes_the_check(small_run):
    points, refs, rows = small_run
    assert len(refs) == len(points) == len(rows)
    assert bench.failed_points(0, rows, points, refs) == set()


@pytest.mark.parametrize("column, corrupt", [
    ("S3", lambda v: repr(-float(v))),
    ("N_L_total", lambda v: repr(1.001 * float(v))),
    ("N_R_total", lambda v: repr(0.999 * float(v))),
    ("pump", lambda v: repr(1.01 * float(v))),
    ("converged", lambda v: "false"),
])
def test_one_corrupted_row_counts_as_failed(small_run, column, corrupt):
    points, refs, rows = small_run
    # the last point sits far above threshold, where |S3| is near 1
    j = len(rows) - 1
    bad = [dict(r) for r in rows]
    bad[j][column] = corrupt(bad[j][column])
    assert bench.failed_points(0, bad, points, refs) == {j}


def test_nonzero_exit_fails_the_whole_run(tmp_path, small_run):
    points, refs, rows = small_run
    rc, out = _cli(tmp_path, "[cavity]\nl_max = -1\n", "-m", "polarbec.cli")
    assert rc != 0
    assert not (out / "pump_sweep.csv").exists()
    every = set(range(len(points)))
    assert bench.failed_points(rc, None, points, refs) == every
    assert bench.failed_points(rc, rows, points, refs) == every
    assert bench.failed_points(0, rows[:-1], points, refs) == every


def test_traced_cli_records_every_layer(tmp_path):
    trace_path = tmp_path / "trace.json"
    rc, out = _cli(tmp_path, SMALL_INI, bench.TRACED_CLI, str(trace_path))
    assert rc == 0
    trace = json.loads(trace_path.read_text())
    metrics = bench.layer_metrics(trace, process_wall=10.0, points=12)
    assert metrics["dynamics.find_steady_state.calls"] == 12
    assert metrics["sweeps.stokes_s3.calls"] == 12
    assert metrics["cavity.build_mode_set.calls"] == 1
    assert metrics["cavity.modes_built"] == 62
    assert metrics["dynamics.drift_evals"] > 12
    assert metrics["runio.csv_bytes"] == os.path.getsize(
        out / "pump_sweep.csv")
    assert metrics["config.parse_config.s"] > 0.0
    assert metrics["analytic.pinned_pair.s"] > 0.0


SYNTHETIC_TRACE = {"spans": [["cli.main", 0.0, 10.0, -1],
                             ["sweeps.driver", 1.0, 9.0, 0],
                             ["dynamics.find_steady_state", 2.0, 5.0, 1],
                             ["dynamics.from_tables", 2.0, 3.0, 2],
                             ["sweeps.stokes_s3", 5.0, 6.0, 1]],
                   "counts": {"drift_evals": 8, "exact_solves": 1,
                              "modes_built": 4, "csv_bytes": 100}}


def test_self_time_subtracts_child_spans():
    m = bench.layer_metrics(SYNTHETIC_TRACE, process_wall=12.0, points=2)
    assert m["cli.overhead_s"] == 2.0
    assert m["sweeps.driver_self_s"] == 4.0
    assert m["dynamics.find_steady_state.s"] == 3.0
    assert m["dynamics.drift_evals_per_point"] == 4.0


def test_emitted_metrics_match_benchmark_json():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    layer = set(bench.layer_metrics(SYNTHETIC_TRACE, 12.0, 2)) | {
        "dynamics.iterations_sum", "trace.overhead_s",
        "dynamics.xcheck_max_dS3"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "setup_s", "peak_rss_mb"}
    assert {m["name"] for m in spec["workloads"]} == set(bench.WORKLOADS)
