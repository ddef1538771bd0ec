"""Command-line surface: subcommands, exit codes, files, determinism."""

from __future__ import annotations

import csv
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict, replace

import pytest

import polarbec
from polarbec import cli, dynamics, selftest
from polarbec.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_SELFTEST,
    EXIT_UNCONVERGED,
    main,
)
from polarbec.chiral import chi_from_sample, refractive_indices
from polarbec.config import default_config, parse_config, render_config
from polarbec.sweeps import bracket_steps, sensitivity

from conftest import UNDERFLOW_LOSS

SMALL_CONFIG = """
[cavity]
l_max = 30

[sweep]
pump_points = 6
chi_points = 5
chi_start = -1e-5
chi_stop = 1e-5
grid_pump_points = 4
scales = 1.0
"""


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(SMALL_CONFIG, encoding="utf-8")
    return str(path)


def run_cli(*args):
    return main(list(args))


def read_rows(path):
    """CSV rows with the carriage-return terminators checked and removed."""
    blob = path.read_bytes().decode("utf-8")
    assert blob.endswith("\r\n")
    return blob[:-2].split("\r\n")


# --- basic command surface ------------------------------------------------------


def test_modes_writes_ladder_and_manifest(tmp_path):
    out = tmp_path / "modes"
    assert run_cli("modes", "--out", str(out)) == EXIT_OK
    lines = read_rows(out / "modes.csv")
    assert lines[0] == "sigma,l,j,omega,degeneracy,kappa"
    assert len(lines) == 403
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "modes"
    assert "modes.csv" in manifest["outputs"]
    assert "[cavity]" in manifest["config_text"]


def test_csv_lines_end_with_crlf(tmp_path):
    out = tmp_path / "modes"
    run_cli("modes", "--out", str(out))
    blob = (out / "modes.csv").read_bytes()
    assert b"\r\n" in blob
    assert not blob.replace(b"\r\n", b"").count(b"\n")


def test_spectrum_writes_profiles_markers_and_plot(tmp_path):
    out = tmp_path / "spec"
    assert run_cli("spectrum", "--out", str(out)) == EXIT_OK
    rows = read_rows(out / "dye_spectrum.csv")
    assert rows[0] == "omega,gamma_down,gamma_up"
    assert len(rows) == 2002  # header + grid
    assert (out / "mode_markers.csv").exists()
    assert (out / "spectrum.gp").exists()


def test_spectrum_grid_spans_every_mode_marker(tmp_path):
    cfg = tmp_path / "long.ini"
    cfg.write_text("[cavity]\nl_max = 2000\n", encoding="utf-8")
    out = tmp_path / "spec"
    assert run_cli("spectrum", "--config", str(cfg), "--out",
                   str(out)) == EXIT_OK
    grid = [float(r.split(",")[0])
            for r in read_rows(out / "dye_spectrum.csv")[1:]]
    markers = [float(r.split(",")[3])
               for r in read_rows(out / "mode_markers.csv")[1:]]
    assert len(markers) == 4002
    assert grid[0] < min(markers) and max(markers) < grid[-1]


def test_threshold_reports_the_winner(tmp_path, capsys):
    out = tmp_path / "thr"
    assert run_cli("threshold", "--out", str(out)) == EXIT_OK
    rows = read_rows(out / "threshold.csv")
    assert rows[0] == "tau_L,tau_R,winner"
    fields = rows[1].split(",")
    # R-dominant excess raises n_L, so the L mode condenses first
    assert fields[2] == "L"
    assert float(fields[0]) < float(fields[1])
    assert "winner: L" in capsys.readouterr().out


def test_threshold_degenerate_for_achiral_medium(tmp_path):
    cfg = tmp_path / "achiral.ini"
    cfg.write_text("[medium]\nn_L = 1.34\nn_R = 1.34\n", encoding="utf-8")
    out = tmp_path / "thr"
    assert run_cli("threshold", "--config", str(cfg), "--out",
                   str(out)) == EXIT_OK
    rows = read_rows(out / "threshold.csv")
    assert rows[1].split(",")[2] == "degenerate"


def test_selftest_passes(capsys):
    assert run_cli("selftest") == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS") == 6
    assert "FAIL" not in out


def test_selftest_reports_failing_and_raising_suites(monkeypatch, capsys):
    def raises():
        raise RuntimeError("broken suite")

    monkeypatch.setattr(selftest, "SUITES", [
        selftest.SUITES[0], ("fails", lambda: (False, "wrong answer")),
        ("raises", raises)])
    assert run_cli("selftest") == EXIT_SELFTEST
    captured = capsys.readouterr()
    assert "FAIL fails: wrong answer" in captured.out
    assert "FAIL raises: raised RuntimeError: broken suite" in captured.out
    assert "2 of 3 suites failed" in captured.err


# --- sweeps through the CLI -------------------------------------------------------


def test_sweep_pump_writes_csv_plot_and_manifest(tmp_path, small_config):
    out = tmp_path / "sp"
    assert run_cli("sweep-pump", "--config", small_config, "--out",
                   str(out)) == EXIT_OK
    rows = read_rows(out / "pump_sweep.csv")
    assert rows[0].startswith("pump,N_L_total,N_R_total")
    assert len(rows) == 7
    assert (out / "pump_sweep.gp").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["run"]["points"] == 6
    assert manifest["run"]["converged_points"] == 6


@pytest.mark.parametrize("text", [
    SMALL_CONFIG + "[dye]\nM = 0\n",           # the undoped limit
    SMALL_CONFIG + "[dye]\nM = 1\n",           # gain below loss
    SMALL_CONFIG.replace("[cavity]\n",          # loss above any gain
                         "[cavity]\nkappa_override = 1e30 Hz\n"),
], ids=["M=0", "M=1", "kappa=1e30Hz"])
def test_sweep_pump_runs_when_no_ground_mode_can_condense(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "sp"
    assert run_cli("sweep-pump", "--config", str(path), "--out",
                   str(out)) == EXIT_OK
    rows = read_rows(out / "pump_sweep.csv")
    assert len(rows) == 7
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["run"]["converged_points"] == 6


def test_sweep_pump_repeats_byte_identically(tmp_path, small_config):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_cli("sweep-pump", "--config", small_config, "--out", str(out_a))
    run_cli("sweep-pump", "--config", small_config, "--out", str(out_b))
    assert (out_a / "pump_sweep.csv").read_bytes() == (
        out_b / "pump_sweep.csv").read_bytes()


def test_manifest_replays_the_same_run(tmp_path, small_config):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_cli("sweep-pump", "--config", small_config, "--out", str(out_a))
    assert run_cli("sweep-pump", "--config", str(out_a / "manifest.json"),
                   "--out", str(out_b)) == EXIT_OK
    assert (out_a / "pump_sweep.csv").read_bytes() == (
        out_b / "pump_sweep.csv").read_bytes()


def test_manifest_reports_the_solver_work(tmp_path, small_config):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("sweep-grid", "--config", small_config, "--out",
                   str(out_a)) == EXIT_OK
    rows = [r.split(",") for r in read_rows(out_a / "grid.csv")]
    i_it = rows[0].index("iterations")
    iterations = [int(r[i_it]) for r in rows[1:]]
    run = json.loads((out_a / "manifest.json").read_text())["run"]
    assert run["iterations_total"] == sum(iterations)
    assert run["iterations_max"] == max(iterations) > 0
    assert run_cli("sweep-grid", "--config", str(out_a / "manifest.json"),
                   "--out", str(out_b)) == EXIT_OK
    replay = json.loads((out_b / "manifest.json").read_text())["run"]
    for key in ("iterations_total", "iterations_max"):
        assert replay[key] == run[key]


@pytest.mark.parametrize("command, csv_name, mirrored, points", [
    ("sweep-grid", "grid.csv", 1500, 3050),   # 30 chi pairs x 50 pumps
    ("sweep-chi", "chi_sweep.csv", 120, 244),  # 30 pairs x 4 scales
])
def test_default_chi_grids_read_every_mirror_point_off_its_partner(
        tmp_path, command, csv_name, mirrored, points):
    out = tmp_path / "out"
    assert run_cli(command, "--out", str(out)) == EXIT_OK
    run = json.loads((out / "manifest.json").read_text())["run"]
    assert (run["mirrored_points"], run["points"]) == (mirrored, points)
    # a manifest count only: the CSV layout does not change
    assert "mirrored" not in read_rows(out / csv_name)[0]


@pytest.mark.parametrize("value", [5, ["a"], None])
def test_manifest_replay_needs_a_string_config_text(tmp_path, capsys, value):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"config_text": value}), encoding="utf-8")
    out = tmp_path / "x"
    assert run_cli("modes", "--config", str(manifest), "--out",
                   str(out)) == EXIT_CONFIG
    assert "config_text" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_with_retired_keys_replays(tmp_path, small_config):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_cli("sweep-pump", "--config", small_config, "--out", str(out_a))
    manifest = json.loads((out_a / "manifest.json").read_text())
    # manifests of earlier versions carry four keys that no longer exist
    manifest["config_text"] = (
        manifest["config_text"]
        .replace("[solver]\n", "[solver]\nrel_tol = 1e-12\n"
                 "max_time = none\ndamping = 1.0\n")
        .replace("[sweep]\n", "[sweep]\nwarm_start = true\n"))
    old = tmp_path / "old_manifest.json"
    old.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.warns(UserWarning, match="retired") as record:
        code = run_cli("sweep-pump", "--config", str(old), "--out",
                       str(out_b))
    assert code == EXIT_OK
    assert len(record) == 4
    assert (out_a / "pump_sweep.csv").read_bytes() == (
        out_b / "pump_sweep.csv").read_bytes()


def previous_manifest(tmp_path, abs_tol="none", max_iters="200000"):
    """A manifest as the previous version wrote it for SMALL_CONFIG: the
    canonical text with [solver] abs_tol and max_iters, then retired."""
    text = render_config(parse_config(SMALL_CONFIG)).replace(
        "[solver]\nmode = fixed_point\n",
        f"[solver]\nmode = fixed_point\nabs_tol = {abs_tol}\n"
        f"max_iters = {max_iters}\n")
    path = tmp_path / "previous_manifest.json"
    path.write_text(json.dumps({"config_text": text}), encoding="utf-8")
    return path


def test_a_manifest_of_the_previous_version_replays(tmp_path, small_config):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("sweep-pump", "--config", small_config, "--out",
                   str(out_a)) == EXIT_OK
    with pytest.warns(UserWarning, match="retired") as record:
        code = run_cli("sweep-pump", "--config",
                       str(previous_manifest(tmp_path)), "--out", str(out_b))
    assert code == EXIT_OK
    assert sorted(str(w.message) for w in record) == [
        "[solver] abs_tol is retired and ignored",
        "[solver] max_iters is retired and ignored",
    ]
    assert (out_a / "pump_sweep.csv").read_bytes() == (
        out_b / "pump_sweep.csv").read_bytes()


# the other key, at its default, still warns before the refusal
@pytest.mark.filterwarnings("ignore:.* is retired and ignored")
@pytest.mark.parametrize("key, value", [("abs_tol", "5 Hz"),
                                        ("max_iters", "1000")])
def test_a_previous_manifest_with_a_tuned_solver_is_refused(tmp_path, capsys,
                                                            key, value):
    # the solver no longer has the setting, so that run cannot be redone
    manifest = previous_manifest(tmp_path, **{key: value})
    out = tmp_path / "x"
    assert run_cli("sweep-pump", "--config", str(manifest), "--out",
                   str(out)) == EXIT_CONFIG
    assert f"[solver] {key} is retired" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_chi_maps_points_back_to_the_excess(tmp_path, small_config):
    out = tmp_path / "sc"
    assert run_cli("sweep-chi", "--config", small_config, "--out",
                   str(out)) == EXIT_OK
    rows = read_rows(out / "chi_sweep.csv")
    assert len(rows) == 6  # header + five grid points
    header = rows[0].split(",")
    i_chi, i_eps = header.index("chi"), header.index("epsilon")
    for row in rows[1:]:
        fields = row.split(",")
        chi, eps = float(fields[i_chi]), float(fields[i_eps])
        # on the sample route each chi reports the excess that made it
        assert eps == pytest.approx(chi / 2.7200003369996938e-05, rel=1e-9)


def test_sweep_chi_on_the_index_route_has_no_excess_column(tmp_path):
    cfg = tmp_path / "idx.ini"
    cfg.write_text("[medium]\nn_L = 1.3435\nn_R = 1.3395\n"
                   "[cavity]\nl_max = 10\n"
                   "[sweep]\nchi_points = 3\nscales = 1.0\n",
                   encoding="utf-8")
    out = tmp_path / "sc"
    assert run_cli("sweep-chi", "--config", str(cfg), "--out",
                   str(out)) == EXIT_OK
    rows = read_rows(out / "chi_sweep.csv")
    assert len(rows) == 4
    header = rows[0].split(",")
    i_eps = header.index("epsilon")
    assert all(row.split(",")[i_eps] == "nan" for row in rows[1:])


def test_sweep_grid_threads_are_byte_identical(tmp_path, small_config):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("sweep-grid", "--config", small_config, "--out",
                   str(out_a), "--threads", "1") == EXIT_OK
    assert run_cli("sweep-grid", "--config", small_config, "--out",
                   str(out_b), "--threads", "2") == EXIT_OK
    assert (out_a / "grid.csv").read_bytes() == (
        out_b / "grid.csv").read_bytes()


def test_sweep_grid_crosscheck_passes_and_fails_through_the_cli(
        tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "xcheck.ini"
    cfg.write_text(SMALL_CONFIG + "\n[solver]\nmode = both_crosscheck\n",
                   encoding="utf-8")
    assert run_cli("sweep-grid", "--config", str(cfg), "--out",
                   str(tmp_path / "ok")) == EXIT_OK
    assert "cross-check" not in capsys.readouterr().err

    honest = dynamics._semi_dynamical

    def off_by_ten_bounds(*args):
        N, *rest = honest(*args)
        return N * (1.0 + 10.0 * dynamics.crosscheck_bound()), *rest

    monkeypatch.setattr(dynamics, "_semi_dynamical", off_by_ten_bounds)
    assert run_cli("sweep-grid", "--config", str(cfg), "--out",
                   str(tmp_path / "bad")) == EXIT_UNCONVERGED
    assert "cross-check failure" in capsys.readouterr().err


# the exact route overflows to NaN on every row of this config, and the
# pseudo-transient route returns 0
NON_FINITE_CONFIG = """
[cavity]
l_max = 3
[dye]
M = 1.88e278
gamma_up0 = 1.03e124 Hz
gamma_down = 1.89e206 Hz
[solver]
mode = both_crosscheck
[sweep]
pump_points = 4
"""


def run_non_finite(tmp_path, command, mode):
    """`command` on NON_FINITE_CONFIG with `mode`, in a child process.

    The run emits overflow RuntimeWarnings, which pytest turns into
    errors, so it cannot run in-process.
    """
    cfg = tmp_path / "nan.ini"
    cfg.write_text(NON_FINITE_CONFIG.replace("both_crosscheck", mode),
                   encoding="utf-8")
    src = os.path.dirname(os.path.dirname(polarbec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "polarbec.cli", command, "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True)


@pytest.mark.parametrize("command", ["sweep-pump", "sweep-grid"])
def test_a_non_finite_answer_fails_the_crosscheck(tmp_path, command):
    # a NaN gap compares False against the bound; it must fail the check
    # (exit 3), not pass it and reach sweep-pump's next seed as NaN
    proc = run_non_finite(tmp_path, command, "both_crosscheck")
    assert proc.returncode == EXIT_UNCONVERGED, proc.stderr
    assert "cross-check failure" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_a_non_finite_state_prints_a_non_finite_p_e(tmp_path):
    # on the exact route alone every row is NaN and unconverged (exit 3);
    # its p_e is the slaved fraction of that state, NaN, not a made-up 0
    proc = run_non_finite(tmp_path, "sweep-pump", "fixed_point")
    assert proc.returncode == EXIT_UNCONVERGED, proc.stderr
    with open(tmp_path / "out" / "pump_sweep.csv", newline="",
              encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert [row["p_e"] for row in rows] == ["nan"] * 4


def test_a_huge_loss_keeps_the_pinned_trace(tmp_path):
    # single_mode_exact scales kappa and M by a power of two before it
    # squares b, so a loss of 1e300 /s overflows nothing (pytest turns a
    # RuntimeWarning into an error) and S3_pinned is not flattened to 0
    cfg = tmp_path / "lossy.ini"
    cfg.write_text("[cavity]\nl_max = 3\nkappa_override = 1e300 Hz\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("sweep-pump", "--config", str(cfg), "--out",
                   str(out)) == EXIT_OK
    with open(out / "pump_sweep.csv", newline="", encoding="utf-8") as fh:
        pinned = [float(row["S3_pinned"]) for row in csv.DictReader(fh)]
    assert len(pinned) == 100
    assert all(math.isfinite(s3) and s3 != 0.0 for s3 in pinned)


def test_sensitivity_writes_report(tmp_path, small_config):
    out = tmp_path / "sens"
    assert run_cli("sensitivity", "--config", small_config, "--out",
                   str(out)) == EXIT_OK
    report = json.loads((out / "sensitivity.json").read_text())
    assert set(report) >= {"slope", "epsilon", "step", "noise_dominated",
                           "S3_minus", "S3_plus"}
    assert report["epsilon"] == 0.5


UNCONVERGED_CONFIG = """
[cavity]
l_max = 30

[solver]
mode = semi_dynamical
"""


def test_sensitivity_exits_unconverged_unless_partial_is_allowed(
        tmp_path, capsys, monkeypatch):
    # one pseudo-time step per solve leaves the cold bracket ends short
    monkeypatch.setattr(dynamics, "MAX_STEPS", 1)
    cfg = tmp_path / "short.ini"
    cfg.write_text(UNCONVERGED_CONFIG, encoding="utf-8")
    assert run_cli("sensitivity", "--config", str(cfg), "--out",
                   str(tmp_path / "strict")) == EXIT_UNCONVERGED
    assert "points converged)" in capsys.readouterr().out
    report = json.loads((tmp_path / "strict" / "sensitivity.json").read_text())
    assert report["converged_points"] < report["points"]
    assert run_cli("sensitivity", "--config", str(cfg), "--out",
                   str(tmp_path / "partial"), "--allow-partial") == EXIT_OK


def test_sensitivity_checks_the_sample_over_the_whole_excess_range(
        tmp_path, capsys):
    # valid at its own excess; the widest bracket at the default
    # epsilon = 0.5 and step 0.01 is 0.5 +- 0.32, where the index
    # splitting |n_L - n_R| reaches 0.131, so that bracket would fail
    # inside a sensitivity run, and every command checks the whole file
    cfg = tmp_path / "strong.ini"
    cfg.write_text("[medium]\ntheta_deg = 129000\n", encoding="utf-8")
    for command in ("modes", "threshold", "sweep-pump", "sweep-chi",
                    "sweep-grid", "sensitivity"):
        out = tmp_path / command
        assert run_cli(command, "--config", str(cfg), "--out",
                       str(out)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "epsilon = 0.82 (the widest bracket, 0.5 +- 0.32)" in err
        assert "[sweep] sensitivity_epsilon" in err
        assert "Traceback" not in err
        assert not out.exists()


EDGE_CONFIG = """
[cavity]
l_max = 30

[medium]
theta_deg = 129000

[sweep]
sensitivity_epsilon = 0.1
"""


def test_sensitivity_runs_when_its_brackets_stay_in_range(tmp_path):
    # at full excess this sample's splitting is 0.16, but no bracket
    # around 0.1 reaches past 0.18, where it is 0.029
    cfg = tmp_path / "edge.ini"
    cfg.write_text(EDGE_CONFIG, encoding="utf-8")
    out = tmp_path / "s"
    assert run_cli("sensitivity", "--config", str(cfg), "--out",
                   str(out)) == EXIT_OK
    c = parse_config(EDGE_CONFIG)
    report = sensitivity(c.cavity, c.sample, c.solvent, c.dye, c.l_max,
                         c.solver, c.sweep.sensitivity_epsilon,
                         c.sweep.sensitivity_step, c.kappa_override)
    assert (report.epsilon_minus, report.epsilon_plus) == pytest.approx(
        (0.02, 0.18))
    assert (out / "sensitivity.json").read_text(encoding="utf-8") == (
        json.dumps(asdict(report), indent=2, sort_keys=True) + "\n")


def reaches_an_invalid_index_pair(theta_deg, epsilon) -> bool:
    """Brute force: any end of any bracket a sensitivity run at `epsilon`
    can try, on the default sample at `theta_deg`, gives no valid index
    pair."""
    defaults = default_config()
    sample = replace(defaults.sample, theta_deg=theta_deg)
    solvent = defaults.solvent
    for h in bracket_steps(epsilon, defaults.sweep.sensitivity_step):
        for end in (epsilon - h, epsilon + h):
            chi = chi_from_sample(replace(sample, epsilon=end), solvent)
            try:
                refractive_indices(solvent.base_index, chi)
            except ValueError:
                return True
    return False


@pytest.mark.parametrize("theta_deg, epsilon, invalid", [
    # the splitting is 0.1 at excess 0.627 for theta_deg = 129000; the
    # widest bracket at 0.31 is 0.31 +- 0.16, at 0.32 it is 0.32 +- 0.32
    (129000, 0.31, False),
    (129000, 0.32, True),
    # the widest bracket at 0.1 is 0.1 +- 0.08; the splitting at 0.18
    # crosses 0.1 between these two rotations
    (440000, 0.1, False),
    (450000, 0.1, True),
])
def test_sensitivity_refuses_exactly_the_runs_that_leave_the_range(
        tmp_path, capsys, theta_deg, epsilon, invalid):
    text = (f"[cavity]\nl_max = 3\n[medium]\ntheta_deg = {theta_deg}\n"
            f"epsilon = {epsilon}\n[sweep]\nsensitivity_epsilon = "
            f"{epsilon}\n")
    assert reaches_an_invalid_index_pair(theta_deg, epsilon) is invalid
    cfg = tmp_path / "edge.ini"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "s"
    code = run_cli("sensitivity", "--config", str(cfg), "--out", str(out))
    assert code == (EXIT_CONFIG if invalid else EXIT_OK)
    assert out.exists() is not invalid
    assert "Traceback" not in capsys.readouterr().err


NEGATIVE_PUMP_CONFIG = """
[cavity]
l_max = 3

[sweep]
pump_spacing = linear
pump_start = -1 GHz
pump_stop = 1 GHz
pump_points = 3
grid_pump_points = 3
chi_points = 3
"""


@pytest.mark.parametrize("text, message", [
    ("[cavity]\nmirror_separation = 1.46 um 2\n", "cannot parse quantity"),
    ("[cavity]\nmirror_loss = 0.01 0.02\n", "must be a bare number"),
    ("[sweep]\nscales = 1, x\n", "comma-separated number list"),
    ("[sweep]\nscales = ,\n", "list must not be empty"),
    ("l_max = 30\n", "does not parse as INI"),
    ("[cavity]\nl_max = 30\nl_max = 31\n", "does not parse as INI"),
    ("{\"config_text\": ", "manifest does not parse as JSON"),
    # refused although --out overrides it: every command checks the file
    ("[output]\ndirectory =\n", "[output] directory must not be blank"),
    ("[output]\ndirectory =   \n", "[output] directory must not be blank"),
    # a pump axis below zero gives no valid dye at its first point
    (NEGATIVE_PUMP_CONFIG, "[sweep] pump_start"),
], ids=["quantity", "bare_number", "number_list", "empty_list",
        "no_section", "duplicate_key", "broken_manifest", "blank_directory",
        "spaces_directory", "negative_pump"])
def test_a_config_that_does_not_parse_exits_before_the_run(tmp_path, capsys,
                                                           text, message):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "x"
    assert run_cli("modes", "--config", str(cfg), "--out",
                   str(out)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep-pump", "sweep-grid"])
def test_a_pump_axis_below_zero_exits_before_the_run(tmp_path, capsys,
                                                     command):
    # the pump sweep would end in a traceback at its first point, and the
    # grid would report its negative-pump rows as converged
    cfg = tmp_path / "negpump.ini"
    cfg.write_text(NEGATIVE_PUMP_CONFIG, encoding="utf-8")
    out = tmp_path / "x"
    assert run_cli(command, "--config", str(cfg), "--out",
                   str(out)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "[sweep] pump_start" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("out", ["", "  "], ids=["empty", "spaces"])
def test_a_blank_out_is_a_usage_error(tmp_path, monkeypatch, capsys, out):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli("modes", "--out", out)
    assert exc.value.code == EXIT_CONFIG
    assert "--out: the output directory must not be blank" in (
        capsys.readouterr().err)
    assert not any(tmp_path.iterdir())


def test_sensitivity_needs_a_sample_medium(tmp_path, capsys):
    cfg = tmp_path / "idx.ini"
    cfg.write_text("[medium]\nn_L = 1.3435\nn_R = 1.3395\n",
                   encoding="utf-8")
    assert run_cli("sensitivity", "--config", str(cfg), "--out",
                   str(tmp_path / "s")) == EXIT_CONFIG
    assert "sensitivity needs the chiral-sample medium description" in (
        capsys.readouterr().err)
    assert not (tmp_path / "s").exists()


# --- gnuplot companions ------------------------------------------------------------


def plotted_columns(script: str, out) -> list:
    """(file, fields) per plot of a gnuplot script: each `using` field as
    the CSV header names of the columns it reads, $k inside a bracketed
    expression or a bare k."""
    plots = []
    for name, spec in re.findall(r'"([^"]+)" skip 1 using (\S+)', script):
        with open(out / name, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh))
        fields, depth, field = [], 0, ""
        for ch in spec + ":":
            depth += {"(": 1, ")": -1}.get(ch, 0)
            if ch == ":" and depth == 0:
                refs = ([field] if field.isdigit()
                        else re.findall(r"\$(\d+)", field))
                fields.append([header[int(k) - 1] for k in refs])
                field = ""
            else:
                field += ch
        plots.append((name, fields))
    return plots


@pytest.mark.parametrize("command, script, expected", [
    ("sweep-pump", "pump_sweep.gp",
     [("pump_sweep.csv", [["pump"], [total]]) for total in
      ("N_L_total", "N_R_total", "S3", "S3_pinned")]),
    # the chi curve of each scale is selected by the scale column
    ("sweep-chi", "chi_sweep.gp",
     [("chi_sweep.csv", [["scale", "chi"], ["S3"]])]),
    ("sweep-grid", "grid.gp", [("grid.csv", [["pump"], ["chi"], ["S3"]])]),
    ("spectrum", "spectrum.gp",
     [("dye_spectrum.csv", [["omega"], ["gamma_down"]]),
      ("dye_spectrum.csv", [["omega"], ["gamma_up"]]),
      ("mode_markers.csv", [["omega"], ["gamma_down"]])]),
])
def test_plot_scripts_read_the_columns_they_name(tmp_path, small_config,
                                                 command, script, expected):
    # the scripts address CSV columns by number; a reordered table must
    # not plot the wrong quantity
    out = tmp_path / "run"
    assert run_cli(command, "--config", small_config, "--out",
                   str(out)) == EXIT_OK
    assert plotted_columns((out / script).read_text(), out) == expected


# --- the one finishing path ----------------------------------------------------------


@pytest.mark.parametrize("command", ["modes", "spectrum", "sweep-pump",
                                     "sweep-chi", "sweep-grid", "sensitivity",
                                     "threshold"])
def test_every_command_finishes_with_a_matching_manifest(tmp_path,
                                                         small_config,
                                                         capsys, command):
    out = tmp_path / "run"
    assert run_cli(command, "--config", small_config, "--out",
                   str(out)) == EXIT_OK
    summary = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("wrote ")]
    assert len(summary) == 1
    listed = summary[0][len("wrote "):].split(" and manifest.json to ")[0]
    files = listed.split(", ")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["outputs"] == sorted(files)
    assert all((out / name).is_file() for name in files)


# --- flags and failure modes --------------------------------------------------------


def test_seed_less_flag_is_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep-pump", "--seed-less", "--out", str(tmp_path / "x"))
    assert exc.value.code == EXIT_CONFIG
    assert "--seed-less" in capsys.readouterr().err


def test_retired_threads_flag_warns_once_and_changes_nothing(tmp_path,
                                                            small_config,
                                                            capsys):
    plain, flagged = tmp_path / "plain", tmp_path / "flagged"
    assert run_cli("sweep-grid", "--config", small_config, "--out",
                   str(plain)) == EXIT_OK
    assert "--threads" not in capsys.readouterr().err
    assert run_cli("sweep-grid", "--config", small_config, "--out",
                   str(flagged), "--threads", "2") == EXIT_OK
    err = capsys.readouterr().err
    assert err.count("warning: --threads is retired and ignored; "
                     "sweeps run in one process\n") == 1
    assert (plain / "grid.csv").read_bytes() == (
        flagged / "grid.csv").read_bytes()


def test_config_errors_exit_with_config_code(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[cavity]\nnonsense = 1\n", encoding="utf-8")
    code = run_cli("modes", "--config", str(cfg), "--out",
                   str(tmp_path / "x"))
    assert code == EXIT_CONFIG
    assert "nonsense" in capsys.readouterr().err


def test_out_of_range_chi_grid_exits_with_config_code(tmp_path, capsys):
    cfg = tmp_path / "wide.ini"
    cfg.write_text("[sweep]\nchi_start = -0.5\nchi_stop = 0.5\n",
                   encoding="utf-8")
    out = tmp_path / "x"
    assert run_cli("sweep-chi", "--config", str(cfg), "--out",
                   str(out)) == EXIT_CONFIG
    assert "chi grid endpoint" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "[medium]\ntheta_deg = 1e6\n",
    "[sweep]\nsensitivity_epsilon = 1\n",
    "[sweep]\nsensitivity_step = 0\n",
])
def test_parse_time_rejections_exit_with_config_code(tmp_path, text):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "x"
    assert run_cli("sensitivity", "--config", str(cfg), "--out",
                   str(out)) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("command, text", [
    ("sweep-grid", "[sweep]\ngrid_pump_points = 0\n"),
    ("sweep-chi", "[sweep]\nscales = 1, 0\n"),
    ("sweep-chi", "[sweep]\nscales = -1\n"),
    ("sweep-chi", "[sweep]\nscales = nan\n"),
    ("sweep-pump", "[cavity]\nkappa_override = inf Hz\n"),
    ("sweep-pump", "[dye]\nOmega0 = inf Hz\n"),
    ("sweep-pump", "[dye]\nlinewidth = inf Hz\n"),
    ("sweep-pump", "[sweep]\npump_stop = inf Hz\n"),
    ("sweep-pump", "[dye]\nM = inf\n"),
    ("sweep-pump", "[solver]\nabs_tol = inf Hz\n"),
    ("sweep-chi", "[sweep]\nchi_points = 0\n"),
    ("modes", "[cavity]\nl_max = +-5\n"),
    ("sweep-pump", "[dye]\ngamma_down = inf Hz\n"),
    ("sweep-pump", "[dye]\ngamma_up_pump = inf Hz\n"),
    ("sweep-pump", "[dye]\ngamma_down0 = 1e300 Hz\n"),
    ("sweep-chi", "[sweep]\nscales = 1, 1e281\n"),
    ("modes", "[cavity]\nmirror_loss = 0\nkappa_override = none\n"),
    ("sweep-pump", "[cavity]\nmirror_loss = 0\nkappa_override = none\n"),
    # a mirror-loss rate that underflows to zero leaves no decay rate either
    *[(command, UNDERFLOW_LOSS)
      for command in ("modes", "threshold", "sweep-pump")],
    # the mode ladder would raise on a decay rate of zero or below
    *[(command, f"[cavity]\nkappa_override = {value}\n")
      for command in ("threshold", "modes", "sweep-pump")
      for value in ("0 Hz", "-1 Hz")],
])
def test_sweep_inputs_that_would_crash_exit_with_config_code(tmp_path,
                                                             command, text):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "x"
    assert run_cli(command, "--config", str(cfg), "--out",
                   str(out)) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:mirror_separation/mirror_radius")
@pytest.mark.parametrize("text", [
    "[dye]\nlinewidth = 1e-170 Hz\n",
    "[dye]\nOmega0 = 1e160 THz\n",
    "[dye]\nDeltaOmega = 1e160 THz\n",
    "[cavity]\nmirror_radius = 1e-300 m\n",
])
@pytest.mark.parametrize("command", ["sweep-pump", "sweep-grid", "sweep-chi",
                                     "sensitivity", "spectrum", "threshold"])
def test_inputs_that_leave_a_mode_without_a_rate_exit_with_config_code(
        tmp_path, capsys, command, text):
    # each one parses, but some mode's emission or absorption rate
    # rounds to zero; the run must stop before it creates --out
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "x"
    assert run_cli(command, "--config", str(cfg), "--out",
                   str(out)) == EXIT_CONFIG
    assert "must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_a_fault_inside_a_command_is_not_an_io_error(tmp_path, monkeypatch,
                                                     capsys):
    def broken(args, config, out_dir):
        raise RuntimeError("not an I/O problem")

    monkeypatch.setitem(cli._COMMANDS, "threshold", broken)
    out = tmp_path / "x"
    with pytest.raises(RuntimeError, match="not an I/O problem"):
        run_cli("threshold", "--out", str(out))
    assert "I/O error" not in capsys.readouterr().err
    # the lock is released on the way out
    assert not (out / ".polarbec.lock").exists()


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    assert run_cli("modes", "--config", str(tmp_path / "ghost.ini"),
                   "--out", str(tmp_path / "x")) == EXIT_CONFIG
    # a file that is not UTF-8 is named in the message as well
    garbled = tmp_path / "garbled.ini"
    garbled.write_bytes(b"[cavity]\nl_max = \xff30\n")
    capsys.readouterr()
    assert run_cli("modes", "--config", str(garbled),
                   "--out", str(tmp_path / "y")) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"cannot read config {str(garbled)!r}" in err
    assert "can't decode byte 0xff" in err


def test_locked_output_directory_is_refused(tmp_path):
    out = tmp_path / "busy"
    out.mkdir()
    (out / ".polarbec.lock").write_text("pid 0\n")
    assert run_cli("threshold", "--out", str(out)) == EXIT_IO
    # the foreign lock must survive the refusal
    assert (out / ".polarbec.lock").exists()


def test_lock_is_released_after_a_run(tmp_path):
    out = tmp_path / "free"
    assert run_cli("threshold", "--out", str(out)) == EXIT_OK
    assert not (out / ".polarbec.lock").exists()


def test_version_flag_reports_and_exits():
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
