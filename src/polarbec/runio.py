"""Deterministic run outputs: CSV tables, JSON manifest, plot scripts.

Every table is a dict of equal-length named columns, written as
RFC-4180-style CSV (comma separated, CRLF line endings, header row),
each cell in its column's one text form: true/false for bool dtype,
fixed significant digits for floats, str for the rest.  So repeated
runs of the same configuration produce byte identical files.  Each run
directory gets a manifest.json recording the resolved configuration
text, tool and library versions, convergence summary and timings; the
embedded configuration is sufficient to replay the run.  A lock file
makes sure a single process owns an output directory at a time.
"""

from __future__ import annotations

import csv
import json
import os
import platform
from contextlib import contextmanager

import numpy as np

from . import __version__
from .config import RunConfig

# canonical float rendering of all tabular output
FLOAT_FORMAT = "%.12g"

LOCK_NAME = ".polarbec.lock"


def _cell_format(column: np.ndarray):
    """Canonical text form of the cells of one column, by its dtype."""
    if column.dtype == bool:
        return lambda v: "true" if v else "false"
    if column.dtype.kind == "f":
        return FLOAT_FORMAT.__mod__
    return str


def write_csv(path: str, columns: dict) -> None:
    """One row per entry of the equal-length arrays in `columns`."""
    arrays = [np.asarray(a) for a in columns.values()]
    if len({len(a) for a in arrays}) > 1:
        raise ValueError("CSV columns differ in length")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n",
                            quoting=csv.QUOTE_MINIMAL)
        writer.writerow(columns)
        writer.writerows(zip(*(map(_cell_format(a), a) for a in arrays)))


def write_manifest(path: str, manifest: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def build_manifest(command: str, config: RunConfig, outputs: list[str],
                   meta: dict | None = None) -> dict:
    """Everything needed to audit and replay a run."""
    manifest = {
        "tool": "polarbec",
        "version": __version__,
        "command": command,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "config_text": config.canonical_text,
        "outputs": sorted(outputs),
    }
    if meta:
        manifest["run"] = meta
    return manifest


def config_text_from_manifest(text: str) -> str:
    """Extract the embedded configuration from a manifest.json payload."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"manifest does not parse as JSON: {exc}") from None
    text = payload.get("config_text") if isinstance(payload, dict) else None
    if not isinstance(text, str):
        raise ValueError("manifest carries no config_text string")
    return text


class OutputLockError(RuntimeError):
    """Another run holds the lock on an output directory."""


@contextmanager
def output_lock(directory: str):
    """Exclusive ownership of an output directory for the run's duration."""
    os.makedirs(directory, exist_ok=True)
    lock_path = os.path.join(directory, LOCK_NAME)
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise OutputLockError(
            f"output directory {directory!r} is locked by another run; "
            f"remove {LOCK_NAME} if that run is gone") from None
    try:
        os.write(fd, f"{os.getpid()}\n".encode())
        os.close(fd)
        yield directory
    finally:
        try:
            os.unlink(lock_path)
        except FileNotFoundError:
            pass


# --- gnuplot companions ----------------------------------------------------


def gnuplot_pump_sweep(csv_name: str) -> str:
    return f"""# occupation totals and Stokes S3 against pump rate
set datafile separator ","
set key left top
set logscale x
set multiplot layout 2,1
set ylabel "occupation totals"
set logscale y
plot "{csv_name}" skip 1 using 1:2 with lines title "N_L total", \\
     "{csv_name}" skip 1 using 1:3 with lines title "N_R total"
unset logscale y
set ylabel "S3"
set yrange [-1.05:1.05]
set xlabel "pump rate (1/s)"
plot "{csv_name}" skip 1 using 1:6 with lines title "S3", \\
     "{csv_name}" skip 1 using 1:8 with lines dashtype 2 title "S3 pinned"
unset multiplot
"""


def gnuplot_chi_sweep(csv_name: str, scales) -> str:
    plots = ", \\\n     ".join(
        f'"{csv_name}" skip 1 using ($1=={s:g}?$2:1/0):8 with linespoints '
        f'title "scale {s:g}"' for s in scales)
    return f"""# Stokes S3 against index splitting chi, one curve per scale
set datafile separator ","
set key left top
set xlabel "chi"
set ylabel "S3"
set yrange [-1.05:1.05]
plot {plots}
"""


def gnuplot_grid(csv_name: str, n_chi: int, n_pump: int) -> str:
    return f"""# S3 map over chi and pump
set datafile separator ","
set xlabel "pump rate (1/s)"
set ylabel "chi"
set logscale x
set view map
set palette defined (-1 "blue", 0 "white", 1 "red")
set cbrange [-1:1]
splot "{csv_name}" skip 1 using 2:1:7 with points pt 5 ps 1 palette \\
      title "S3 ({n_chi} chi x {n_pump} pump)"
"""


def gnuplot_spectrum(csv_name: str, markers_name: str) -> str:
    return f"""# dye emission and absorption profiles with cavity mode markers
set datafile separator ","
set key left top
set xlabel "angular frequency (rad/s)"
set ylabel "rate (1/s)"
plot "{csv_name}" skip 1 using 1:2 with lines title "emission", \\
     "{csv_name}" skip 1 using 1:3 with lines title "absorption", \\
     "{markers_name}" skip 1 using 4:5 with points pt 7 ps 0.5 title "modes (emission)"
"""
