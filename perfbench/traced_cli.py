"""Run the polarbec CLI with spans around the calls into each layer.

    python3 perfbench/traced_cli.py TRACE.json <polarbec CLI arguments>

Before the CLI starts, every public function listed in LAYERS is
replaced by a wrapper that records a span (name, start, end, parent
span) in memory.  The wrapper is installed under every name the
function is bound to inside the package, because polarbec.sweeps and
polarbec.cli import these functions by name.  Two hot methods of the
internal rate system are counted instead of spanned:
RateSystem.totals (one per drift evaluation) and RateSystem.solve (one
per exact solve).  The spans and counters are written to TRACE.json
when the CLI returns; the process exits with the CLI's exit code.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import polarbec.cli
from polarbec import analytic, cavity, config, dye, dynamics, runio, sweeps

# (span name, defining module, public function)
LAYERS = [
    ("config.parse_config", config, "parse_config"),
    ("cavity.build_mode_set", cavity, "build_mode_set"),
    ("dye.build_rate_table", dye, "build_rate_table"),
    ("dynamics.find_steady_state", dynamics, "find_steady_state"),
    ("analytic.pinned_pair", analytic, "pinned_pair"),
    ("sweeps.stokes_s3", sweeps, "stokes_s3"),
    ("sweeps.driver", sweeps, "pump_sweep"),
    ("sweeps.driver", sweeps, "chi_sweep"),
    ("sweeps.driver", sweeps, "grid_sweep"),
    ("runio.write_csv", runio, "write_csv"),
    ("runio.write_manifest", runio, "write_manifest"),
]


class Tracer:
    """In-memory span list, open-span stack and event counters."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts = {"drift_evals": 0, "exact_solves": 0,
                       "modes_built": 0, "csv_bytes": 0}

    def span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            record = [name, 0.0, 0.0, parent]
            self.spans.append(record)
            self.stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper


def _rebind(original, replacement):
    """Point every package-level name bound to `original` at `replacement`."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "polarbec"
                                  or name.startswith("polarbec.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    def count_modes(args, modes):
        tracer.counts["modes_built"] += len(modes)

    def count_csv(args, result):
        tracer.counts["csv_bytes"] += os.path.getsize(args[0])

    after = {"build_mode_set": count_modes, "write_csv": count_csv}
    for span_name, module, attr in LAYERS:
        original = getattr(module, attr)
        _rebind(original, tracer.span(span_name, original, after.get(attr)))

    rs = dynamics.RateSystem
    rs.totals = tracer.counter("drift_evals", rs.totals)
    rs.solve = tracer.counter("exact_solves", rs.solve)
    rs.from_tables = classmethod(tracer.span(
        "dynamics.from_tables", rs.__dict__["from_tables"].__func__))


def main() -> int:
    trace_path, cli_args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    main_fn = tracer.span("cli.main", polarbec.cli.main)
    try:
        rc = main_fn(cli_args)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
