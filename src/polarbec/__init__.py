"""Polarised photon condensates in chiral media: steady-state simulator.

A dye-filled microcavity far above its condensation threshold collapses
into the polarisation mode family with the lower effective threshold.
A chiral medium splits the refractive index seen by the two circular
polarisations, so which family wins (and hence the sign of the Stokes
parameter S3 of the emitted light) reads out the dominant enantiomer,
with the magnitude of the splitting set by the enantiomeric excess.

Modules: cavity (polarised mode ladder), chiral (index splitting from a
sample description), dye (emission/absorption rate profiles), dynamics
(rate equations and steady-state solvers), analytic (single-mode laws
and the frozen-loser approximation), sweeps (observables and parameter
scans), config / runio / cli (run description and deterministic I/O).
"""

__version__ = "0.1.0"

from .cavity import (CavityParams, MediumIndices, ModeLadder,
                     build_mode_set, cavity_decay, cutoff_frequency,
                     effective_mass, lateral_frequency, mode_ladder)
from .chiral import (ChiralSample, SolventParams, chi_from_sample, chi_quick,
                     refractive_indices, rotation_strength)
from .dye import (DyeParams, RateTable, absorption_rate, build_rate_table,
                  emission_rate)
from .dynamics import (CrosscheckError, SolverConfig, SteadyState,
                       adiabatic_derivative, find_steady_state,
                       full_derivatives, total_rates)
from .analytic import (ThresholdReport, effective_threshold,
                       ground_thresholds, pinned_pair, single_mode_exact,
                       single_mode_highQ, threshold_pump)
from .sweeps import (Observables, SensitivityReport, SweepResult, SweepSpec,
                     chi_sweep, grid_sweep, pump_sweep, sensitivity,
                     stokes_s3)
from .config import RunConfig, ConfigError, default_config, parse_config

__all__ = [
    "__version__",
    "CavityParams", "MediumIndices", "ModeLadder", "build_mode_set",
    "cavity_decay", "cutoff_frequency", "effective_mass",
    "lateral_frequency", "mode_ladder",
    "ChiralSample", "SolventParams", "chi_from_sample", "chi_quick",
    "refractive_indices", "rotation_strength",
    "DyeParams", "RateTable", "absorption_rate", "build_rate_table",
    "emission_rate",
    "CrosscheckError", "SolverConfig", "SteadyState",
    "adiabatic_derivative", "find_steady_state", "full_derivatives",
    "total_rates",
    "ThresholdReport", "effective_threshold", "ground_thresholds",
    "pinned_pair", "single_mode_exact", "single_mode_highQ",
    "threshold_pump",
    "Observables", "SensitivityReport", "SweepResult", "SweepSpec",
    "chi_sweep", "grid_sweep", "pump_sweep", "sensitivity", "stokes_s3",
    "RunConfig", "ConfigError", "default_config", "parse_config",
]
