"""Run configuration: INI parsing, unit handling, defaults, round-trip.

A run is described by one UTF-8 INI file with fixed sections.  Every
dimensioned value carries a unit suffix ("1.46 um", "1 GHz"); a bare
number on a dimensioned field is rejected so silent unit mistakes
cannot happen.  Frequency-kind values are angular (THz means 1e12
rad/s), rate-kind values are 1/s; both use the same Hz-family suffixes.
Unknown sections or keys are errors, not warnings; the one exception
is the retired solver and sweep keys that manifests of earlier versions
carry, which are ignored with a warning so those manifests still
replay, [solver] abs_tol and max_iters only at their old defaults.  An
optional value reads "none" when absent.  No environment variables are
consulted.

The [medium] section takes exactly one of two descriptions:

* explicit indices:  n_L and n_R;
* chiral sample:     theta_deg, molar_mass_u, alpha, epsilon, dominant,
                     number_density, wavelength, base_index
  (the index splitting is then derived from the sample).

One key table, _KEYS, is the only list of sections, keys, kinds and
defaults; default_config_text() prints it.  Every key has a default
except n_L and n_R, which only the explicit-index route takes and then
needs both of.  parse_config resolves everything to SI floats and
validated parameter objects, filling each parameter dataclass field by
field from the table; render_config walks the same table to emit a
canonical resolved INI that parses back to the identical configuration,
which is what the run manifest embeds for byte-for-byte replay.
"""

from __future__ import annotations

import configparser
import io
import math
import re
import warnings
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .cavity import CavityParams, MediumIndices, ladder_frequencies
from .chiral import ChiralSample, SolventParams, chi_from_sample, refractive_indices
from .dye import DyeParams, absorption_rate, check_rates, emission_rate
from .dynamics import SOLVER_MODES, SolverConfig
from .sweeps import SweepSpec


class ConfigError(ValueError):
    """A configuration file failed to parse or validate."""


# --- unit tables ----------------------------------------------------------

FREQUENCY_UNITS = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9, "THz": 1e12}
LENGTH_UNITS = {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "nm": 1e-9,
                "pm": 1e-12}
DENSITY_UNITS = {"/m^3": 1.0, "/cm^3": 1e6}

_UNIT_TABLES = {
    "frequency": FREQUENCY_UNITS,   # angular frequency, rad/s
    "rate": FREQUENCY_UNITS,        # event rate, 1/s
    "length": LENGTH_UNITS,
    "density": DENSITY_UNITS,
}

_BASE_UNIT = {"frequency": "Hz", "rate": "Hz", "length": "m",
              "density": "/m^3"}


# --- key table ------------------------------------------------------------

# The one list of configuration keys: section -> key -> (kind, default).
# Parsing, the canonical text and the default file all walk it in this
# order.  A default of None marks a key without one: n_L and n_R, which
# only the explicit-index description of [medium] takes.
_KEYS = {
    "cavity": {
        "mirror_radius": ("length", "1 m"),
        "mirror_separation": ("length", "1.46 um"),
        "longitudinal_index": ("int", "7"),
        "mirror_loss": ("float", "0.01"),
        "l_max": ("int", "200"),
        # "none" selects the mirror-loss formula
        "kappa_override": ("rate?", "100 MHz"),
    },
    "medium": {
        "n_L": ("float", None),
        "n_R": ("float", None),
        "theta_deg": ("float", "44"),
        "molar_mass_u": ("float", "180"),
        "alpha": ("float", "0.4"),
        "epsilon": ("float", "0.5"),
        "dominant": ("choice:L,R", "R"),
        "number_density": ("density", "1.488e28 /m^3"),
        "wavelength": ("length", "546 nm"),
        "base_index": ("float", "1.34"),
    },
    "dye": {
        "Omega0": ("frequency", "3456 THz"),
        "DeltaOmega": ("frequency", "4.18 THz"),
        "linewidth": ("frequency", "50 THz"),
        "gamma_down0": ("rate", "10 Hz"),
        "gamma_up0": ("rate", "10 Hz"),
        "gamma_down": ("rate", "1 GHz"),
        "gamma_up_pump": ("rate", "10 GHz"),
        "M": ("float", "1e9"),
    },
    "solver": {
        "mode": ("choice:" + ",".join(SOLVER_MODES), "fixed_point"),
    },
    "sweep": {
        "pump_start": ("rate", "100 MHz"),
        "pump_stop": ("rate", "10 GHz"),
        "pump_points": ("int", "100"),
        "pump_spacing": ("choice:log,linear", "log"),
        "chi_start": ("float", "-3e-5"),
        "chi_stop": ("float", "3e-5"),
        "chi_points": ("int", "61"),
        "chi_spacing": ("choice:log,linear", "linear"),
        "grid_pump_points": ("int", "50"),
        "scales": ("floatlist", "0.5, 1, 2, 10"),
        "sensitivity_epsilon": ("float", "0.5"),
        "sensitivity_step": ("float", "0.01"),
    },
    "output": {
        "directory": ("str", "out"),
    },
}

# keys that earlier versions wrote into every manifest; they no longer
# change anything and are accepted (with a warning) only for replay, at
# the values listed where there are any: the defaults those versions wrote
_RETIRED = {
    "solver": {"rel_tol": None, "max_time": None, "damping": None,
               "abs_tol": ("none", "auto"), "max_iters": ("200000",)},
    "sweep": {"warm_start": None},
}

# the explicit-index description of [medium]; its other keys describe
# the chiral sample
_INDEX_KEYS = tuple(key for key, (_, default) in _KEYS["medium"].items()
                    if default is None)


# --- resolved configuration ------------------------------------------------


@dataclass(frozen=True)
class SweepSettings:
    """Resolved sweep grids and sensitivity operating point."""

    pump: SweepSpec
    chi: SweepSpec
    grid_pump_points: int
    scales: tuple[float, ...]
    sensitivity_epsilon: float
    sensitivity_step: float


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description (SI values, validated objects).

    Either `indices` or `sample` and `solvent` describe the medium.
    """

    cavity: CavityParams
    l_max: int
    kappa_override: float | None
    indices: MediumIndices | None
    sample: ChiralSample | None
    solvent: SolventParams | None
    dye: DyeParams
    solver: SolverConfig
    sweep: SweepSettings
    output_dir: str

    @property
    def medium_kind(self) -> str:
        """'sample' for the chiral-sample description, else 'indices'."""
        return "sample" if self.indices is None else "indices"

    @cached_property
    def canonical_text(self) -> str:
        """render_config(self), rendered on first use."""
        return render_config(self)

    def medium_indices(self) -> MediumIndices:
        """The index pair the run operates at."""
        if self.medium_kind == "indices":
            return self.indices
        chi = chi_from_sample(self.sample, self.solvent)
        return refractive_indices(self.solvent.base_index, chi)

    def base_index(self) -> float:
        if self.medium_kind == "sample":
            return self.solvent.base_index
        return 0.5 * (self.indices.n_L + self.indices.n_R)

    def chi_per_epsilon(self) -> float | None:
        """Signed chi at full excess, or None on the explicit-index route."""
        if self.medium_kind != "sample":
            return None
        return chi_from_sample(replace(self.sample, epsilon=1.0), self.solvent)


# --- value parsing ----------------------------------------------------------


def _parse_number(field: str, token: str, scale: float = 1.0) -> float:
    """`token` times its unit `scale`; nan and +-inf are config errors."""
    try:
        value = float(token) * scale
    except ValueError:
        raise ConfigError(f"{field}: cannot read {token!r} as a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"{field}: {token!r} is not a finite number")
    return value


def _parse_value(field: str, kind: str, raw: str):
    raw = raw.strip()
    if kind.endswith("?"):
        kind = kind[:-1]
        if raw.lower() == "none":
            return None
    if kind in _UNIT_TABLES:
        parts = raw.split()
        table = _UNIT_TABLES[kind]
        if len(parts) == 1:
            raise ConfigError(
                f"{field}: dimensioned value {raw!r} needs a unit suffix "
                f"(one of {', '.join(table)})")
        if len(parts) != 2:
            raise ConfigError(f"{field}: cannot parse quantity {raw!r}")
        number, unit = parts
        if unit not in table:
            raise ConfigError(
                f"{field}: unknown unit {unit!r} (expected one of "
                f"{', '.join(table)})")
        return _parse_number(field, number, table[unit])
    if kind == "float":
        if len(raw.split()) != 1:
            raise ConfigError(
                f"{field}: dimensionless value must be a bare number, "
                f"got {raw!r}")
        return _parse_number(field, raw)
    if kind == "int":
        if not re.fullmatch(r"[+-]?[0-9]+", raw):
            raise ConfigError(f"{field}: expected an integer, got {raw!r}")
        return _checked(field, int, raw)
    if kind.startswith("choice:"):
        choices = kind.split(":", 1)[1].split(",")
        if raw not in choices:
            raise ConfigError(
                f"{field}: expected one of {', '.join(choices)}, got {raw!r}")
        return raw
    if kind == "floatlist":
        try:
            values = tuple(float(tok) for tok in raw.split(",") if tok.strip())
        except ValueError:
            raise ConfigError(
                f"{field}: expected a comma-separated number list, "
                f"got {raw!r}") from None
        if not values:
            raise ConfigError(f"{field}: list must not be empty")
        return values
    if kind == "str":
        return raw
    raise AssertionError(f"unhandled kind {kind!r}")


def _render_value(kind: str, value) -> str:
    if kind.endswith("?"):
        kind = kind[:-1]
        if value is None:
            return "none"
    if kind in _UNIT_TABLES:
        return f"{repr(float(value))} {_BASE_UNIT[kind]}"
    if kind == "float":
        return repr(float(value))
    if kind == "int":
        return str(int(value))
    if kind.startswith("choice:") or kind == "str":
        return str(value)
    if kind == "floatlist":
        return ", ".join(repr(float(v)) for v in value)
    raise AssertionError(f"unhandled kind {kind!r}")


# --- parse / render ----------------------------------------------------------


def _read_ini(text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config does not parse as INI: {exc}") from None
    return parser


def parse_config(text: str) -> RunConfig:
    """Resolve an INI config (or override fragment merged over defaults).

    Missing keys take their defaults.  An input the run could not solve
    is a ConfigError here: unknown sections or keys, mixed medium
    descriptions, malformed or non-finite quantities, values out of
    range, a cavity without photon loss, and, in one pass of
    _check_solvable, scales, chi endpoints, a sample and rates that give
    no valid dye, index pair or ladder.  Retired keys are ignored with
    one warning each (_RETIRED).
    """
    parser = _read_ini(text)

    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")
        retired = _RETIRED.get(section, {})
        for key, raw in parser[section].items():
            if key in retired:
                if retired[key] and raw.strip().lower() not in retired[key]:
                    raise ConfigError(
                        f"[{section}] {key} is retired: {raw.strip()} cannot "
                        f"be reproduced, only {' or '.join(retired[key])}")
                warnings.warn(f"[{section}] {key} is retired and ignored",
                              stacklevel=2)
            elif key not in _KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    # medium: exactly one of the two descriptions
    medium_raw = dict(parser["medium"]) if parser.has_section("medium") else {}
    has_index = any(k in medium_raw for k in _INDEX_KEYS)
    has_sample = any(k not in _INDEX_KEYS for k in medium_raw)
    if has_index and has_sample:
        raise ConfigError(
            "[medium] must give either explicit indices (n_L, n_R) or a "
            "chiral sample description, not both")

    def resolve(section: str, key: str):
        kind, raw = _KEYS[section][key]
        if parser.has_section(section) and key in parser[section]:
            raw = parser[section][key]
        return _parse_value(f"[{section}] {key}", kind, raw)

    def build(cls, section: str, prefix: str = "", **given):
        # one keyword per field, in field order; errors get the key's prefix
        values = {f.name: given[f.name] if f.name in given
                  else resolve(section, prefix + f.name)
                  for f in fields(cls)}
        try:
            return cls(**values)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {prefix}{exc}") from None

    cavity = build(CavityParams, "cavity")
    l_max = resolve("cavity", "l_max")
    kappa_override = resolve("cavity", "kappa_override")
    if cavity.mirror_loss == 0 and kappa_override is None:
        # the ladder needs a positive kappa for every mode
        raise ConfigError("[cavity] mirror_loss = 0 gives the modes no "
                          "decay rate; set [cavity] kappa_override")
    if kappa_override is not None and not kappa_override > 0:
        raise ConfigError(f"[cavity] kappa_override must be positive, "
                          f"got {kappa_override!r} Hz")

    indices = sample = solvent = None
    if has_index:
        for key in _INDEX_KEYS:
            if key not in medium_raw:
                raise ConfigError(
                    f"[medium] explicit-index description needs {key}")
        indices = build(MediumIndices, "medium")
    else:
        sample = build(ChiralSample, "medium")
        solvent = build(SolventParams, "medium")

    dye = build(DyeParams, "dye")
    solver = build(SolverConfig, "solver")
    sweep = build(
        SweepSettings, "sweep",
        pump=build(SweepSpec, "sweep", "pump_"),
        chi=build(SweepSpec, "sweep", "chi_"))
    if l_max < 0:
        raise ConfigError(f"[cavity] l_max must be >= 0, got {l_max}")
    if sweep.grid_pump_points < 1:
        raise ConfigError(f"[sweep] grid_pump_points must be >= 1, got "
                          f"{sweep.grid_pump_points}")
    for key in ("sensitivity_epsilon", "sensitivity_step"):
        value = getattr(sweep, key)
        if not 0.0 < value < 1.0:
            raise ConfigError(
                f"[sweep] {key} must lie in (0, 1), got {value!r}")
    output_dir = resolve("output", "directory")

    config = RunConfig(
        cavity=cavity, l_max=l_max, kappa_override=kappa_override,
        indices=indices, sample=sample, solvent=solvent, dye=dye,
        solver=solver, sweep=sweep, output_dir=output_dir)
    _check_solvable(config)
    return config


def _checked(field: str, make, *args, **kwargs):
    """make(*args, **kwargs); a ValueError or ArithmeticError it raises
    becomes a ConfigError naming `field`."""
    try:
        return make(*args, **kwargs)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{field}: {exc}") from None


def _check_solvable(config: RunConfig) -> None:
    """ConfigError unless every medium and dye the run solves is valid.

    One pass builds each object once, in this order: the dye of each
    [sweep] scales entry (the chi sweep runs with it), the index pair at
    both chi-grid endpoints, the run's own pair, then per medium its
    ladder, on which both rate profiles must be positive and finite for
    every mode: at the run's own medium with the dye, at both endpoints
    with the dye and each scales dye.  A rate is monotone in omega on
    either side of its peak and omega is monotone in chi, so no chi
    inside the grid gives a mode a rate below those at both ends.
    """
    dye, sweep = config.dye, config.sweep
    dyes = [("", dye)] + [
        (f", [sweep] scales entry {scale!r}",
         _checked(f"[sweep] scales entry {scale!r}", replace, dye,
                  gamma_up0=dye.gamma_up0 * scale))
        for scale in sweep.scales]
    media = [
        (f"chi grid endpoint {chi!r}",
         _checked(f"[sweep] chi grid endpoint {chi!r}", refractive_indices,
                  config.base_index(), chi), dyes)
        for chi in (sweep.chi.start, sweep.chi.stop)]
    own = config.indices if config.sample is None else _checked(
        f"[medium] the chiral sample gives no valid index pair at "
        f"epsilon = {config.sample.epsilon!r}", config.medium_indices)
    for where, medium, ladder_dyes in [("the run's medium", own, dyes[:1]),
                                       *media]:
        _check_ladder_rates(config, where, medium, ladder_dyes)


def _check_ladder_rates(config: RunConfig, where: str, medium, dyes) -> None:
    """ConfigError unless each (label, dye) of `dyes` has positive,
    finite rates on every mode of the ladder at `medium`, named `where`."""
    omega = _checked(f"[cavity] gives no mode ladder at {where}",
                     ladder_frequencies, config.cavity, medium, config.l_max)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        gamma_down = emission_rate(config.dye, omega)
        for scaled, d in dyes:
            _checked(f"[dye] on the ladder at {where}{scaled}",
                     check_rates, gamma_down, absorption_rate(d, omega))


def check_excess_range(config: RunConfig) -> None:
    """ConfigError unless the sample's index pair and ladder rates are
    valid at excess 0 and 1, so at every sensitivity bracket between: chi
    is linear in the excess, and the rates monotone (_check_solvable)."""
    for epsilon in (0.0, 1.0):
        at = replace(config, sample=replace(config.sample, epsilon=epsilon))
        where = f"epsilon = {epsilon!r} (sensitivity brackets lie in [0, 1])"
        medium = _checked(f"[medium] the chiral sample gives no valid index "
                          f"pair at {where}", at.medium_indices)
        _check_ladder_rates(config, where, medium, [("", config.dye)])


def _field_values(obj, prefix: str = "") -> dict:
    """{prefix + field name: value} over a dataclass instance's fields."""
    return {prefix + f.name: getattr(obj, f.name) for f in fields(obj)}


def render_config(config: RunConfig) -> str:
    """Canonical resolved INI; parse_config(render_config(c)) == c."""
    sweep = config.sweep
    if config.medium_kind == "indices":
        medium = _field_values(config.indices)
    else:
        medium = {**_field_values(config.sample),
                  **_field_values(config.solvent)}
    # section -> key -> value; entries that are not table keys go unused
    values = {
        "cavity": {**_field_values(config.cavity), "l_max": config.l_max,
                   "kappa_override": config.kappa_override},
        "medium": medium,
        "dye": _field_values(config.dye),
        "solver": _field_values(config.solver),
        "sweep": {**_field_values(sweep), **_field_values(sweep.pump, "pump_"),
                  **_field_values(sweep.chi, "chi_")},
        "output": {"directory": config.output_dir},
    }
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    for section, keys in _KEYS.items():
        parser.add_section(section)
        for key, (kind, _) in keys.items():
            if key in values[section]:
                parser[section][key] = _render_value(kind, values[section][key])
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def default_config_text() -> str:
    """The full default configuration as a commented INI file."""
    lines = [
        "# polarbec run configuration (all values shown are the defaults)",
        "# frequency-kind values are angular: THz means 1e12 rad/s",
        "",
    ]
    for section, keys in _KEYS.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {default}"
                     for key, (_, default) in keys.items() if default is not None)
        lines.append("")
    return "\n".join(lines)


def default_config() -> RunConfig:
    """The resolved default configuration."""
    return parse_config(default_config_text())
