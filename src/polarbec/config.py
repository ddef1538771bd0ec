"""Run configuration: INI parsing, unit handling, defaults, round-trip.

A run is described by one UTF-8 INI file with fixed sections.  Every
dimensioned value carries a unit suffix ("1.46 um", "1 GHz"); a bare
number on a dimensioned field is rejected so silent unit mistakes
cannot happen.  Frequency-kind values are angular (THz means 1e12
rad/s), rate-kind values are 1/s; both use the same Hz-family suffixes.
Unknown sections or keys are errors, not warnings; the one exception
is the retired solver and sweep keys that manifests of earlier versions
carry, which are ignored with a warning so those manifests still
replay.  No environment variables are consulted.

The [medium] section takes exactly one of two descriptions:

* explicit indices:  n_L and n_R;
* chiral sample:     theta_deg, molar_mass_u, alpha, epsilon, dominant,
                     number_density, wavelength, base_index
  (the index splitting is then derived from the sample).

parse_config resolves everything to SI floats and validated parameter
objects; render_config emits a canonical resolved INI that parses back
to the identical configuration, which is what the run manifest embeds
for byte-for-byte replay.
"""

from __future__ import annotations

import configparser
import io
import math
import warnings
from dataclasses import dataclass

from .cavity import CavityParams, MediumIndices
from .chiral import ChiralSample, SolventParams, chi_from_sample, refractive_indices
from .dye import DyeParams
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


# --- schema ---------------------------------------------------------------

_SCHEMA = {
    "cavity": {
        "mirror_radius": "length",
        "mirror_separation": "length",
        "longitudinal_index": "int",
        "mirror_loss": "float",
        "l_max": "int",
        "kappa_override": "rate?",     # "none" selects the mirror-loss formula
    },
    "medium": {
        "n_L": "float",
        "n_R": "float",
        "theta_deg": "float",
        "molar_mass_u": "float",
        "alpha": "float",
        "epsilon": "float",
        "dominant": "choice:L,R",
        "number_density": "density",
        "wavelength": "length",
        "base_index": "float",
    },
    "dye": {
        "Omega0": "frequency",
        "DeltaOmega": "frequency",
        "linewidth": "frequency",
        "gamma_down0": "rate",
        "gamma_up0": "rate",
        "gamma_down": "rate",
        "gamma_up_pump": "rate",
        "M": "float",
    },
    "solver": {
        "mode": "choice:" + ",".join(SOLVER_MODES),
        "abs_tol": "rate?",            # "auto" resolves against min(kappa)
        "max_iters": "int",
    },
    "sweep": {
        "pump_start": "rate",
        "pump_stop": "rate",
        "pump_points": "int",
        "pump_spacing": "choice:log,linear",
        "chi_start": "float",
        "chi_stop": "float",
        "chi_points": "int",
        "chi_spacing": "choice:log,linear",
        "grid_pump_points": "int",
        "scales": "floatlist",
        "sensitivity_epsilon": "float",
        "sensitivity_step": "float",
    },
    "output": {
        "directory": "str",
    },
}

# keys that earlier versions wrote into every manifest; they no longer
# change anything and are accepted (with a warning) only for replay
_RETIRED = {
    "solver": ("rel_tol", "max_time", "damping"),
    "sweep": ("warm_start",),
}

_INDEX_KEYS = ("n_L", "n_R")
_SAMPLE_KEYS = ("theta_deg", "molar_mass_u", "alpha", "epsilon", "dominant",
                "number_density", "wavelength", "base_index")

_DEFAULTS = {
    "cavity": {
        "mirror_radius": "1 m",
        "mirror_separation": "1.46 um",
        "longitudinal_index": "7",
        "mirror_loss": "0.01",
        "l_max": "200",
        "kappa_override": "100 MHz",
    },
    "medium": {
        "theta_deg": "44",
        "molar_mass_u": "180",
        "alpha": "0.4",
        "epsilon": "0.5",
        "dominant": "R",
        "number_density": "1.488e28 /m^3",
        "wavelength": "546 nm",
        "base_index": "1.34",
    },
    "dye": {
        "Omega0": "3456 THz",
        "DeltaOmega": "4.18 THz",
        "linewidth": "50 THz",
        "gamma_down0": "10 Hz",
        "gamma_up0": "10 Hz",
        "gamma_down": "1 GHz",
        "gamma_up_pump": "10 GHz",
        "M": "1e9",
    },
    "solver": {
        "mode": "fixed_point",
        "abs_tol": "auto",
        "max_iters": "200000",
    },
    "sweep": {
        "pump_start": "100 MHz",
        "pump_stop": "10 GHz",
        "pump_points": "100",
        "pump_spacing": "log",
        "chi_start": "-3e-5",
        "chi_stop": "3e-5",
        "chi_points": "61",
        "chi_spacing": "linear",
        "grid_pump_points": "50",
        "scales": "0.5, 1, 2, 10",
        "sensitivity_epsilon": "0.5",
        "sensitivity_step": "0.01",
    },
    "output": {
        "directory": "out",
    },
}


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
    """Fully resolved run description (SI values, validated objects)."""

    cavity: CavityParams
    l_max: int
    kappa_override: float | None
    medium_kind: str                      # 'indices' or 'sample'
    indices: MediumIndices | None
    sample: ChiralSample | None
    solvent: SolventParams | None
    dye: DyeParams
    solver: SolverConfig
    sweep: SweepSettings
    output_dir: str
    canonical_text: str = ""

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
        from dataclasses import replace
        return chi_from_sample(replace(self.sample, epsilon=1.0), self.solvent)


# --- value parsing ----------------------------------------------------------


def _parse_number(field: str, token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ConfigError(f"{field}: cannot read {token!r} as a number") from None


def _parse_value(field: str, kind: str, raw: str):
    raw = raw.strip()
    optional = kind.endswith("?")
    if optional:
        kind = kind[:-1]
        if raw.lower() in ("none", "auto"):
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
        return _parse_number(field, number) * table[unit]
    if kind == "float":
        if len(raw.split()) != 1:
            raise ConfigError(
                f"{field}: dimensionless value must be a bare number, "
                f"got {raw!r}")
        return _parse_number(field, raw)
    if kind == "int":
        if not raw.lstrip("+-").isdigit():
            raise ConfigError(f"{field}: expected an integer, got {raw!r}")
        return int(raw)
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
    optional = kind.endswith("?")
    if optional:
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

    Missing keys take their defaults; unknown sections or keys, mixed
    medium descriptions, malformed quantities, chi grids whose endpoints
    give no valid index pair, a chiral sample that gives none at its own
    excess, a sensitivity excess or step outside (0, 1), a grid pump
    count below 1 and an absorption scale that does not keep
    gamma_up0 * scale positive and finite are errors.
    Retired keys are ignored with one warning each.
    """
    parser = _read_ini(text)

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key in _RETIRED.get(section, ()):
                warnings.warn(f"[{section}] {key} is retired and ignored",
                              stacklevel=2)
            elif key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    # medium: exactly one of the two descriptions
    medium_raw = dict(parser["medium"]) if parser.has_section("medium") else {}
    has_index = any(k in medium_raw for k in _INDEX_KEYS)
    has_sample = any(k in medium_raw for k in _SAMPLE_KEYS)
    if has_index and has_sample:
        raise ConfigError(
            "[medium] must give either explicit indices (n_L, n_R) or a "
            "chiral sample description, not both")
    medium_kind = "indices" if has_index else "sample"

    def resolve(section: str, key: str):
        kind = _SCHEMA[section][key]
        if parser.has_section(section) and key in parser[section]:
            raw = parser[section][key]
        else:
            raw = _DEFAULTS[section].get(key)
            if raw is None:
                raise ConfigError(f"missing required key {key} in [{section}]")
        return _parse_value(f"[{section}] {key}", kind, raw)

    try:
        cavity = CavityParams(
            mirror_radius=resolve("cavity", "mirror_radius"),
            mirror_separation=resolve("cavity", "mirror_separation"),
            longitudinal_index=resolve("cavity", "longitudinal_index"),
            mirror_loss=resolve("cavity", "mirror_loss"),
        )
        l_max = resolve("cavity", "l_max")
        kappa_override = resolve("cavity", "kappa_override")

        if medium_kind == "indices":
            for key in _INDEX_KEYS:
                if key not in medium_raw:
                    raise ConfigError(
                        f"[medium] explicit-index description needs {key}")
            indices = MediumIndices(
                n_L=_parse_value("[medium] n_L", "float", medium_raw["n_L"]),
                n_R=_parse_value("[medium] n_R", "float", medium_raw["n_R"]),
            )
            sample = None
            solvent = None
        else:
            indices = None
            sample = ChiralSample(
                theta_deg=resolve("medium", "theta_deg"),
                molar_mass_u=resolve("medium", "molar_mass_u"),
                alpha=resolve("medium", "alpha"),
                epsilon=resolve("medium", "epsilon"),
                dominant=resolve("medium", "dominant"),
            )
            solvent = SolventParams(
                number_density=resolve("medium", "number_density"),
                base_index=resolve("medium", "base_index"),
                wavelength=resolve("medium", "wavelength"),
            )

        dye = DyeParams(
            Omega0=resolve("dye", "Omega0"),
            DeltaOmega=resolve("dye", "DeltaOmega"),
            linewidth=resolve("dye", "linewidth"),
            gamma_down0=resolve("dye", "gamma_down0"),
            gamma_up0=resolve("dye", "gamma_up0"),
            gamma_down=resolve("dye", "gamma_down"),
            gamma_up_pump=resolve("dye", "gamma_up_pump"),
            M=resolve("dye", "M"),
        )
        solver = SolverConfig(
            mode=resolve("solver", "mode"),
            abs_tol=resolve("solver", "abs_tol"),
            max_iters=resolve("solver", "max_iters"),
        )
        sweep = SweepSettings(
            pump=SweepSpec(
                axis="pump",
                start=resolve("sweep", "pump_start"),
                stop=resolve("sweep", "pump_stop"),
                points=resolve("sweep", "pump_points"),
                spacing=resolve("sweep", "pump_spacing"),
            ),
            chi=SweepSpec(
                axis="chi",
                start=resolve("sweep", "chi_start"),
                stop=resolve("sweep", "chi_stop"),
                points=resolve("sweep", "chi_points"),
                spacing=resolve("sweep", "chi_spacing"),
            ),
            grid_pump_points=resolve("sweep", "grid_pump_points"),
            scales=resolve("sweep", "scales"),
            sensitivity_epsilon=resolve("sweep", "sensitivity_epsilon"),
            sensitivity_step=resolve("sweep", "sensitivity_step"),
        )
        if l_max < 0:
            raise ConfigError(f"[cavity] l_max must be >= 0, got {l_max}")
        if sweep.grid_pump_points < 1:
            raise ConfigError(f"[sweep] grid_pump_points must be >= 1, got "
                              f"{sweep.grid_pump_points}")
        for scale in sweep.scales:
            # the chi sweep runs at gamma_up0 * scale, which DyeParams
            # needs positive; a finite product also keeps the rates finite
            if not 0.0 < dye.gamma_up0 * scale < math.inf:
                raise ConfigError(
                    f"[sweep] scales entry {scale!r} must keep [dye] "
                    f"gamma_up0 * scale positive and finite")
        for key in ("sensitivity_epsilon", "sensitivity_step"):
            value = getattr(sweep, key)
            if not 0.0 < value < 1.0:
                raise ConfigError(
                    f"[sweep] {key} must lie in (0, 1), got {value!r}")
        output_dir = resolve("output", "directory")
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    config = RunConfig(
        cavity=cavity, l_max=l_max, kappa_override=kappa_override,
        medium_kind=medium_kind, indices=indices, sample=sample,
        solvent=solvent, dye=dye, solver=solver, sweep=sweep,
        output_dir=output_dir)
    for chi in (sweep.chi.start, sweep.chi.stop):
        try:
            refractive_indices(config.base_index(), chi)
        except ValueError as exc:
            raise ConfigError(
                f"[sweep] chi grid endpoint {chi!r}: {exc}") from None
    if medium_kind == "sample":
        try:
            config.medium_indices()
        except ValueError as exc:
            raise ConfigError(
                f"[medium] the chiral sample gives no valid index pair at "
                f"epsilon = {sample.epsilon!r}: {exc}") from None
    object.__setattr__(config, "canonical_text", render_config(config))
    return config


def render_config(config: RunConfig) -> str:
    """Canonical resolved INI; parse_config(render_config(c)) == c."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str

    def put(section: str, key: str, value):
        if not parser.has_section(section):
            parser.add_section(section)
        parser[section][key] = _render_value(_SCHEMA[section][key], value)

    put("cavity", "mirror_radius", config.cavity.mirror_radius)
    put("cavity", "mirror_separation", config.cavity.mirror_separation)
    put("cavity", "longitudinal_index", config.cavity.longitudinal_index)
    put("cavity", "mirror_loss", config.cavity.mirror_loss)
    put("cavity", "l_max", config.l_max)
    put("cavity", "kappa_override", config.kappa_override)

    if config.medium_kind == "indices":
        put("medium", "n_L", config.indices.n_L)
        put("medium", "n_R", config.indices.n_R)
    else:
        put("medium", "theta_deg", config.sample.theta_deg)
        put("medium", "molar_mass_u", config.sample.molar_mass_u)
        put("medium", "alpha", config.sample.alpha)
        put("medium", "epsilon", config.sample.epsilon)
        put("medium", "dominant", config.sample.dominant)
        put("medium", "number_density", config.solvent.number_density)
        put("medium", "wavelength", config.solvent.wavelength)
        put("medium", "base_index", config.solvent.base_index)

    put("dye", "Omega0", config.dye.Omega0)
    put("dye", "DeltaOmega", config.dye.DeltaOmega)
    put("dye", "linewidth", config.dye.linewidth)
    put("dye", "gamma_down0", config.dye.gamma_down0)
    put("dye", "gamma_up0", config.dye.gamma_up0)
    put("dye", "gamma_down", config.dye.gamma_down)
    put("dye", "gamma_up_pump", config.dye.gamma_up_pump)
    put("dye", "M", config.dye.M)

    put("solver", "mode", config.solver.mode)
    put("solver", "abs_tol", config.solver.abs_tol)
    put("solver", "max_iters", config.solver.max_iters)

    put("sweep", "pump_start", config.sweep.pump.start)
    put("sweep", "pump_stop", config.sweep.pump.stop)
    put("sweep", "pump_points", config.sweep.pump.points)
    put("sweep", "pump_spacing", config.sweep.pump.spacing)
    put("sweep", "chi_start", config.sweep.chi.start)
    put("sweep", "chi_stop", config.sweep.chi.stop)
    put("sweep", "chi_points", config.sweep.chi.points)
    put("sweep", "chi_spacing", config.sweep.chi.spacing)
    put("sweep", "grid_pump_points", config.sweep.grid_pump_points)
    put("sweep", "scales", config.sweep.scales)
    put("sweep", "sensitivity_epsilon", config.sweep.sensitivity_epsilon)
    put("sweep", "sensitivity_step", config.sweep.sensitivity_step)

    put("output", "directory", config.output_dir)

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
    for section, keys in _DEFAULTS.items():
        lines.append(f"[{section}]")
        for key, value in keys.items():
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def default_config() -> RunConfig:
    """The resolved default configuration."""
    return parse_config(default_config_text())
