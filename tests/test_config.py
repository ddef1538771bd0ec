"""Config parsing: units, defaults, the two medium routes, canonical text."""

from __future__ import annotations

import pytest

from polarbec import ConfigError, parse_config
from polarbec.config import (
    default_config,
    default_config_text,
    render_config,
)

from conftest import CHI_FULL_EPS1, UNDERFLOW_LOSS


# --- defaults and canonical round trip ----------------------------------------


def test_empty_text_resolves_to_defaults():
    assert parse_config("") == default_config()


def test_default_text_resolves_to_defaults():
    # the shipped, commented default file must parse back to the defaults
    assert parse_config(default_config_text()) == default_config()


def test_render_parse_round_trip():
    config = parse_config("")
    assert parse_config(render_config(config)) == config


def test_round_trip_preserves_overrides():
    text = """
[cavity]
l_max = 50
kappa_override = 2e8 Hz

[dye]
gamma_up_pump = 7.5 GHz

[solver]
mode = both_crosscheck
"""
    config = parse_config(text)
    assert config.l_max == 50
    assert config.kappa_override == 2e8
    assert config.dye.gamma_up_pump == 7.5e9
    assert config.solver.mode == "both_crosscheck"
    assert parse_config(render_config(config)) == config


def test_default_values_land_in_si_units():
    config = parse_config("")
    assert config.cavity.mirror_separation == pytest.approx(1.46e-6)
    assert config.cavity.mirror_radius == 1.0
    assert config.cavity.longitudinal_index == 7
    assert config.l_max == 200
    assert config.kappa_override == 1e8
    assert config.dye.Omega0 == pytest.approx(3456e12)
    assert config.dye.DeltaOmega == pytest.approx(4.18e12)
    assert config.dye.linewidth == pytest.approx(50e12)
    assert config.dye.gamma_down == pytest.approx(1e9)
    assert config.dye.M == 1e9
    assert config.solver.mode == "fixed_point"
    assert config.sweep.pump.points == 100
    assert config.sweep.chi.points == 61
    assert config.sweep.scales == (0.5, 1.0, 2.0, 10.0)
    assert config.output_dir == "out"


# --- canonical text ---------------------------------------------------------------

CANONICAL_CAVITY = """\
[cavity]
mirror_radius = 1.0 m
mirror_separation = 1.46e-06 m
longitudinal_index = 7
mirror_loss = 0.01
l_max = 200
kappa_override = 100000000.0 Hz

"""

CANONICAL_REST = """\
[dye]
Omega0 = 3456000000000000.0 Hz
DeltaOmega = 4179999999999.9995 Hz
linewidth = 50000000000000.0 Hz
gamma_down0 = 10.0 Hz
gamma_up0 = 10.0 Hz
gamma_down = 1000000000.0 Hz
gamma_up_pump = 10000000000.0 Hz
M = 1000000000.0

[solver]
mode = fixed_point

[sweep]
pump_start = 100000000.0 Hz
pump_stop = 10000000000.0 Hz
pump_points = 100
pump_spacing = log
chi_start = -3e-05
chi_stop = 3e-05
chi_points = 61
chi_spacing = linear
grid_pump_points = 50
scales = 0.5, 1.0, 2.0, 10.0
sensitivity_epsilon = 0.5
sensitivity_step = 0.01

[output]
directory = out

"""


def test_canonical_text_of_the_defaults_is_pinned():
    # manifests embed this text for replay: any change to it is a
    # change to every manifest written from now on
    assert render_config(default_config()) == CANONICAL_CAVITY + """\
[medium]
theta_deg = 44.0
molar_mass_u = 180.0
alpha = 0.4
epsilon = 0.5
dominant = R
number_density = 1.488e+28 /m^3
wavelength = 5.46e-07 m
base_index = 1.34

""" + CANONICAL_REST


def test_canonical_text_of_the_index_route_is_pinned():
    config = parse_config("[medium]\nn_L = 1.35\nn_R = 1.34\n")
    assert render_config(config) == CANONICAL_CAVITY + """\
[medium]
n_L = 1.35
n_R = 1.34

""" + CANONICAL_REST
    assert config.canonical_text == render_config(config)


NON_DEFAULT = """
[cavity]
mirror_radius = 2 m
mirror_separation = 1.5 um
longitudinal_index = 8
mirror_loss = 0.02
l_max = 30
kappa_override = none

[medium]
{medium}

[dye]
Omega0 = 3400 THz
DeltaOmega = 4 THz
linewidth = 40 THz
gamma_down0 = 20 Hz
gamma_up0 = 5 Hz
gamma_down = 2 GHz
gamma_up_pump = 5 GHz
M = 2e8

[solver]
mode = semi_dynamical

[sweep]
pump_start = 200 MHz
pump_stop = 5 GHz
pump_points = 7
pump_spacing = linear
chi_start = 1e-6
chi_stop = 2e-5
chi_points = 5
chi_spacing = log
grid_pump_points = 3
scales = 1, 3
sensitivity_epsilon = 0.3
sensitivity_step = 0.05

[output]
directory = results
"""

NON_DEFAULT_SAMPLE = """\
theta_deg = 40
molar_mass_u = 150
alpha = 0.3
epsilon = 0.25
dominant = L
number_density = 1.2e22 /cm^3
wavelength = 500 nm
base_index = 1.4"""


def canonical_values(text):
    """(section, key) -> rendered value of a canonical text."""
    values, section = {}, None
    for line in text.splitlines():
        if line.startswith("["):
            section = line.strip("[]")
        elif line and not line.startswith("#"):
            key, value = line.split(" = ")
            values[section, key] = value
    return values


@pytest.mark.parametrize("medium", [NON_DEFAULT_SAMPLE,
                                    "n_L = 1.3435\nn_R = 1.3395"],
                         ids=["sample", "indices"])
def test_every_key_survives_the_round_trip(medium):
    config = parse_config(NON_DEFAULT.format(medium=medium))
    assert parse_config(render_config(config)) == config
    values = canonical_values(render_config(config))
    defaults = canonical_values(render_config(default_config()))
    # the default file lists every key but the index pair, which has no
    # default; the text sets each key of its medium route away from it
    listed = set(canonical_values(default_config_text()))
    assert listed == set(defaults)
    if medium == NON_DEFAULT_SAMPLE:
        assert set(values) == listed
    else:
        assert set(values) == ({key for key in listed if key[0] != "medium"}
                               | {("medium", "n_L"), ("medium", "n_R")})
    for key, value in values.items():
        assert value != defaults.get(key), key


# --- unit handling --------------------------------------------------------------


def test_unit_suffixes_scale_correctly():
    config = parse_config("""
[dye]
linewidth = 50 THz
gamma_down = 1 GHz
gamma_down0 = 10 Hz

[cavity]
mirror_separation = 1460 nm
""")
    assert config.dye.linewidth == 50e12
    assert config.dye.gamma_down == 1e9
    assert config.dye.gamma_down0 == 10.0
    assert config.cavity.mirror_separation == pytest.approx(1.46e-6)


def test_bare_number_on_dimensioned_field_is_rejected_by_name():
    with pytest.raises(ConfigError, match="gamma_up_pump"):
        parse_config("[dye]\ngamma_up_pump = 1e10\n")


def test_unknown_unit_is_rejected():
    with pytest.raises(ConfigError, match="parsec"):
        parse_config("[cavity]\nmirror_separation = 1.46 parsec\n")


def test_optional_fields_accept_none():
    config = parse_config("[cavity]\nkappa_override = none\n")
    assert config.kappa_override is None


# --- schema guards ----------------------------------------------------------------


def test_unknown_section_is_rejected():
    with pytest.raises(ConfigError, match="pump_laser"):
        parse_config("[pump_laser]\npower = 3\n")


def test_unknown_key_is_rejected():
    with pytest.raises(ConfigError, match="bogus"):
        parse_config("[cavity]\nbogus = 3\n")
    # a retired key is only tolerated in the section that used to hold it
    with pytest.raises(ConfigError, match="damping"):
        parse_config("[cavity]\ndamping = 1.0\n")


def test_retired_keys_are_ignored_with_one_warning_each():
    text = ("[solver]\nrel_tol = 1e-12\nmax_time = none\ndamping = 0.5\n"
            "abs_tol = auto\nmax_iters = 200000\n"
            "[sweep]\nwarm_start = false\n")
    with pytest.warns(UserWarning, match="retired") as record:
        config = parse_config(text)
    assert config == default_config()
    assert sorted(str(w.message) for w in record) == [
        "[solver] abs_tol is retired and ignored",
        "[solver] damping is retired and ignored",
        "[solver] max_iters is retired and ignored",
        "[solver] max_time is retired and ignored",
        "[solver] rel_tol is retired and ignored",
        "[sweep] warm_start is retired and ignored",
    ]


def test_malformed_numbers_are_rejected():
    with pytest.raises(ConfigError):
        parse_config("[cavity]\nmirror_radius = one m\n")
    with pytest.raises(ConfigError):
        parse_config("[cavity]\nl_max = 3.5\n")
    with pytest.raises(ConfigError):
        parse_config("[sweep]\npump_spacing = quadratic\n")


def test_out_of_range_values_surface_as_config_errors():
    with pytest.raises(ConfigError):
        parse_config("[cavity]\nmirror_loss = 0.7\n")
    with pytest.raises(ConfigError):
        parse_config("[medium]\nepsilon = 1.5\n")


@pytest.mark.parametrize("text", [
    "[sweep]\nchi_start = -0.5\nchi_stop = 0.5\n",     # |chi| > n - 1
    "[sweep]\nchi_start = 0\nchi_stop = 0.06\n",       # 2|chi| > 0.1
    "[medium]\nn_L = 1.02\nn_R = 1.02\n"
    "[sweep]\nchi_start = -0.03\nchi_stop = 0.03\n",   # n from the pair
])
def test_out_of_range_chi_grid_is_rejected(text):
    with pytest.raises(ConfigError, match="chi grid endpoint"):
        parse_config(text)


# --- medium routes -----------------------------------------------------------------


@pytest.mark.parametrize("text, message", [
    ("[medium]\ntheta_deg = 1e6\n", "no valid index pair"),
    ("[sweep]\nsensitivity_epsilon = 0\n", "sensitivity_epsilon"),
    ("[sweep]\nsensitivity_epsilon = 1\n", "sensitivity_epsilon"),
    ("[sweep]\nsensitivity_step = 0\n", "sensitivity_step"),
    ("[sweep]\nsensitivity_step = 1.5\n", "sensitivity_step"),
    ("[sweep]\ngrid_pump_points = 0\n", "grid_pump_points"),
    ("[sweep]\nscales = 1, 0\n", "scales"),
    ("[sweep]\nscales = -2\n", "scales"),
    ("[sweep]\nscales = nan\n", "scales"),
    ("[sweep]\nscales = inf\n", "scales"),
    # non-finite numbers: a traceback, exit 3 or a meaningless success
    ("[cavity]\nkappa_override = inf Hz\n", "kappa_override"),
    ("[dye]\nOmega0 = inf Hz\n", "Omega0"),
    ("[dye]\nlinewidth = inf Hz\n", "linewidth"),
    ("[sweep]\npump_stop = inf Hz\n", "pump_stop"),
    ("[dye]\nM = inf\n", "M"),
    ("[solver]\nabs_tol = inf Hz\n", "abs_tol"),
    # a retired solver key replays only at the default its version wrote
    ("[solver]\nabs_tol = 5 Hz\n", r"\[solver\] abs_tol is retired"),
    ("[solver]\nmax_iters = 1000\n", r"\[solver\] max_iters is retired"),
    # "auto" was the absent spelling of abs_tol alone
    ("[cavity]\nkappa_override = auto\n", r"\[cavity\] kappa_override"),
    # every error names its key, the sweep grids' own checks included
    ("[cavity]\nl_max = +-5\n", r"\[cavity\] l_max"),
    ("[cavity]\nl_max = \u00b2\n", r"\[cavity\] l_max"),
    ("[sweep]\nchi_points = 0\n", r"\[sweep\] chi_points"),
    ("[sweep]\npump_points = 0\n", r"\[sweep\] pump_points"),
    ("[sweep]\npump_start = -1 Hz\n", r"\[sweep\] pump_spacing = log"),
    # a linear pump axis that starts below zero gives no valid dye
    ("[sweep]\npump_spacing = linear\npump_start = -1 Hz\n",
     r"\[sweep\] pump_start: gamma_up_pump must be >= 0"),
    # a sample valid at its own excess but not at the widest bracket end
    ("[medium]\ntheta_deg = 129000\n",
     r"epsilon = 0\.82 \(the widest bracket, 0\.5 \+- 0\.32\) of "
     r"\[sweep\] sensitivity_epsilon"),
    ("[sweep]\nchi_start = 1e-5\nchi_stop = -1e-5\n",
     r"\[sweep\] chi_start must not exceed"),
    ("[dye]\ngamma_down = inf Hz\n", "gamma_down"),
    ("[dye]\ngamma_up_pump = inf Hz\n", "gamma_up_pump"),
    ("[dye]\ngamma_down = nan Hz\n", "not a finite number"),
    ("[dye]\nM = -inf\n", "not a finite number"),
    ("[dye]\nOmega0 = 1e300 THz\n", "not a finite number"),
    # a profile whose linewidth**2 * gamma0 overflows before dividing
    ("[dye]\ngamma_down0 = 1e300 Hz\n", "gamma_down0"),
    ("[dye]\ngamma_up0 = 1e300 Hz\n", "gamma_up0"),
    ("[sweep]\nscales = 1, 1e281\n", "scales"),
    ("[dye]\nlinewidth = 1e160 THz\n", "linewidth"),
    # a lossless cavity leaves the ladder without a decay rate
    ("[cavity]\nmirror_loss = 0\nkappa_override = none\n", "mirror_loss"),
    # or one whose mirror-loss rate underflows to zero
    (UNDERFLOW_LOSS, r"\[cavity\] gives no mode ladder.*mirror_loss"),
    # so does a decay rate of zero or below
    ("[cavity]\nkappa_override = 0 Hz\n", "kappa_override must be positive"),
    ("[cavity]\nkappa_override = -1 Hz\n", "kappa_override must be positive"),
    # a mode whose rate rounds to zero, at the run's medium or only with
    # a scaled absorption, or a ladder whose spacing divides by zero
    ("[dye]\nlinewidth = 1e-170 Hz\n", "gamma_down of mode 0 is 0.0"),
    ("[dye]\ngamma_up0 = 1 Hz\n[sweep]\nscales = 1, 5e-324\n",
     "scales entry 5e-324: gamma_up of mode .* is 0.0"),
    pytest.param("[cavity]\nmirror_radius = 1e-320 m\n", "no mode ladder",
                 marks=pytest.mark.filterwarnings(
                     "ignore:mirror_separation/mirror_radius")),
])
def test_inputs_that_would_crash_later_are_rejected(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


def test_sample_route_is_the_default():
    config = parse_config("")
    assert config.medium_kind == "sample"
    assert config.sample.theta_deg == 44.0
    assert config.sample.epsilon == 0.5
    assert config.sample.dominant == "R"
    assert config.solvent.base_index == 1.34
    assert config.indices is None


def test_sample_route_resolves_the_index_pair():
    config = parse_config("")
    pair = config.medium_indices()
    chi = 0.5 * CHI_FULL_EPS1  # half excess, R dominant
    assert pair.n_L == pytest.approx(1.34 + chi, abs=1e-18)
    assert pair.n_R == pytest.approx(1.34 - chi, abs=1e-18)
    assert config.chi_per_epsilon() == pytest.approx(CHI_FULL_EPS1,
                                                     rel=1e-12)
    assert config.base_index() == 1.34


def test_index_route_bypasses_the_sample():
    config = parse_config("[medium]\nn_L = 1.3435\nn_R = 1.3395\n")
    assert config.medium_kind == "indices"
    assert config.sample is None
    assert config.chi_per_epsilon() is None
    pair = config.medium_indices()
    assert (pair.n_L, pair.n_R) == (1.3435, 1.3395)
    assert config.base_index() == pytest.approx(1.3415)


def test_index_route_requires_both_indices():
    with pytest.raises(ConfigError, match="n_R"):
        parse_config("[medium]\nn_L = 1.3435\n")


def test_mixed_medium_description_is_rejected():
    with pytest.raises(ConfigError):
        parse_config("[medium]\nn_L = 1.3435\nn_R = 1.3395\nepsilon = 0.5\n")


def test_enantiomer_flip_flips_the_index_pair():
    right = parse_config("[medium]\ndominant = R\n").medium_indices()
    left = parse_config("[medium]\ndominant = L\n").medium_indices()
    assert right.n_L == left.n_R
    assert right.n_R == left.n_L


# --- sweep settings -----------------------------------------------------------------


def test_sweep_settings_resolve():
    config = parse_config("""
[sweep]
pump_start = 200 MHz
pump_stop = 5 GHz
pump_points = 7
pump_spacing = linear
chi_points = 11
scales = 1, 3
grid_pump_points = 9
sensitivity_epsilon = 0.25
""")
    assert config.sweep.pump.start == 2e8
    assert config.sweep.pump.stop == 5e9
    assert config.sweep.pump.points == 7
    assert config.sweep.pump.spacing == "linear"
    assert config.sweep.chi.points == 11
    assert config.sweep.scales == (1.0, 3.0)
    assert config.sweep.grid_pump_points == 9
    assert config.sweep.sensitivity_epsilon == 0.25
