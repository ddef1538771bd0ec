"""Config parsing: units, defaults, the two medium routes, canonical text."""

from __future__ import annotations

import pytest

from polarbec import ConfigError, parse_config
from polarbec.config import (
    default_config,
    default_config_text,
    render_config,
)

from conftest import CHI_FULL_EPS1


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
    assert config.solver.abs_tol is None
    assert config.sweep.pump.points == 100
    assert config.sweep.chi.points == 61
    assert config.sweep.scales == (0.5, 1.0, 2.0, 10.0)
    assert config.output_dir == "out"


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
    config = parse_config("[solver]\nabs_tol = auto\n")
    assert config.solver.abs_tol is None


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
            "[sweep]\nwarm_start = false\n")
    with pytest.warns(UserWarning, match="retired") as record:
        config = parse_config(text)
    assert config == default_config()
    assert sorted(str(w.message) for w in record) == [
        "[solver] damping is retired and ignored",
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
