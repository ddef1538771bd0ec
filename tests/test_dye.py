"""Dye rate profiles: Lorentzian shapes, peak values, and the gain ordering."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polarbec import (
    DyeParams,
    absorption_rate,
    build_mode_set,
    build_rate_table,
    emission_rate,
)

from conftest import (
    DN_L0,
    DN_R0,
    KAPPA,
    SWEEP_INDICES,
    UP_L0,
    UP_R0,
    make_cavity,
    make_dye,
)

DYE = make_dye(pump=5e9)


# --- profile shape -----------------------------------------------------------


def test_emission_peaks_above_resonance():
    # peak value 4 * gamma_down0 exactly at Omega0 + DeltaOmega
    peak = emission_rate(DYE, DYE.Omega0 + DYE.DeltaOmega)
    assert peak == pytest.approx(4.0 * DYE.gamma_down0, rel=1e-15)
    assert emission_rate(DYE, DYE.Omega0 + DYE.DeltaOmega) > emission_rate(
        DYE, DYE.Omega0 - DYE.DeltaOmega)


def test_absorption_peaks_below_resonance():
    peak = absorption_rate(DYE, DYE.Omega0 - DYE.DeltaOmega)
    assert peak == pytest.approx(4.0 * DYE.gamma_up0, rel=1e-15)
    assert absorption_rate(DYE, DYE.Omega0 - DYE.DeltaOmega) > absorption_rate(
        DYE, DYE.Omega0 + DYE.DeltaOmega)


def test_profile_maxima_sit_two_offsets_apart():
    omega = np.linspace(DYE.Omega0 - 30e12, DYE.Omega0 + 30e12, 60001)
    i_dn = int(np.argmax(emission_rate(DYE, omega)))
    i_up = int(np.argmax(absorption_rate(DYE, omega)))
    gap = omega[i_dn] - omega[i_up]
    assert gap == pytest.approx(2.0 * DYE.DeltaOmega, rel=1e-3)


def test_half_height_at_half_width():
    # the width parameter is the full Lorentzian width: half the peak
    # value sits at linewidth / 2 from the peak centre
    centre = DYE.Omega0 + DYE.DeltaOmega
    half = emission_rate(DYE, centre + DYE.linewidth / 2.0)
    assert half == pytest.approx(0.5 * emission_rate(DYE, centre), rel=1e-12)


def test_rates_accept_arrays():
    omega = np.array([DYE.Omega0, DYE.Omega0 + DYE.DeltaOmega])
    dn = emission_rate(DYE, omega)
    assert dn.shape == (2,)
    assert dn[1] == pytest.approx(4.0 * DYE.gamma_down0, rel=1e-15)


@given(scale=st.floats(min_value=0.1, max_value=10.0))
def test_rates_scale_with_peak_parameters(scale):
    omega = DYE.Omega0 - 9e13
    scaled = replace(DYE, gamma_down0=DYE.gamma_down0 * scale,
                     gamma_up0=DYE.gamma_up0 * scale)
    assert emission_rate(scaled, omega) == pytest.approx(
        scale * emission_rate(DYE, omega), rel=1e-12)
    assert absorption_rate(scaled, omega) == pytest.approx(
        scale * absorption_rate(DYE, omega), rel=1e-12)


def test_rate_doubling_is_exact_for_power_of_two():
    omega = DYE.Omega0 - 9e13
    doubled = replace(DYE, gamma_down0=2.0 * DYE.gamma_down0)
    assert emission_rate(doubled, omega) == 2.0 * emission_rate(DYE, omega)


# --- rate table over the polarised ladder ------------------------------------


def test_ground_rates_frozen_values():
    modes = build_mode_set(make_cavity(), SWEEP_INDICES, 0,
                           kappa_override=KAPPA)
    table = build_rate_table(DYE, modes)
    dn_L, up_L = table.gamma_down[0], table.gamma_up[0]
    dn_R, up_R = table.gamma_down[1], table.gamma_up[1]
    assert dn_L == pytest.approx(DN_L0, rel=1e-12)
    assert up_L == pytest.approx(UP_L0, rel=1e-12)
    assert dn_R == pytest.approx(DN_R0, rel=1e-12)
    assert up_R == pytest.approx(UP_R0, rel=1e-12)


def test_gain_to_loss_ratio_decreases_up_the_ladder():
    # the winner-takes-all ordering: lower-frequency modes see the larger
    # emission-to-absorption ratio, strictly, over the full sweep ladder
    modes = build_mode_set(make_cavity(), SWEEP_INDICES, 200,
                           kappa_override=KAPPA)
    table = build_rate_table(DYE, modes)
    order = np.argsort([m.omega for m in modes])
    ratio = (np.asarray(table.gamma_down) / np.asarray(table.gamma_up))[order]
    assert np.all(np.diff(ratio) < 0)


def test_achiral_medium_gives_identical_blocks():
    from polarbec import MediumIndices
    modes = build_mode_set(make_cavity(), MediumIndices(1.34, 1.34), 80,
                           kappa_override=KAPPA)
    table = build_rate_table(DYE, modes)
    dn = np.asarray(table.gamma_down)
    up = np.asarray(table.gamma_up)
    assert np.array_equal(dn[:81], dn[81:])
    assert np.array_equal(up[:81], up[81:])


def test_rate_table_lookup_and_length():
    modes = build_mode_set(make_cavity(), SWEEP_INDICES, 3,
                           kappa_override=KAPPA)
    table = build_rate_table(DYE, modes)
    assert len(table) == 8
    # entry i belongs to modes[i]
    assert table.modes[5] == modes[5]
    assert table.gamma_down[5] == emission_rate(DYE, modes[5].omega)
    assert table.gamma_up[5] == absorption_rate(DYE, modes[5].omega)


def test_rate_table_rejects_empty_mode_list():
    with pytest.raises(ValueError):
        build_rate_table(DYE, [])


# --- parameter guards ---------------------------------------------------------


def test_dye_guards():
    with pytest.raises(ValueError):
        make_dye(Omega0=0.0)
    with pytest.raises(ValueError):
        make_dye(DeltaOmega=-1.0)
    with pytest.raises(ValueError):
        make_dye(linewidth=0.0)
    with pytest.raises(ValueError):
        make_dye(gamma_down0=0.0)
    with pytest.raises(ValueError):
        make_dye(gamma_up0=-1.0)
    with pytest.raises(ValueError):
        make_dye(gamma_down=-1.0)
    with pytest.raises(ValueError):
        make_dye(pump=-1.0)
    with pytest.raises(ValueError):
        make_dye(M=-1.0)


def test_dye_allows_undoped_and_unpumped_limits():
    assert make_dye(M=0.0).M == 0.0
    assert make_dye(pump=0.0).gamma_up_pump == 0.0
