"""Mode-ladder geometry: frequencies, mass, loss, and parameter guards."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polarbec import (
    CavityParams,
    MediumIndices,
    ModeLadder,
    build_mode_set,
    cavity_decay,
    cutoff_frequency,
    effective_mass,
    lateral_frequency,
    mode_ladder,
)
from polarbec.constants import C_LIGHT, HBAR

from conftest import (
    CUTOFF_134,
    DECAY_134,
    KAPPA,
    LATERAL_134,
    MASS_134,
    make_cavity,
    two_order_modes,
)

INDICES = st.floats(min_value=1.001, max_value=2.5)


# --- frozen closed-form values ---------------------------------------------


def test_lateral_frequency_frozen_value():
    assert lateral_frequency(make_cavity(), 1.34) == pytest.approx(
        LATERAL_134, rel=1e-12)


def test_cutoff_frequency_frozen_value():
    assert cutoff_frequency(make_cavity(), 1.34) == pytest.approx(
        CUTOFF_134, rel=1e-12)


def test_effective_mass_frozen_value():
    assert effective_mass(make_cavity(), 1.34) == pytest.approx(
        MASS_134, rel=1e-12)


def test_cavity_decay_frozen_value():
    assert cavity_decay(make_cavity(), 1.34) == pytest.approx(
        DECAY_134, rel=1e-12)


def test_reference_magnitudes():
    # hand-quoted magnitudes for the standard geometry at n = 1.34
    cav = make_cavity()
    assert lateral_frequency(cav, 1.34) == pytest.approx(1.853e11, rel=1e-2)
    assert cutoff_frequency(cav, 1.34) == pytest.approx(3.372e15, rel=1e-2)
    assert cavity_decay(cav, 1.34) == pytest.approx(3.07e12, rel=1e-2)
    assert effective_mass(cav, 1.34) == pytest.approx(7.1e-36, rel=1e-3)


# --- scaling relations ------------------------------------------------------


def test_lateral_frequency_halves_when_index_doubles():
    cav = make_cavity()
    assert lateral_frequency(cav, 2.68) == lateral_frequency(cav, 1.34) / 2.0


@given(n=INDICES)
def test_rest_energy_identity(n):
    # m c_sigma^2 + hbar omega_lateral = hbar omega_cutoff
    cav = make_cavity()
    c_sigma = C_LIGHT / n
    lhs = effective_mass(cav, n) * c_sigma**2 + HBAR * lateral_frequency(cav, n)
    rhs = HBAR * cutoff_frequency(cav, n)
    assert lhs == pytest.approx(rhs, rel=1e-12)


@given(n=INDICES)
def test_mass_grows_linearly_with_index(n):
    # m = pi hbar j / (c_sigma L0) with c_sigma = c/n, so m is linear in n
    cav = make_cavity()
    assert effective_mass(cav, n) / n == pytest.approx(
        effective_mass(cav, 1.001) / 1.001, rel=1e-12)


@given(n=INDICES, scale=st.floats(min_value=0.5, max_value=4.0))
def test_decay_scales_with_mirror_loss(n, scale):
    base = cavity_decay(make_cavity(0.01), n)
    assert cavity_decay(make_cavity(0.01 * scale), n) == pytest.approx(
        base * scale, rel=1e-12)


def test_zero_mirror_loss_gives_zero_decay():
    assert cavity_decay(make_cavity(0.0), 1.34) == 0.0


# --- ladder construction ----------------------------------------------------


def test_mode_set_count_and_order():
    medium = MediumIndices(n_L=1.3435, n_R=1.3395)
    ladder = build_mode_set(make_cavity(), medium, 200, kappa_override=KAPPA)
    assert len(ladder) == 402
    assert ladder.n_left == 201
    assert ladder.l.tolist() == list(range(201)) * 2
    assert ladder.degeneracy.tolist() == [l + 1 for l in range(201)] * 2
    assert np.all(ladder.kappa == KAPPA)


def test_mode_set_ladder_spacing_uniform():
    medium = MediumIndices(n_L=1.34, n_R=1.34)
    ladder = build_mode_set(make_cavity(), medium, 150, kappa_override=KAPPA)
    for omegas in (ladder.omega[:151], ladder.omega[151:]):
        gaps = np.diff(omegas)
        lat = lateral_frequency(make_cavity(), 1.34)
        assert np.max(np.abs(gaps - lat) / lat) < 1e-9
        assert omegas[0] == cutoff_frequency(make_cavity(), 1.34)


def test_mode_set_blocks_differ_only_through_index():
    medium = MediumIndices(n_L=1.3435, n_R=1.3395)
    ladder = build_mode_set(make_cavity(), medium, 5, kappa_override=KAPPA)
    left, right = ladder.omega[:6], ladder.omega[6:]
    # the lower index (R here) sits at higher frequency
    assert np.all(right > left)


def test_mode_set_formula_kappa():
    medium = MediumIndices(n_L=1.3435, n_R=1.3395)
    ladder = build_mode_set(make_cavity(), medium, 1)
    assert ladder.kappa[0] == pytest.approx(
        cavity_decay(make_cavity(), 1.3435), rel=1e-15)
    assert ladder.kappa[2] == pytest.approx(
        cavity_decay(make_cavity(), 1.3395), rel=1e-15)


# --- parameter guards -------------------------------------------------------


def test_cavity_rejects_bad_geometry():
    with pytest.raises(ValueError):
        CavityParams(mirror_radius=-1.0, mirror_separation=1.46e-6,
                     longitudinal_index=7, mirror_loss=0.01)
    with pytest.raises(ValueError):
        CavityParams(mirror_radius=1.0, mirror_separation=0.0,
                     longitudinal_index=7, mirror_loss=0.01)
    with pytest.raises(ValueError):
        CavityParams(mirror_radius=1.0, mirror_separation=1.46e-6,
                     longitudinal_index=0, mirror_loss=0.01)
    with pytest.raises(ValueError):
        CavityParams(mirror_radius=1.0, mirror_separation=1.46e-6,
                     longitudinal_index=7, mirror_loss=0.5)


def test_cavity_rejects_non_integer_order():
    with pytest.raises((TypeError, ValueError)):
        CavityParams(mirror_radius=1.0, mirror_separation=1.46e-6,
                     longitudinal_index=7.5, mirror_loss=0.01)
    with pytest.raises((TypeError, ValueError)):
        CavityParams(mirror_radius=1.0, mirror_separation=1.46e-6,
                     longitudinal_index=True, mirror_loss=0.01)


def test_cavity_warns_outside_paraxial_regime():
    with pytest.warns(UserWarning):
        CavityParams(mirror_radius=1e-4, mirror_separation=1.46e-6,
                     longitudinal_index=7, mirror_loss=0.01)


def test_medium_indices_guards():
    with pytest.raises(ValueError):
        MediumIndices(n_L=0.99, n_R=1.34)
    with pytest.raises(ValueError):
        MediumIndices(n_L=1.5, n_R=1.34)  # splitting too large to be physical
    pair = MediumIndices(n_L=1.3435, n_R=1.3395)
    assert pair.index("L") == 1.3435
    assert pair.index("R") == 1.3395
    with pytest.raises(ValueError):
        pair.index("X")


def test_operations_reject_unphysical_index():
    cav = make_cavity()
    for op in (lateral_frequency, cutoff_frequency, effective_mass,
               cavity_decay):
        with pytest.raises(ValueError):
            op(cav, 1.0)


def test_mode_set_rejects_bad_arguments():
    medium = MediumIndices(n_L=1.34, n_R=1.34)
    with pytest.raises(ValueError):
        build_mode_set(make_cavity(), medium, -1)
    with pytest.raises(ValueError):
        build_mode_set(make_cavity(), medium, 3, kappa_override=0.0)


# --- array ladder ---------------------------------------------------------------


def test_array_ladder_matches_the_mode_formulas_bitwise():
    # build_mode_set is the public name of the one ladder builder
    assert build_mode_set is mode_ladder
    cav = make_cavity()
    for medium, kappa in ((MediumIndices(n_L=1.3435, n_R=1.3395), KAPPA),
                          (MediumIndices(n_L=1.34, n_R=1.34), None)):
        ladder = mode_ladder(cav, medium, 200, kappa)
        assert ladder.n_left == 201 and ladder.size == 402
        for sigma, block in (("L", slice(0, 201)), ("R", slice(201, 402))):
            n = medium.index(sigma)
            assert ladder.omega[block].tolist() == [
                cutoff_frequency(cav, n) + l * lateral_frequency(cav, n)
                for l in range(201)]
            assert ladder.kappa[block].tolist() == [
                cavity_decay(cav, n) if kappa is None else kappa] * 201
        assert np.array_equal(ladder.l, np.tile(np.arange(201), 2))
        assert np.array_equal(ladder.degeneracy, ladder.l + 1)
        assert ladder.ground() == (0, 201)


def test_array_ladder_checks_every_mode():
    medium = MediumIndices(n_L=1.3435, n_R=1.3395)
    with pytest.raises(ValueError, match="kappa must be positive"):
        mode_ladder(make_cavity(mirror_loss=0.0), medium, 3)
    with pytest.raises(ValueError, match="kappa must be positive"):
        build_mode_set(make_cavity(mirror_loss=0.0), medium, 3)
    good = mode_ladder(make_cavity(), medium, 3, KAPPA)
    fields = dict(l=good.l, omega=good.omega, kappa=good.kappa,
                  n_left=good.n_left)
    for name, bad in (("omega", -good.omega), ("l", good.l - 1),
                      ("n_left", 9)):
        with pytest.raises(ValueError):
            ModeLadder(**{**fields, name: bad})


def test_ground_modes_need_one_l0_mode_per_block():
    ladder = two_order_modes()
    with pytest.raises(ValueError, match="L block holds 2 l = 0 modes"):
        ladder.ground()
    # a block without an l = 0 mode has no ground mode
    l_shifted = ModeLadder(l=ladder.l + 1, omega=ladder.omega,
                           kappa=ladder.kappa, n_left=ladder.n_left)
    assert l_shifted.ground() == (None, None)
