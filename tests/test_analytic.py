"""Closed-form single-mode solutions, thresholds, and the frozen-loser pair."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polarbec import (
    MediumIndices,
    ThresholdReport,
    build_mode_set,
    build_rate_table,
    effective_threshold,
    ground_thresholds,
    pinned_pair,
    single_mode_exact,
    single_mode_highQ,
    threshold_pump,
)

from conftest import (
    DN_L0,
    DN_R0,
    KAPPA,
    N_EXACT_2TAU,
    N_HIGHQ_2TAU,
    SWEEP_INDICES,
    TAU_L0,
    TAU_R0,
    TEFF_L0,
    TEFF_R0,
    UP_L0,
    UP_R0,
    bisect_single_mode,
    make_cavity,
    make_dye,
    single_mode_problem,
    two_order_modes,
)

GAMMA_DOWN = 1e9
M = 1e9


# --- thresholds ---------------------------------------------------------------


def test_threshold_pump_frozen_values():
    assert threshold_pump(GAMMA_DOWN, UP_L0, DN_L0) == pytest.approx(
        TAU_L0, rel=1e-12)
    assert threshold_pump(GAMMA_DOWN, UP_R0, DN_R0) == pytest.approx(
        TAU_R0, rel=1e-12)
    assert TAU_L0 < TAU_R0  # the higher-index block condenses first


def test_threshold_pump_scales_linearly_with_decay():
    base = threshold_pump(GAMMA_DOWN, UP_L0, DN_L0)
    assert threshold_pump(2.0 * GAMMA_DOWN, UP_L0, DN_L0) == pytest.approx(
        2.0 * base, rel=1e-15)


def test_threshold_pump_rejects_dark_mode():
    with pytest.raises(ValueError):
        threshold_pump(GAMMA_DOWN, UP_L0, 0.0)


def test_effective_threshold_frozen_values():
    assert effective_threshold(KAPPA, GAMMA_DOWN, UP_L0, DN_L0,
                               M) == pytest.approx(TEFF_L0, rel=1e-12)
    assert effective_threshold(KAPPA, GAMMA_DOWN, UP_R0, DN_R0,
                               M) == pytest.approx(TEFF_R0, rel=1e-12)


def test_effective_threshold_sits_above_the_lossless_one():
    assert effective_threshold(KAPPA, GAMMA_DOWN, UP_L0, DN_L0, M) > TAU_L0


def test_effective_threshold_approaches_lossless_limit():
    teff = effective_threshold(1e-3, GAMMA_DOWN, UP_L0, DN_L0, M)
    assert teff == pytest.approx(TAU_L0, rel=1e-9)


def test_effective_threshold_needs_gain_exceeding_loss():
    with pytest.raises(ValueError):
        effective_threshold(M * DN_L0 * 1.01, GAMMA_DOWN, UP_L0, DN_L0, M)


def test_ground_thresholds_report():
    modes = build_mode_set(make_cavity(), SWEEP_INDICES, 5,
                           kappa_override=KAPPA)
    dye = make_dye(0.0)
    report = ground_thresholds(build_rate_table(dye, modes), modes, dye)
    assert isinstance(report, ThresholdReport)
    assert report.tau_L == pytest.approx(TAU_L0, rel=1e-12)
    assert report.tau_R == pytest.approx(TAU_R0, rel=1e-12)
    assert report.winner == "L"


def test_ground_thresholds_degenerate_for_achiral_medium():
    from polarbec import MediumIndices
    modes = build_mode_set(make_cavity(), MediumIndices(1.34, 1.34), 2,
                           kappa_override=KAPPA)
    dye = make_dye(0.0)
    report = ground_thresholds(build_rate_table(dye, modes), modes, dye)
    assert report.tau_L == report.tau_R
    assert report.winner == "degenerate"


def test_ground_thresholds_refuses_a_rate_table_of_another_mode_list():
    # the mirrored ladder has the same labels with the blocks' omegas
    # swapped, so the original table would report the original winner
    cavity, dye = make_cavity(), make_dye(0.0)
    mirrored = MediumIndices(n_L=SWEEP_INDICES.n_R, n_R=SWEEP_INDICES.n_L)
    a = build_mode_set(cavity, SWEEP_INDICES, 5, kappa_override=KAPPA)
    b = build_mode_set(cavity, mirrored, 5, kappa_override=KAPPA)
    assert ground_thresholds(build_rate_table(dye, b), b, dye).winner == "R"
    with pytest.raises(ValueError, match="different mode ladder"):
        ground_thresholds(build_rate_table(dye, a), b, dye)


def test_ground_thresholds_needs_a_ground_mode_in_each_block():
    modes, rates, dye = single_mode_problem(0.0)
    with pytest.raises(ValueError, match="exactly one R ground mode"):
        ground_thresholds(rates, modes, dye)


def test_ground_thresholds_refuses_two_ground_modes_in_a_block():
    modes, dye = two_order_modes(), make_dye(0.0)
    with pytest.raises(ValueError, match="2 l = 0 modes"):
        ground_thresholds(build_rate_table(dye, modes), modes, dye)


# --- single-mode occupation laws ------------------------------------------------


def test_exact_occupation_frozen_value():
    N = single_mode_exact(2.0 * TAU_L0, KAPPA, GAMMA_DOWN, UP_L0, DN_L0, M)
    assert N == pytest.approx(N_EXACT_2TAU, rel=1e-12)


def test_lossless_branch_frozen_value():
    with pytest.warns(UserWarning):
        # at the reference loss the lossless-limit branch is off by ~12%
        # from the exact root, which is exactly why it must warn here
        N = single_mode_highQ(2.0 * TAU_L0, KAPPA, GAMMA_DOWN, UP_L0, DN_L0,
                              M)
    assert N == pytest.approx(N_HIGHQ_2TAU, rel=1e-12)


def test_exact_root_agrees_with_bisection():
    for factor in (0.3, 0.9, 1.1, 2.0, 20.0):
        pump = factor * TAU_L0
        closed = single_mode_exact(pump, KAPPA, GAMMA_DOWN, UP_L0, DN_L0, M)
        root = bisect_single_mode(pump, KAPPA, GAMMA_DOWN, UP_L0, DN_L0, M)
        assert closed == pytest.approx(root, rel=1e-10)


def test_exact_approaches_lossless_branch_at_high_Q():
    # in the vanishing-loss limit the exact root converges onto the
    # piecewise branch; at kappa far below every rate no warning fires
    pump = 2.0 * TAU_L0
    for kappa, tol in ((1e-2, 1e-4), (1e-4, 1e-6)):
        exact = single_mode_exact(pump, kappa, GAMMA_DOWN, UP_L0, DN_L0, M)
        branch = single_mode_highQ(pump, kappa, GAMMA_DOWN, UP_L0, DN_L0, M)
        assert exact == pytest.approx(branch, rel=tol)


def test_lossless_branch_is_piecewise():
    kappa = 1e-3
    below = single_mode_highQ(0.5 * TAU_L0, kappa, GAMMA_DOWN, UP_L0, DN_L0,
                              M)
    above = single_mode_highQ(2.0 * TAU_L0, kappa, GAMMA_DOWN, UP_L0, DN_L0,
                              M)
    assert below == 0.0
    assert above > 0.0
    # above threshold the branch is linear in pump with slope
    # M dn / (kappa (up + dn))
    p1, p2 = 2.0 * TAU_L0, 3.0 * TAU_L0
    n1 = single_mode_highQ(p1, kappa, GAMMA_DOWN, UP_L0, DN_L0, M)
    n2 = single_mode_highQ(p2, kappa, GAMMA_DOWN, UP_L0, DN_L0, M)
    slope = M * DN_L0 / (kappa * (UP_L0 + DN_L0))
    assert (n2 - n1) / (p2 - p1) == pytest.approx(slope, rel=1e-12)


def test_symmetric_rates_give_half_gain_occupation():
    # with up = dn the branch slope collapses to M / (2 kappa) per unit
    # of pump margin over gamma_down
    kappa = 1e-3
    rate = 3.0
    pump = 4.0 * GAMMA_DOWN
    expected = M * (pump - GAMMA_DOWN) * rate / (kappa * 2.0 * rate)
    got = single_mode_highQ(pump, kappa, GAMMA_DOWN, rate, rate, M)
    assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("factor", [0.3, 0.9, 1.1, 2.0, 20.0])
def test_exact_root_is_blind_to_a_common_power_of_two(factor):
    # kappa and M enter the quadratic only as a common scale, which the
    # closed form divides out exactly: below and above the knee alike,
    # scaling both by 2**500 leaves every bit of the root
    pump = factor * TEFF_L0
    big = 2.0**500
    assert single_mode_exact(pump, KAPPA * big, GAMMA_DOWN, UP_L0, DN_L0,
                             M * big) == single_mode_exact(
        pump, KAPPA, GAMMA_DOWN, UP_L0, DN_L0, M)


def test_exact_root_requires_positive_loss():
    with pytest.raises(ValueError):
        single_mode_exact(2.0 * TAU_L0, 0.0, GAMMA_DOWN, UP_L0, DN_L0, M)


@settings(deadline=None, max_examples=60)
@given(
    log_pump=st.floats(min_value=8.0, max_value=10.5),
    log_kappa=st.floats(min_value=-3.0, max_value=9.0),
)
def test_exact_root_is_stationary(log_pump, log_kappa):
    # plugging the closed-form root back into the balance leaves only
    # float-level residue relative to the gross flow
    pump, kappa = 10.0 ** log_pump, 10.0 ** log_kappa
    N = single_mode_exact(pump, kappa, GAMMA_DOWN, UP_L0, DN_L0, M)
    Gu = pump + N * UP_L0
    Gd = GAMMA_DOWN + (N + 1.0) * DN_L0
    drift = -kappa * N + (M / (Gu + Gd)) * (DN_L0 * (N + 1.0) * Gu
                                            - UP_L0 * N * Gd)
    gross = kappa * N + (M / (Gu + Gd)) * (DN_L0 * (N + 1.0) * Gu
                                           + UP_L0 * N * Gd)
    assert abs(drift) <= 1e-12 * gross + 1e-9


# --- frozen-loser pair ----------------------------------------------------------


def test_pinned_pair_below_threshold_follows_both_laws():
    pumps = np.array([0.2, 0.5, 0.9]) * TEFF_L0
    N_L, N_R, S3 = pinned_pair(pumps, GAMMA_DOWN, M, (KAPPA, UP_L0, DN_L0),
                               (KAPPA, UP_R0, DN_R0))
    for i, p in enumerate(pumps):
        assert N_L[i] == pytest.approx(
            single_mode_exact(p, KAPPA, GAMMA_DOWN, UP_L0, DN_L0, M),
            rel=1e-14)
        assert N_R[i] == pytest.approx(
            single_mode_exact(p, KAPPA, GAMMA_DOWN, UP_R0, DN_R0, M),
            rel=1e-14)


def test_pinned_pair_freezes_the_loser_above_threshold():
    pumps = np.array([0.5 * TEFF_L0, 2.0 * TEFF_L0, 8.0 * TEFF_L0])
    N_L, N_R, S3 = pinned_pair(pumps, GAMMA_DOWN, M, (KAPPA, UP_L0, DN_L0),
                               (KAPPA, UP_R0, DN_R0))
    frozen = single_mode_exact(TEFF_L0, KAPPA, GAMMA_DOWN, UP_R0, DN_R0, M)
    assert N_R[1] == pytest.approx(frozen, rel=1e-12)
    assert N_R[2] == pytest.approx(frozen, rel=1e-12)
    # the winner keeps growing while the loser stays put
    assert N_L[2] > N_L[1] > N_L[0]
    assert N_R[2] == N_R[1]


def test_pinned_pair_saturates_toward_full_circular_polarisation():
    pumps = np.logspace(np.log10(1.5 * TEFF_L0), 10.5, 40)
    N_L, N_R, S3 = pinned_pair(pumps, GAMMA_DOWN, M, (KAPPA, UP_L0, DN_L0),
                               (KAPPA, UP_R0, DN_R0))
    # L wins here, so S3 runs toward -1 and |S3| grows monotonically
    assert np.all(np.diff(S3) < 0.0)
    assert S3[-1] < -0.999


def test_pinned_pair_is_antisymmetric_under_block_swap():
    pumps = np.logspace(8, 10, 25)
    N_L, N_R, S3 = pinned_pair(pumps, GAMMA_DOWN, M, (KAPPA, UP_L0, DN_L0),
                               (KAPPA, UP_R0, DN_R0))
    N_L2, N_R2, S3_sw = pinned_pair(pumps, GAMMA_DOWN, M,
                                    (KAPPA, UP_R0, DN_R0),
                                    (KAPPA, UP_L0, DN_L0))
    assert np.array_equal(N_L, N_R2)
    assert np.array_equal(N_R, N_L2)
    assert np.array_equal(S3, -S3_sw)


def test_pinned_pair_exact_tie_keeps_zero_stokes():
    pumps = np.logspace(8, 10, 15)
    N_L, N_R, S3 = pinned_pair(pumps, GAMMA_DOWN, M, (KAPPA, UP_L0, DN_L0),
                               (KAPPA, UP_L0, DN_L0))
    assert np.array_equal(N_L, N_R)
    assert np.all(S3 == 0.0)


def test_pinned_pair_never_pins_to_a_mode_below_loss():
    # L's gain M * dn sits below kappa: it has no knee (+inf), so R wins
    # at its own knee and L stays pinned at its value there
    kappa = M * DN_L0 * 1.01
    assert not M * DN_L0 > kappa and M * DN_R0 > kappa
    t_R = effective_threshold(kappa, GAMMA_DOWN, UP_R0, DN_R0, M)
    pumps = np.array([0.5, 2.0, 8.0]) * t_R
    N_L, N_R, S3 = pinned_pair(pumps, GAMMA_DOWN, M, (kappa, UP_L0, DN_L0),
                               (kappa, UP_R0, DN_R0))
    for i, p in enumerate(pumps):
        assert N_R[i] == single_mode_exact(p, kappa, GAMMA_DOWN,
                                           UP_R0, DN_R0, M)
    assert N_L[0] == single_mode_exact(pumps[0], kappa, GAMMA_DOWN,
                                       UP_L0, DN_L0, M)
    frozen = single_mode_exact(t_R, kappa, GAMMA_DOWN, UP_L0, DN_L0, M)
    assert N_L[1] == N_L[2] == frozen
    assert N_R[2] > N_R[1] > frozen
    assert np.all(np.isfinite(S3)) and S3[2] > S3[1] > 0.0
    # relabelling the blocks mirrors the result
    N_L2, N_R2, S3_sw = pinned_pair(pumps, GAMMA_DOWN, M,
                                    (kappa, UP_R0, DN_R0),
                                    (kappa, UP_L0, DN_L0))
    assert np.array_equal(N_L, N_R2) and np.array_equal(S3, -S3_sw)


def test_pinned_pair_follows_both_laws_when_neither_mode_condenses():
    pumps = np.logspace(8, 11, 7)
    N_L, N_R, S3 = pinned_pair(pumps, GAMMA_DOWN, 1.0, (KAPPA, UP_L0, DN_L0),
                               (KAPPA, UP_R0, DN_R0))
    for i, p in enumerate(pumps):
        assert N_L[i] == single_mode_exact(p, KAPPA, GAMMA_DOWN, UP_L0,
                                           DN_L0, 1.0)
        assert N_R[i] == single_mode_exact(p, KAPPA, GAMMA_DOWN, UP_R0,
                                           DN_R0, 1.0)
    # undoped: no photons at all, and S3 reads zero rather than nan
    _, _, S3_0 = pinned_pair(pumps, GAMMA_DOWN, 0.0, (KAPPA, UP_L0, DN_L0),
                             (KAPPA, UP_R0, DN_R0))
    assert np.all(S3_0 == 0.0)
