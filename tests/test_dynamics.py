"""Rate-equation dynamics: derivatives, steady-state solvers, symmetries."""

from __future__ import annotations

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polarbec import (
    MediumIndices,
    ModeLadder,
    SolverConfig,
    SteadyState,
    adiabatic_derivative,
    build_mode_set,
    ground_thresholds,
    build_rate_table,
    cutoff_frequency,
    find_steady_state,
    full_derivatives,
    lateral_frequency,
    mode_ladder,
    refractive_indices,
    stokes_s3,
    total_rates,
)
from polarbec import dynamics
from polarbec.config import default_config
from polarbec.dynamics import (
    BALANCE_FTOL,
    CrosscheckError,
    RateSystem,
    crosscheck_bound,
    secant_seed,
    steady_states,
)

from conftest import (
    BASE_INDEX,
    KAPPA,
    SWEEP_INDICES,
    TAU_L0,
    TEFF_L0,
    bisect_margin_roots,
    bisect_single_mode,
    direct_occ_at_u,
    direct_totals,
    make_cavity,
    make_dye,
    single_mode_problem,
)

ABS_TOL = 1e-6 * KAPPA  # default residual tolerance at the reference loss


def two_mode_problem(pump: float):
    """Two L-polarised modes (l = 0, 1) for hand-checkable reductions."""
    cavity = make_cavity()
    om0 = cutoff_frequency(cavity, 1.3435)
    lat = lateral_frequency(cavity, 1.3435)
    modes = ModeLadder(l=np.array([0, 1]), omega=np.array([om0, om0 + lat]),
                       kappa=np.full(2, KAPPA), n_left=2)
    dye = make_dye(pump)
    return modes, build_rate_table(dye, modes), dye


# --- collective rates and derivatives ----------------------------------------


def test_total_rates_empty_cavity():
    modes, rates, dye = two_mode_problem(pump=5e9)
    Gu, Gd = total_rates(np.zeros(2), rates, modes, dye)
    # no photons: excitation is the bare pump, de-excitation carries the
    # bare decay plus one spontaneous quantum per sublevel
    dn0, up0 = rates.gamma_down[0], rates.gamma_up[0]
    dn1, up1 = rates.gamma_down[1], rates.gamma_up[1]
    assert Gu == pytest.approx(5e9, rel=1e-15)
    assert Gd == pytest.approx(dye.gamma_down + 1 * dn0 + 2 * dn1, rel=1e-14)


def test_total_rates_weights_by_degeneracy():
    modes, rates, dye = two_mode_problem(pump=5e9)
    N = np.array([2.0, 3.0])
    Gu, Gd = total_rates(N, rates, modes, dye)
    dn0, up0 = rates.gamma_down[0], rates.gamma_up[0]
    dn1, up1 = rates.gamma_down[1], rates.gamma_up[1]
    assert Gu == pytest.approx(5e9 + 1 * 2.0 * up0 + 2 * 3.0 * up1, rel=1e-14)
    assert Gd == pytest.approx(
        dye.gamma_down + 1 * 3.0 * dn0 + 2 * 4.0 * dn1, rel=1e-14)


def test_full_derivatives_empty_cavity_kick():
    # unexcited molecules in a dark cavity: photons stay put, the pump
    # drives the excited fraction at exactly its bare rate
    modes, rates, dye = two_mode_problem(pump=5e9)
    dN, dpe = full_derivatives(np.zeros(2), 0.0, rates, modes, dye)
    assert np.all(dN == 0.0)
    assert dpe == pytest.approx(5e9, rel=1e-15)


def test_full_derivatives_pure_loss_when_molecules_idle():
    # fully de-excited molecules that cannot absorb (M = 0): cavity decay
    # is the only photon channel left
    modes, rates, dye = two_mode_problem(pump=0.0)
    dark = replace(dye, M=0.0)
    rates_dark = build_rate_table(dark, modes)
    N = np.array([4.0, 1.0])
    dN, _ = full_derivatives(N, 0.0, rates_dark, modes, dark)
    assert dN == pytest.approx(-KAPPA * N, rel=1e-15)


def test_adiabatic_matches_full_at_slaved_fraction():
    # eliminating p_e at its quasi-stationary value must reproduce the
    # full photon drift identically, at any occupation
    modes, rates, dye = single_mode_problem(pump=2.0 * TAU_L0)
    for N in (np.array([0.0]), np.array([3.0]), np.array([4.77e9])):
        Gu, Gd = total_rates(N, rates, modes, dye)
        p_slaved = Gu / (Gu + Gd)
        dN_full, dpe = full_derivatives(N, p_slaved, rates, modes, dye)
        dN_adia = adiabatic_derivative(N, rates, modes, dye)
        scale = KAPPA * (N + 1.0) + dye.M * float(rates.gamma_down[0]) * (
            N + 1.0)
        assert np.all(np.abs(dN_full - dN_adia) <= 1e-12 * scale)
        assert dpe == pytest.approx(0.0, abs=1e-6 * (Gu + Gd))


def test_adiabatic_reduces_to_decay_without_molecules():
    modes, rates, dye = two_mode_problem(pump=0.0)
    dark = replace(dye, M=0.0)
    rates_dark = build_rate_table(dark, modes)
    N = np.array([2.0, 5.0])
    assert adiabatic_derivative(N, rates_dark, modes, dark) == pytest.approx(
        -KAPPA * N, rel=1e-15)


def test_state_and_alignment_guards():
    modes, rates, dye = two_mode_problem(pump=5e9)
    with pytest.raises(ValueError):
        full_derivatives(np.zeros(2), 1.2, rates, modes, dye)
    with pytest.raises(ValueError):
        full_derivatives(np.zeros(2), -0.1, rates, modes, dye)
    with pytest.raises(ValueError):
        full_derivatives(np.zeros(3), 0.0, rates, modes, dye)
    with pytest.raises(ValueError):
        adiabatic_derivative(np.zeros(1), rates, modes, dye)
    with pytest.raises(ValueError, match="3 occupations for 2 modes"):
        total_rates(np.zeros(3), rates, modes, dye)


@pytest.mark.parametrize("solve", [
    lambda rates, ladder, dye: find_steady_state(rates, ladder, dye).N,
    lambda rates, ladder, dye: ground_thresholds(rates, ladder, dye).tau_L,
], ids=["find_steady_state", "ground_thresholds"])
def test_a_rate_table_pairs_with_its_ladder_or_an_equal_one(solve):
    # the table holds its ladder; an equal one from a second identical
    # build passes the array comparison, a ladder at another chi does not
    dye = make_dye(5e9)

    def ladder_at(chi):
        return build_mode_set(make_cavity(), refractive_indices(BASE_INDEX,
                                                                chi),
                              30, kappa_override=KAPPA)

    own = ladder_at(1e-5)
    rates = build_rate_table(dye, own)
    assert rates.ladder is own
    equal = ladder_at(1e-5)
    assert equal is not own
    assert np.array_equal(solve(rates, own, dye), solve(rates, equal, dye))
    other = ladder_at(-1e-5)
    assert other.size == own.size
    with pytest.raises(ValueError, match="different mode ladder"):
        solve(rates, other, dye)


# --- single-mode steady state vs the independent bisection root --------------


@pytest.mark.parametrize("pump_factor", [0.1, 0.4, 0.9, 1.05, 2.0, 10.0])
def test_solver_matches_bisection_root(pump_factor):
    pump = pump_factor * TAU_L0
    modes, rates, dye = single_mode_problem(pump)
    dn, up = rates.gamma_down[0], rates.gamma_up[0]
    N_ref = bisect_single_mode(pump, KAPPA, dye.gamma_down, up, dn, dye.M)
    steady = find_steady_state(rates, modes, dye)
    assert steady.converged
    assert float(steady.N[0]) == pytest.approx(N_ref, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("route", ["fixed_point", "semi_dynamical"])
def test_both_routes_reach_the_bisection_root(route):
    pump = 2.0 * TAU_L0
    modes, rates, dye = single_mode_problem(pump)
    dn, up = rates.gamma_down[0], rates.gamma_up[0]
    N_ref = bisect_single_mode(pump, KAPPA, dye.gamma_down, up, dn, dye.M)
    steady = find_steady_state(rates, modes, dye,
                               SolverConfig(mode=route))
    assert steady.converged
    # the dynamical route only promises the cross-check agreement bound
    gate = 1e-9 if route == "fixed_point" else 1e-5
    assert float(steady.N[0]) == pytest.approx(N_ref, rel=gate)


def test_below_threshold_occupation_is_microscopic():
    modes, rates, dye = single_mode_problem(0.4 * TAU_L0)
    steady = find_steady_state(rates, modes, dye)
    assert steady.converged
    assert 0.0 < float(steady.N[0]) < 1.0


def test_stationarity_below_threshold_in_absolute_terms():
    # below threshold the drift at the solution is small even on the
    # absolute scale of the residual tolerance (above threshold only the
    # balance-scaled contract can hold in float64)
    modes, rates, dye = single_mode_problem(0.4 * TAU_L0)
    steady = find_steady_state(rates, modes, dye)
    drift = adiabatic_derivative(steady.N, rates, modes, dye)
    assert float(np.max(np.abs(drift))) <= ABS_TOL


# --- degenerate limits --------------------------------------------------------


def test_no_molecules_returns_empty_cavity():
    modes, rates, dye = single_mode_problem(5e9, M=0.0)
    steady = find_steady_state(rates, modes, dye)
    assert steady.converged
    assert np.all(steady.N == 0.0)


def test_no_pump_returns_empty_cavity():
    medium = MediumIndices(1.34, 1.34)
    modes = build_mode_set(make_cavity(), medium, 10, kappa_override=KAPPA)
    dye = make_dye(0.0)
    rates = build_rate_table(dye, modes)
    steady = find_steady_state(rates, modes, dye)
    assert steady.converged
    assert np.all(steady.N == 0.0)
    assert steady.p_e == 0.0


# --- solver contracts on the polarised ladder ---------------------------------


def test_occupations_stay_nonnegative_above_threshold():
    modes = build_mode_set(make_cavity(), SWEEP_INDICES, 60,
                           kappa_override=KAPPA)
    dye = make_dye(5e9)
    rates = build_rate_table(dye, modes)
    steady = find_steady_state(rates, modes, dye)
    assert steady.converged
    assert np.all(steady.N >= 0.0)
    assert 0.0 <= steady.p_e <= 1.0


def test_block_relabelling_is_exact():
    # swapping which polarisation carries which index must swap the
    # occupation blocks bitwise
    dye = make_dye(5e9)
    modes_a = build_mode_set(make_cavity(), MediumIndices(1.3435, 1.3395),
                             60, kappa_override=KAPPA)
    modes_b = build_mode_set(make_cavity(), MediumIndices(1.3395, 1.3435),
                             60, kappa_override=KAPPA)
    sa = find_steady_state(build_rate_table(dye, modes_a), modes_a, dye)
    sb = find_steady_state(build_rate_table(dye, modes_b), modes_b, dye)
    assert np.array_equal(sa.N[:61], sb.N[61:])
    assert np.array_equal(sa.N[61:], sb.N[:61])
    assert sa.p_e == sb.p_e


def test_total_photon_number_grows_with_pump():
    modes = build_mode_set(make_cavity(), SWEEP_INDICES, 40,
                           kappa_override=KAPPA)
    deg = modes.degeneracy.astype(float)
    totals = []
    for pump in (1e8, 5e8, 2e9, 5e9, 1e10):
        dye = make_dye(pump)
        steady = find_steady_state(build_rate_table(dye, modes), modes, dye)
        assert steady.converged
        totals.append(float(np.dot(deg, steady.N)))
    assert np.all(np.diff(totals) > 0.0)


def test_unconverged_result_is_reported_honestly(monkeypatch):
    monkeypatch.setattr(dynamics, "MAX_STEPS", 1)
    modes, rates, dye = single_mode_problem(2.0 * TAU_L0)
    far_off = np.array([1e15])
    steady = find_steady_state(
        rates, modes, dye, SolverConfig(mode="semi_dynamical"),
        seed=far_off)
    assert not steady.converged
    assert steady.residual_norm > ABS_TOL


def test_the_exact_route_ignores_a_seed():
    # a seed is read by the pseudo-transient route alone: a fixed_point
    # solve given one is bit for bit the solve without
    modes = build_mode_set(make_cavity(), SWEEP_INDICES, 30,
                           kappa_override=KAPPA)
    dye = make_dye(3e9)
    rates = build_rate_table(dye, modes)
    cold = find_steady_state(rates, modes, dye, SolverConfig())
    for seed in (cold.N, np.full(modes.size, 1e6)):
        seeded = find_steady_state(rates, modes, dye, SolverConfig(), seed)
        assert np.array_equal(seeded.N, cold.N)
        for name in ("p_e", "residual_norm", "iterations", "converged"):
            assert getattr(seeded, name) == getattr(cold, name), name


def test_crosscheck_mode_agrees_and_sums_iterations():
    modes = build_mode_set(make_cavity(), SWEEP_INDICES, 30,
                           kappa_override=KAPPA)
    dye = make_dye(3e9)
    rates = build_rate_table(dye, modes)
    only_fp = find_steady_state(rates, modes, dye,
                                SolverConfig(mode="fixed_point"))
    both = find_steady_state(rates, modes, dye,
                             SolverConfig(mode="both_crosscheck"))
    assert both.converged
    assert both.iterations >= only_fp.iterations
    assert np.array_equal(both.N, only_fp.N)


def test_exact_route_reports_its_bisection_steps():
    modes = build_mode_set(make_cavity(), SWEEP_INDICES, 30,
                           kappa_override=KAPPA)
    dye = make_dye(3e9)
    steady = find_steady_state(build_rate_table(dye, modes), modes, dye,
                               SolverConfig(mode="fixed_point"))
    assert steady.converged
    assert steady.iterations > 0


def test_seeded_pseudo_transient_solve_converges_faster():
    # the sweeps seed each pump point from its neighbour's steady state
    modes = build_mode_set(make_cavity(), SWEEP_INDICES, 30,
                           kappa_override=KAPPA)
    pt = SolverConfig(mode="semi_dynamical")
    near = make_dye(2.9e9)
    near_state = find_steady_state(build_rate_table(near, modes), modes,
                                   near, pt)
    dye = make_dye(3e9)
    rates = build_rate_table(dye, modes)
    cold = find_steady_state(rates, modes, dye, pt)
    seeded = find_steady_state(rates, modes, dye, pt, seed=near_state.N)
    exact = find_steady_state(rates, modes, dye)
    assert cold.converged and seeded.converged
    assert seeded.iterations < cold.iterations
    dev = np.abs(seeded.N - exact.N) / (np.abs(exact.N) + 1.0)
    assert np.max(dev) <= 2.0 * BALANCE_FTOL


def test_solver_config_guards():
    with pytest.raises(ValueError):
        SolverConfig(mode="implicit_euler")


def test_steady_state_residual_contract():
    # converged always implies the reported residual meets the tolerance
    modes = build_mode_set(make_cavity(), SWEEP_INDICES, 20,
                           kappa_override=KAPPA)
    for pump in (2e8, 2e9, 8e9):
        dye = make_dye(pump)
        steady = find_steady_state(build_rate_table(dye, modes), modes, dye)
        if steady.converged:
            assert steady.residual_norm <= ABS_TOL


# --- randomized solver properties ---------------------------------------------


@settings(deadline=None, max_examples=50)
@given(
    n_base=st.floats(min_value=1.30, max_value=1.38),
    split=st.floats(min_value=-5e-3, max_value=5e-3),
    l_max=st.integers(min_value=0, max_value=3),
    log_pump=st.floats(min_value=7.5, max_value=10.3),
)
def test_solver_invariants_hold_on_random_problems(n_base, split, l_max,
                                                   log_pump):
    medium = MediumIndices(n_base + split, n_base - split)
    modes = build_mode_set(make_cavity(), medium, l_max,
                           kappa_override=KAPPA)
    dye = make_dye(10.0 ** log_pump)
    rates = build_rate_table(dye, modes)
    steady = find_steady_state(rates, modes, dye)
    assert np.all(steady.N >= 0.0)
    assert np.all(np.isfinite(steady.N))
    assert 0.0 <= steady.p_e <= 1.0
    if steady.converged:
        assert steady.residual_norm <= ABS_TOL
    obs = stokes_s3(steady, modes)
    if obs.defined:
        assert -1.0 <= obs.S3 <= 1.0


# --- the batched exact solve ---------------------------------------------------

# a 402-mode pump column across the condensation knee, far ends included
KNEE_PUMPS = np.concatenate([[1e8, 6e8], np.linspace(0.9, 1.2, 13) * TEFF_L0,
                             [2e9, 6e9, 1e10]])


def ladder_system(medium, pump=0.0, l_max=200):
    ladder = mode_ladder(make_cavity(), medium, l_max, KAPPA)
    dye = make_dye(pump)
    return ladder, RateSystem.from_tables(build_rate_table(dye, ladder),
                                          ladder, dye)


def assert_rows_equal(a, b):
    assert np.array_equal(a.N, b.N)
    for name in ("p_e", "residual_norm", "iterations", "converged"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_batched_column_equals_point_solves_bitwise():
    modes = build_mode_set(make_cavity(), SWEEP_INDICES, 200,
                           kappa_override=KAPPA)
    _, sys_ = ladder_system(SWEEP_INDICES)
    batch = steady_states(sys_, KNEE_PUMPS, SolverConfig())
    assert batch.N.shape == (KNEE_PUMPS.size, 402)
    for k, pump in enumerate(KNEE_PUMPS):
        dye = make_dye(pump)
        point = find_steady_state(build_rate_table(dye, modes), modes, dye)
        assert np.array_equal(batch.N[k], point.N)
        assert batch.iterations[k] == point.iterations
        assert batch.residual_norm[k] == point.residual_norm
        assert batch.p_e[k] == point.p_e
        assert batch.converged[k] == point.converged
    assert batch.converged.all()
    # fewer h(u) evaluations than the fewest a bisection needs (52)
    assert batch.iterations.max() <= 51


def test_chunking_does_not_change_a_single_bit(monkeypatch):
    _, sys_ = ladder_system(SWEEP_INDICES)
    whole = steady_states(sys_, KNEE_PUMPS, SolverConfig())
    monkeypatch.setattr(dynamics, "CHUNK_ELEMENTS", 1)
    one_row = steady_states(sys_, KNEE_PUMPS, SolverConfig())
    monkeypatch.setattr(dynamics, "CHUNK_ELEMENTS", 10**9)
    one_chunk = steady_states(sys_, KNEE_PUMPS, SolverConfig())
    assert_rows_equal(whole, one_row)
    assert_rows_equal(whole, one_chunk)


def test_exact_route_memory_stays_within_chunks_of_the_column():
    # 2,000 rows of 402 modes span a dozen chunks.  A chunk's drift holds
    # four (rows, modes) arrays (F, b, S, gross) and its norm three more,
    # so beside the column's N the route needs seven chunk-sized arrays
    # and a little more (8.3 chunks measured); twelve leave room.  The
    # same drift and norm over the whole column would hold seven
    # column-sized arrays (7 N in all, measured).
    _, sys_ = ladder_system(SWEEP_INDICES)
    pumps = np.geomspace(1e8, 1e10, 2000)
    chunk_bytes = (dynamics.CHUNK_ELEMENTS // sys_.n) * sys_.n * 8
    assert pumps.size * sys_.n > 10 * dynamics.CHUNK_ELEMENTS
    tracemalloc.start()
    try:
        rows = steady_states(sys_, pumps, SolverConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.converged.all()
    assert peak < rows.N.nbytes + 12 * chunk_bytes, (peak, rows.N.nbytes)


def test_batched_path_keeps_the_achiral_tie_and_the_relabel_swap():
    _, tie = ladder_system(MediumIndices(1.34, 1.34))
    tied = steady_states(tie, KNEE_PUMPS, SolverConfig())
    assert np.array_equal(tied.N[:, :201], tied.N[:, 201:])
    _, sys_a = ladder_system(MediumIndices(1.3435, 1.3395))
    _, sys_b = ladder_system(MediumIndices(1.3395, 1.3435))
    a = steady_states(sys_a, KNEE_PUMPS, SolverConfig())
    b = steady_states(sys_b, KNEE_PUMPS, SolverConfig())
    assert np.array_equal(a.N[:, :201], b.N[:, 201:])
    assert np.array_equal(a.N[:, 201:], b.N[:, :201])
    assert np.array_equal(a.p_e, b.p_e)
    assert np.array_equal(a.iterations, b.iterations)


def test_batched_rows_without_pump_or_molecules_stay_empty():
    _, sys_ = ladder_system(SWEEP_INDICES)
    rows = steady_states(sys_, [0.0, 5e9, 0.0], SolverConfig())
    assert np.all(rows.N[[0, 2]] == 0.0) and np.all(rows.N[1] > 0.0)
    assert list(rows.iterations[[0, 2]]) == [0, 0]
    assert rows.converged.all()
    ladder = mode_ladder(make_cavity(), SWEEP_INDICES, 20, KAPPA)
    dark = RateSystem.from_tables(build_rate_table(make_dye(M=0.0), ladder),
                                  ladder, make_dye(M=0.0))
    assert np.all(steady_states(dark, [1e9, 5e9], SolverConfig()).N == 0.0)


@pytest.mark.parametrize("mode", dynamics.SOLVER_MODES)
def test_an_empty_pump_grid_gives_zero_rows(mode):
    _, sys_ = ladder_system(SWEEP_INDICES)
    rows = steady_states(sys_, [], SolverConfig(mode=mode))
    assert rows.N.shape == (0, sys_.n)
    for field in (rows.p_e, rows.residual_norm, rows.iterations,
                  rows.converged):
        assert field.shape == (0,)


# --- the h(u) kernels ----------------------------------------------------------


def kernel_rows(sys_):
    """Margins u, one per row, with their pumps.

    The roots at pumps over three decades and at eleven pumps across the
    knee, then a geometric spread of u up to umax / 2, where some rows
    leave the physical range.
    """
    pumps = np.concatenate([np.logspace(8, 11, 7),
                            np.linspace(0.95, 1.05, 11) * TEFF_L0])
    roots = winner_margin(sys_, steady_states(sys_, pumps, SolverConfig()).N)
    u = np.concatenate([roots, np.geomspace(1e-12, 0.5, 9) * sys_.umax])
    return u, np.concatenate([pumps, np.full(9, 2e9)])


@pytest.mark.parametrize("l_max", [0, 30, 200, 2000])
def test_h_kernels_agree_with_the_direct_formulas(l_max):
    # the precomputed coefficients round differently from the direct
    # formula: 1e-12 relatively per mode, widened only where a near-tied
    # mode's margin cancels (condition number up to about 4e4 here)
    _, sys_ = ladder_system(SWEEP_INDICES, l_max=l_max)
    u, pumps = kernel_rows(sys_)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        N, x, bad = sys_.occ_at_u(u)
        N_ref, x_ref, bad_ref, cond = direct_occ_at_u(sys_, u)
        h = sys_.h_of_u(u, pumps)
        Gu_ref, Gd_ref = direct_totals(sys_, N_ref, pumps)
    assert np.array_equal(x, x_ref) and np.array_equal(bad, bad_ref)
    ok = ~bad
    assert ok[:18].all()
    tol = 1e-12 + 8.0 * np.finfo(float).eps * cond[ok]
    assert np.all(np.abs(N[ok] - N_ref[ok]) <= tol * N_ref[ok])
    Gu, Gd = sys_.totals(N_ref[ok], pumps[ok])
    assert np.all(np.abs(Gu - Gu_ref[ok]) <= 1e-12 * Gu_ref[ok])
    assert np.all(np.abs(Gd - Gd_ref[ok]) <= 1e-12 * Gd_ref[ok])
    # h = x (Gu + Gd) - Gu, to 1e-12 of its larger term
    scale = x_ref[ok] * (Gu_ref[ok] + Gd_ref[ok])
    assert np.all(np.abs(h[ok] - (scale - Gu_ref[ok])) <= 1e-12 * scale)
    assert np.all(h[bad] == np.inf)


@pytest.mark.parametrize("rows", [1, 2, 3, 5, 17])
@pytest.mark.parametrize("l_max", [30, 200, 2000])
def test_stacked_rows_get_the_bits_of_lone_rows(l_max, rows):
    # totals takes one BLAS dot per row and block, as a lone row does; a
    # single gemv over the stack would round the rows differently
    _, sys_ = ladder_system(SWEEP_INDICES, l_max=l_max)
    pumps = np.logspace(8.5, 10.0, rows)
    u = winner_margin(sys_, steady_states(sys_, pumps, SolverConfig()).N)
    N = sys_.occ_at_u(u)[0]
    Gu, Gd = sys_.totals(N, pumps)
    h = sys_.h_of_u(u, pumps)
    for k in range(rows):
        assert np.array_equal(sys_.occ_at_u(u[k:k + 1])[0][0], N[k])
        assert (Gu[k], Gd[k]) == sys_.totals(N[k], pumps[k])
        assert h[k] == sys_.h_of_u(u[k:k + 1], pumps[k:k + 1])[0]


# --- the root search against the bisection oracle -------------------------------

# 1e8 .. 1e11 in tenths of a decade, plus the knee (TEFF_L0 itself included)
HAZARD_PUMPS = np.concatenate([np.logspace(8, 11, 31),
                               np.linspace(0.9, 1.2, 13) * TEFF_L0])


def winner_margin(sys_, N):
    """The winner's margin u of occupations N, from N_w = Mdn_w x / u."""
    w = sys_.w
    return sys_.Mdn[w] * sys_.umax / (N[..., w] * sys_.x_scale + sys_.Mdn[w])


def assert_matches_the_oracle(sys_, pumps):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = steady_states(sys_, pumps, SolverConfig())
    N_oracle, _ = bisect_margin_roots(sys_, pumps)
    assert rows.converged.all()
    assert rows.iterations.max() <= 51
    assert np.all(np.abs(rows.N - N_oracle) <= 1e-11 * N_oracle)
    # the search starts its geometric steps from a bound below the root
    assert np.all(sys_.root_floor(pumps) < winner_margin(sys_, N_oracle))


@pytest.mark.parametrize("l_max", [0, 30, 200, 2000])
def test_root_search_matches_the_bisection_oracle(l_max):
    # the root sits decades below umax, behind a band where h = +inf
    _, sys_ = ladder_system(SWEEP_INDICES, l_max=l_max)
    assert_matches_the_oracle(sys_, HAZARD_PUMPS)


def test_root_search_survives_an_exact_zero_plateau():
    # h(u) is exactly 0.0 over hundreds of ulps around this row's root,
    # where a regula falsi step makes one-ulp progress
    _, sys_ = ladder_system(refractive_indices(BASE_INDEX, -1.1476e-5))
    pump = np.array([1.2644e9])
    N_oracle, _ = bisect_margin_roots(sys_, pump)
    u_root = float(winner_margin(sys_, N_oracle[0]))
    u = u_root + np.arange(-400, 401) * math.ulp(u_root)
    h = sys_.h_of_u(u, np.full(u.size, pump[0]))
    assert np.count_nonzero(h == 0.0) > 100
    assert_matches_the_oracle(sys_, pump)


def drive_root_search(h, umax=1.0, floor=1e-6):
    """Run _root_search on a synthetic h(u); one (u, lo, hi) per evaluation.

    lo and hi are the bracket the search held when it chose u; the last
    entry is the bracket it returned.
    """
    search = dynamics._root_search(umax, floor)
    lo, hi = 0.0, umax
    trace = []
    try:
        u = next(search)
        while True:
            trace.append((u, lo, hi))
            value = h(u)
            if value < 0.0:
                hi = u
            else:
                lo = u
            u = search.send(value)
    except StopIteration as end:
        trace.append((math.nan,) + end.value[:2])
    return trace


def step_h(root, up, down):
    """h = up below the root and -down above it: Illinois creeps here."""
    return lambda u: up if u < root else -down


# smooth roots, and jumps with no root that pull the regula falsi step
# to within a few ulps of one end, where it creeps from that side
SYNTHETIC_H = {
    "reciprocal": lambda u: 1e-3 / u - 1.0,
    "eighth_power": lambda u: (3e-4 / u) ** 8 - 1.0,
    "tanh": lambda u: math.tanh(1e5 * (2e-3 - u)),
    **{f"jump_at_{root:g}_from_{up:g}_to_{-down:g}": step_h(root, up, down)
       for root in (1e-5, 0.7)
       for up, down in ((1.0, 1e10), (1.0, 1e20), (1e10, 1.0), (1e20, 1.0))},
}
over_synthetic_h = pytest.mark.parametrize(
    "h", list(SYNTHETIC_H.values()), ids=list(SYNTHETIC_H))


@over_synthetic_h
def test_root_search_candidates_keep_clear_of_the_bracket_ends(h):
    # each candidate sits at least min(4 ulp, width / 4) inside the
    # bracket, up to the rounding of the candidate itself
    trace = drive_root_search(h)
    for u, lo, hi in trace[:-1]:
        slack = 0.5 * math.ulp(u)
        assert u - lo >= min(4.0 * math.ulp(lo), 0.25 * (hi - lo)) - slack
        assert hi - u >= min(4.0 * math.ulp(hi), 0.25 * (hi - lo)) - slack
    lo, hi = trace[-1][1:]
    assert lo <= hi and len(trace) - 1 <= 201


@over_synthetic_h
def test_root_search_halves_the_bracket_every_four_evaluations(h):
    # once past the geometric phase (both ends evaluated, hi within
    # 4 max(lo, floor)), no four evaluations pass without the bracket
    # width halving
    umax, floor = 1.0, 1e-6
    trace = drive_root_search(h, umax, floor)
    widths = [hi - lo for _, lo, hi in trace]
    for k, (_, lo, hi) in enumerate(trace[:-1]):
        geometric = lo == 0.0 or hi == umax or hi > 4.0 * max(lo, floor)
        if k >= 3 and not geometric:
            assert widths[k + 1] <= 0.5 * widths[k - 3] + math.ulp(hi), k


# --- the cross-check bound --------------------------------------------------------


def test_crosscheck_bound_follows_the_convergence_contract():
    assert crosscheck_bound() == 4.0 * BALANCE_FTOL


def test_crosscheck_is_silent_on_correct_answers():
    # 402 modes, 25 pumps across the knee: the pseudo-transient route is
    # seeded along the column (as in the sweeps) and cold (one point)
    _, sys_ = ladder_system(SWEEP_INDICES)
    pumps = np.logspace(8, 10, 25)
    rows = steady_states(sys_, pumps, SolverConfig(mode="both_crosscheck"))
    assert rows.converged.all()
    modes = build_mode_set(make_cavity(), SWEEP_INDICES, 200,
                           kappa_override=KAPPA)
    for pump in pumps:
        dye = make_dye(pump)
        steady = find_steady_state(build_rate_table(dye, modes), modes, dye,
                                   SolverConfig(mode="both_crosscheck"))
        assert steady.converged


@pytest.mark.parametrize("corrupt", [
    lambda N: N * (1.0 + 10.0 * crosscheck_bound()),
    lambda N: np.full_like(N, np.nan),
], ids=["off_by_ten_bounds", "not_finite"])
def test_crosscheck_fires_on_a_wrong_answer(monkeypatch, corrupt):
    # a NaN gap compares False against the bound, and must fail all the same
    honest = dynamics._semi_dynamical

    def wrong(*args):
        N, *rest = honest(*args)
        return corrupt(N), *rest

    monkeypatch.setattr(dynamics, "_semi_dynamical", wrong)
    _, sys_ = ladder_system(SWEEP_INDICES)
    with pytest.raises(CrosscheckError, match="deviates"):
        steady_states(sys_, [3e9], SolverConfig(mode="both_crosscheck"))


def test_crosscheck_seeds_each_row_from_its_own_previous_answer(monkeypatch):
    # the check's start must not be the exact answer it checks: row 1
    # starts at row 0's answer, every later row at the secant predictor
    # of its own route's two answers before it
    honest = dynamics._semi_dynamical
    seeds, answers = [], []

    def recorded(sys_, pump, N0, *rest):
        seeds.append(N0)
        out = honest(sys_, pump, N0, *rest)
        answers.append(out[0])
        return out

    monkeypatch.setattr(dynamics, "_semi_dynamical", recorded)
    _, sys_ = ladder_system(SWEEP_INDICES)
    pumps = np.logspace(8, 10, 6)
    steady_states(sys_, pumps, SolverConfig(mode="both_crosscheck"))
    assert len(seeds) == 6 and seeds[0] is None
    assert seeds[1] is answers[0]
    for k in range(2, 6):
        assert np.array_equal(
            seeds[k], dynamics.secant_seed(answers[k - 2], answers[k - 1]))
    exact = steady_states(sys_, pumps, SolverConfig()).N
    for seed in seeds[1:]:
        assert not any(np.array_equal(seed, row) for row in exact)


def test_each_pseudo_transient_candidate_costs_one_drift(monkeypatch):
    # one totals call per row for its seed's drift, one per candidate
    # step (its drift serves the norm and the next step), one for p_e;
    # the route reaches its answer through F(N) alone, never the margin
    # reduction of the exact route
    _, sys_ = ladder_system(SWEEP_INDICES)
    calls = []
    totals = RateSystem.totals

    def counted(self, N, pump):
        calls.append(1)
        return totals(self, N, pump)

    def forbidden(*args):
        raise AssertionError("the exact route's reduction was called")

    monkeypatch.setattr(RateSystem, "totals", counted)
    monkeypatch.setattr(RateSystem, "occ_at_u", forbidden)
    monkeypatch.setattr(RateSystem, "h_of_u", forbidden)
    rows = steady_states(sys_, KNEE_PUMPS, SolverConfig(mode="semi_dynamical"))
    assert rows.converged.all()
    assert len(calls) <= rows.iterations.sum() + KNEE_PUMPS.size + 1


def count_totals(monkeypatch):
    calls = []
    totals = RateSystem.totals

    def counted(self, N, pump):
        calls.append(1)
        return totals(self, N, pump)

    monkeypatch.setattr(RateSystem, "totals", counted)
    return calls


def test_exact_route_reads_p_e_off_the_norm_drift(monkeypatch):
    # one totals call per lock step of the root search (one chunk), one
    # for the drift that gives both the residual norm and p_e
    _, sys_ = ladder_system(SWEEP_INDICES)
    assert KNEE_PUMPS.size * sys_.n <= dynamics.CHUNK_ELEMENTS
    calls = count_totals(monkeypatch)
    rows = steady_states(sys_, KNEE_PUMPS, SolverConfig())
    assert rows.converged.all()
    assert len(calls) == rows.iterations.max() + 1
    # and p_e is the slaved fraction of the returned occupations
    Gu, Gd = sys_.totals(rows.N, KNEE_PUMPS)
    assert np.array_equal(rows.p_e, Gu / (Gu + Gd))


def test_pseudo_transient_route_reads_p_e_off_its_last_drift(monkeypatch):
    # a seed drift per row and one drift per candidate step; p_e comes
    # from the last accepted drift, so every totals call is a drift's
    _, sys_ = ladder_system(SWEEP_INDICES)
    calls = count_totals(monkeypatch)
    drifts = []
    drift = RateSystem.drift

    def counted_drift(self, N, pump):
        drifts.append(1)
        return drift(self, N, pump)

    monkeypatch.setattr(RateSystem, "drift", counted_drift)
    rows = steady_states(sys_, KNEE_PUMPS, SolverConfig(mode="semi_dynamical"))
    assert rows.converged.all()
    assert len(calls) == len(drifts)
    assert len(calls) <= rows.iterations.sum() + KNEE_PUMPS.size
    # and p_e is the slaved fraction of the returned occupations
    Gu, Gd = sys_.totals(rows.N, KNEE_PUMPS)
    assert np.array_equal(rows.p_e, Gu / (Gu + Gd))


def test_clamped_rows_read_p_e_off_the_clamped_occupations(monkeypatch):
    # a row with a negative occupation is clamped and flagged; its p_e
    # is that of the clamped state, the other rows keep their own
    _, sys_ = ladder_system(SWEEP_INDICES)
    pumps = np.array([6e8, 2e9])
    honest = RateSystem.solve

    def one_bad_row(self, pump):
        N, steps = honest(self, pump)
        N[1, 3] = -1.0
        return N, steps

    monkeypatch.setattr(RateSystem, "solve", one_bad_row)
    rows = steady_states(sys_, pumps, SolverConfig())
    assert list(rows.converged) == [True, False]
    assert np.all(rows.N >= 0.0)
    Gu, Gd = sys_.totals(rows.N, pumps)
    assert np.array_equal(rows.p_e, Gu / (Gu + Gd))


# --- seeded pseudo-transient solves ---------------------------------------------

PT = SolverConfig(mode="semi_dynamical")


def max_route_gap(a, b):
    """Largest relative occupation gap, as the cross-check measures it."""
    return float(np.max(np.abs(a - b) / (np.maximum(a, b) + 1.0)))


@pytest.mark.parametrize("seed", [np.ones(1), np.full(402, np.nan),
                                  np.full(402, -1.0)],
                         ids=["wrong_length", "not_finite", "negative"])
def test_a_bad_seed_is_rejected(seed):
    _, sys_ = ladder_system(SWEEP_INDICES)
    with pytest.raises(ValueError, match="seed"):
        steady_states(sys_, [3e9], PT, seed)
    modes = build_mode_set(make_cavity(), SWEEP_INDICES, 200,
                           kappa_override=KAPPA)
    dye = make_dye(3e9)
    with pytest.raises(ValueError, match="seed"):
        find_steady_state(build_rate_table(dye, modes), modes, dye, PT,
                          seed=seed)


def assert_seeded_solves_are_safeguarded(sys_, pumps, pairs):
    # seeded from the exact answer at pumps[i], the solve at pumps[j]
    # converges within the cross-check bound and takes at most 12 steps
    # (the Newton-scale budget) more than the cold schedule from the same
    # seed, which is a seeded solve with no budget
    exact = steady_states(sys_, pumps, SolverConfig())

    def solves():
        return [steady_states(sys_, pumps[j:j + 1], PT, exact.N[i])
                for i, j in pairs]

    seeded = solves()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "SEEDED_STEPS", 0)
        cold = solves()
    for (i, j), fast, slow in zip(pairs, seeded, cold):
        assert fast.converged[0] and slow.converged[0], (i, j)
        assert fast.iterations[0] <= slow.iterations[0] + 12, (i, j)
        assert max_route_gap(fast.N[0], exact.N[j]) <= crosscheck_bound()


def test_seeded_solves_never_cost_more_than_the_budget():
    # every ascending pair of a grid across seven decades and the knee
    _, sys_ = ladder_system(SWEEP_INDICES)
    pumps = np.logspace(6, 13, 15)
    pairs = [(i, j) for i in range(pumps.size)
             for j in range(i + 1, pumps.size)]
    assert_seeded_solves_are_safeguarded(sys_, pumps, pairs)


@pytest.mark.parametrize("pumps", [
    np.logspace(7, 11, 8), np.logspace(7, 11, 5), np.logspace(7, 11, 3),
    np.logspace(8, 10, 20), np.linspace(1.2e9, 1.4e9, 9),
    np.logspace(6, 13, 12)], ids=lambda p: f"{p[0]:.1e}-{p[-1]:.1e}x{p.size}")
def test_coarse_sweeps_never_cost_more_than_the_budget(pumps):
    # each point seeded from its neighbour below, as the sweeps run
    _, sys_ = ladder_system(SWEEP_INDICES)
    pairs = [(k - 1, k) for k in range(1, pumps.size)]
    assert_seeded_solves_are_safeguarded(sys_, pumps, pairs)
    column = steady_states(sys_, pumps, PT)
    exact = steady_states(sys_, pumps, SolverConfig())
    assert column.converged.all()
    assert max_route_gap(column.N, exact.N) <= crosscheck_bound()


def test_a_seeded_column_starts_at_newton_scale():
    # 200 ascending pumps across the knee: the cold schedule from each
    # seed takes 14.4 steps per row on average, Newton-scale starts 2.7
    _, sys_ = ladder_system(SWEEP_INDICES)
    pumps = np.logspace(8, 10, 200)
    rows = steady_states(sys_, pumps, PT)
    exact = steady_states(sys_, pumps, SolverConfig())
    assert rows.converged.all()
    assert rows.iterations.mean() <= 4.0
    assert max_route_gap(rows.N, exact.N) <= crosscheck_bound()


def test_the_secant_seed_passes_the_first_answer_through_and_clamps_at_zero():
    last = np.array([0.0, 1.0, 2.0, 5.0])
    assert secant_seed(None, last) is last
    before = np.array([1.0, 3.0, 2.0, 1.0])
    seed = secant_seed(before, last)
    assert np.array_equal(seed, [0.0, 0.0, 2.0, 9.0])
    assert np.all(seed >= 0.0)
    assert np.array_equal(before, [1.0, 3.0, 2.0, 1.0])
    assert np.array_equal(last, [0.0, 1.0, 2.0, 5.0])


def test_a_secant_seeded_column_takes_fewer_steps():
    # default config at 4002 modes, 200 ascending pumps across the knee:
    # seeding each row with the previous answer alone takes 615 steps,
    # the secant predictor 363
    config = default_config()
    ladder = mode_ladder(config.cavity, config.medium_indices(), 2000,
                         config.kappa_override)
    sys_ = RateSystem.from_tables(build_rate_table(config.dye, ladder),
                                  ladder, config.dye)
    pumps = np.logspace(8, 10, 200)
    rows = steady_states(sys_, pumps, PT)
    exact = steady_states(sys_, pumps, SolverConfig())
    assert rows.converged.all()
    assert rows.iterations.sum() <= 2.2 * pumps.size
    assert max_route_gap(rows.N, exact.N) <= crosscheck_bound()
