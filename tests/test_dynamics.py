"""Rate-equation dynamics: derivatives, steady-state solvers, symmetries."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polarbec import (
    MediumIndices,
    Mode,
    SolverConfig,
    SteadyState,
    SystemState,
    adiabatic_derivative,
    build_mode_set,
    build_rate_table,
    cutoff_frequency,
    find_steady_state,
    full_derivatives,
    lateral_frequency,
    stokes_s3,
    total_rates,
)
from polarbec.dynamics import BALANCE_FTOL

from conftest import (
    KAPPA,
    SWEEP_INDICES,
    TAU_L0,
    bisect_single_mode,
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
    modes = [Mode(j=7, l=0, sigma="L", omega=om0, kappa=KAPPA),
             Mode(j=7, l=1, sigma="L", omega=om0 + lat, kappa=KAPPA)]
    dye = make_dye(pump)
    return modes, build_rate_table(dye, modes), dye


# --- collective rates and derivatives ----------------------------------------


def test_total_rates_empty_cavity():
    modes, rates, dye = two_mode_problem(pump=5e9)
    Gu, Gd = total_rates(SystemState(np.zeros(2), 0.0), rates, modes, dye)
    # no photons: excitation is the bare pump, de-excitation carries the
    # bare decay plus one spontaneous quantum per sublevel
    dn0, up0 = rates.gamma_down[0], rates.gamma_up[0]
    dn1, up1 = rates.gamma_down[1], rates.gamma_up[1]
    assert Gu == pytest.approx(5e9, rel=1e-15)
    assert Gd == pytest.approx(dye.gamma_down + 1 * dn0 + 2 * dn1, rel=1e-14)


def test_total_rates_weights_by_degeneracy():
    modes, rates, dye = two_mode_problem(pump=5e9)
    N = np.array([2.0, 3.0])
    Gu, Gd = total_rates(SystemState(N, 0.0), rates, modes, dye)
    dn0, up0 = rates.gamma_down[0], rates.gamma_up[0]
    dn1, up1 = rates.gamma_down[1], rates.gamma_up[1]
    assert Gu == pytest.approx(5e9 + 1 * 2.0 * up0 + 2 * 3.0 * up1, rel=1e-14)
    assert Gd == pytest.approx(
        dye.gamma_down + 1 * 3.0 * dn0 + 2 * 4.0 * dn1, rel=1e-14)


def test_full_derivatives_empty_cavity_kick():
    # unexcited molecules in a dark cavity: photons stay put, the pump
    # drives the excited fraction at exactly its bare rate
    modes, rates, dye = two_mode_problem(pump=5e9)
    dN, dpe = full_derivatives(SystemState(np.zeros(2), 0.0), rates, modes,
                               dye)
    assert np.all(dN == 0.0)
    assert dpe == pytest.approx(5e9, rel=1e-15)


def test_full_derivatives_pure_loss_when_molecules_idle():
    # fully de-excited molecules that cannot absorb (M = 0): cavity decay
    # is the only photon channel left
    modes, rates, dye = two_mode_problem(pump=0.0)
    dark = replace(dye, M=0.0)
    rates_dark = build_rate_table(dark, modes)
    N = np.array([4.0, 1.0])
    dN, _ = full_derivatives(SystemState(N, 0.0), rates_dark, modes, dark)
    assert dN == pytest.approx(-KAPPA * N, rel=1e-15)


def test_adiabatic_matches_full_at_slaved_fraction():
    # eliminating p_e at its quasi-stationary value must reproduce the
    # full photon drift identically, at any occupation
    modes, rates, dye = single_mode_problem(pump=2.0 * TAU_L0)
    for N in (np.array([0.0]), np.array([3.0]), np.array([4.77e9])):
        Gu, Gd = total_rates(SystemState(N, 0.0), rates, modes, dye)
        p_slaved = Gu / (Gu + Gd)
        dN_full, dpe = full_derivatives(SystemState(N, p_slaved), rates,
                                        modes, dye)
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
        SystemState(np.zeros(2), 1.2)
    with pytest.raises(ValueError):
        SystemState(np.zeros(2), -0.1)
    with pytest.raises(ValueError):
        full_derivatives(SystemState(np.zeros(3), 0.0), rates, modes, dye)
    with pytest.raises(ValueError):
        adiabatic_derivative(np.zeros(1), rates, modes, dye)


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
    deg = np.array([m.degeneracy for m in modes], dtype=float)
    totals = []
    for pump in (1e8, 5e8, 2e9, 5e9, 1e10):
        dye = make_dye(pump)
        steady = find_steady_state(build_rate_table(dye, modes), modes, dye)
        assert steady.converged
        totals.append(float(np.dot(deg, steady.N)))
    assert np.all(np.diff(totals) > 0.0)


def test_unconverged_result_is_reported_honestly():
    modes, rates, dye = single_mode_problem(2.0 * TAU_L0)
    far_off = SystemState(np.array([1e15]), 0.0)
    steady = find_steady_state(
        rates, modes, dye, SolverConfig(mode="semi_dynamical", max_iters=1),
        initial=far_off)
    assert not steady.converged
    assert steady.residual_norm > ABS_TOL


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
    seeded = find_steady_state(rates, modes, dye, pt,
                               initial=SystemState(near_state.N,
                                                   near_state.p_e))
    exact = find_steady_state(rates, modes, dye)
    assert cold.converged and seeded.converged
    assert seeded.iterations < cold.iterations
    dev = np.abs(seeded.N - exact.N) / (np.abs(exact.N) + 1.0)
    assert np.max(dev) <= 2.0 * BALANCE_FTOL


def test_solver_config_guards():
    with pytest.raises(ValueError):
        SolverConfig(mode="implicit_euler")
    with pytest.raises(ValueError):
        SolverConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)


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
