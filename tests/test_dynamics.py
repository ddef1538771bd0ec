"""Rate-equation dynamics: derivatives, steady-state solvers, symmetries."""

from __future__ import annotations

import math
import re
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
from polarbec import dynamics, sweeps
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
    count_system_builds,
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
    # a (1, n) or (n, 1) state holds one occupation per mode but is not
    # one vector of them: every caller refuses it, naming its shape
    for N in (np.zeros((1, 2)), np.zeros((2, 1))):
        steady = SteadyState(N=N, p_e=0.5, residual_norm=0.0, iterations=0,
                             converged=True)
        for call in (lambda: total_rates(N, rates, modes, dye),
                     lambda: adiabatic_derivative(N, rates, modes, dye),
                     lambda: full_derivatives(N, 0.5, rates, modes, dye),
                     lambda: stokes_s3(steady, modes)):
            with pytest.raises(ValueError, match=re.escape(f"{N.shape}")):
                call()


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


# --- the detailed-balance limit -----------------------------------------------

# uniform losses, in 1/s, from well below the reference loss down
DB_KAPPAS = [1e6, 1e5, 1e4, 1e3, 1e2]


@pytest.mark.parametrize("chi", [0.0, 3e-5])
@pytest.mark.parametrize("l_max", [30, 200])
def test_both_routes_approach_detailed_balance_as_the_loss_vanishes(l_max,
                                                                    chi):
    # Without loss the photons only trade excitations with the dye: the
    # molecules balance pump (1 - x) = gamma_down x, so q = x / (1 - x) =
    # pump / gamma_down, and each mode holds dn (N + 1) x = up N (1 - x),
    # so N_db = r q / (1 - r q) with r = dn / up.  That needs r q < 1 on
    # every mode: the pump is half the lowest gain-balance threshold
    # gamma_down up / dn.
    # With a uniform loss kappa each mode holds N = M dn x / (kappa + m),
    # m = M up (1 - x) (1 - r q) its margin without loss.  So the gap
    # max |N - N_db| / (N_db + 1) is c kappa (1 - kappa / m + ...): across
    # the decades gap / kappa stays within kappa / m_min of its value at
    # the smallest kappa, relatively; the test allows twice that, for the
    # loss's own shift of x (relatively 1e-14 per unit kappa here) and
    # rounding (about 1e-15 on N, 2e-8 of the smallest gap).
    # The pseudo-transient route stops within 2 BALANCE_FTOL of the exact
    # occupation, relatively (crosscheck_bound), so its gap stays within
    # that band plus 2 BALANCE_FTOL.
    dye = make_dye(0.0)
    gaps = {"fixed_point": [], "semi_dynamical": []}
    medium = refractive_indices(BASE_INDEX, chi)
    for kappa in DB_KAPPAS:
        ladder = mode_ladder(make_cavity(), medium, l_max, kappa)
        rates = build_rate_table(dye, ladder)
        up, dn = rates.gamma_up, rates.gamma_down
        pump = 0.5 * dye.gamma_down * float(np.min(up / dn))
        q = pump / dye.gamma_down
        rq = dn / up * q
        N_db = rq / (1.0 - rq)
        m_min = float(np.min(dye.M * up * (1.0 - rq) / (1.0 + q)))
        sys_ = RateSystem.from_tables(rates, ladder, dye)
        for mode, gap in gaps.items():
            rows = steady_states(sys_, [pump], SolverConfig(mode=mode))
            assert rows.converged.all(), (mode, kappa)
            gap.append(float(np.max(np.abs(rows.N[0] - N_db) / (N_db + 1.0))))
    c = gaps["fixed_point"][-1] / DB_KAPPAS[-1]
    for kappa, gap, gap_pt in zip(DB_KAPPAS, *gaps.values()):
        band = 2.0 * kappa / m_min
        assert abs(gap / kappa / c - 1.0) <= band, kappa
        assert gap_pt <= c * kappa * (1.0 + band) + 2.0 * BALANCE_FTOL, kappa


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
    # a NaN seed too: the exact route never reads it, so never checks it
    for seed in (cold.N, np.full(modes.size, 1e6),
                 np.full(modes.size, np.nan)):
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
    # five (rows, modes) arrays (b, S, gross, the norm's floor and F), so
    # beside the column's N the route needs five chunk-sized arrays and
    # a little more (5.2 chunks measured); twelve leave room.  The same
    # drift over the whole column would hold five column-sized arrays
    # (6 N in all, measured).
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
    ladder, sys_ = ladder_system(SWEEP_INDICES, l_max=l_max)
    pumps = np.logspace(8.5, 10.0, rows)
    u = winner_margin(sys_, steady_states(sys_, pumps, SolverConfig()).N)
    N, x, bad = sys_.occ_at_u(u)
    Gu, Gd = sys_.totals(N, pumps)
    h = sys_.h_of_u(u, pumps)
    obs = sweeps._readout(N, ladder)
    for k in range(rows):
        assert np.array_equal(sys_.occ_at_u(u[k:k + 1])[0][0], N[k])
        lone = sweeps._readout(N[k], ladder)
        assert lone.keys() == obs.keys()
        for name, value in lone.items():
            assert value.tobytes() == obs[name][k].tobytes(), name
        assert (Gu[k], Gd[k]) == sys_.totals(N[k], pumps[k])
        assert h[k] == sys_.h_of_u(u[k:k + 1], pumps[k:k + 1])[0]
        # a float margin is one row: the lone path of the exact route
        N_k, x_k, bad_k = sys_.occ_at_u(float(u[k]))
        assert N_k.shape == (sys_.n,) and np.array_equal(N_k, N[k])
        assert x_k == x[k] and bad_k == bad[k]
        assert h[k] == sys_.h_of_u(float(u[k]), float(pumps[k]))


def test_every_lone_row_block_sum_goes_through_row_dot(monkeypatch):
    # a lone row's block sums take one path, row_dot's np.dot on 1-D
    # blocks: a float-margin h(u), a 1-D drift, a pseudo-time step and a
    # Stokes readout all reach it, with the bits they have unwrapped
    ladder, sys_ = ladder_system(SWEEP_INDICES, l_max=30)
    pump = 1.1 * TEFF_L0
    N = sys_.solve([pump])[0][0]
    drift = sys_.drift(N, pump)
    steady = SteadyState(N=N, p_e=0.5, residual_norm=0.0, iterations=0,
                         converged=True)
    calls = {
        "h_of_u": lambda: [sys_.h_of_u(float(winner_margin(sys_, N)), pump)],
        "drift": lambda: sys_.drift(N, pump),
        "_pt_step": lambda: [dynamics._pt_step(sys_, N, drift,
                                               1.0 / sys_.kappa_min)],
        "stokes_s3": lambda: list(vars(stokes_s3(steady, ladder)).values()),
    }

    def bits(values):
        return [np.asarray(v, dtype=float).tobytes() for v in values]

    unwrapped = {name: bits(call()) for name, call in calls.items()}
    honest, ranks = dynamics.row_dot, []

    def recorder(a, c):
        ranks.append(a.ndim)
        return honest(a, c)

    for module in (dynamics, sweeps):
        monkeypatch.setattr(module, "row_dot", recorder)
    for name, call in calls.items():
        ranks.clear()
        assert bits(call()) == unwrapped[name], name
        assert ranks and set(ranks) == {1}, (name, ranks)


@pytest.mark.parametrize("l_max", [30, 200, 2000])
def test_a_lone_row_solves_to_the_bits_of_its_row_in_a_column(l_max):
    # solve runs one live row on floats and a column in lock step; both
    # must give the same occupations and the same number of h(u) calls
    _, sys_ = ladder_system(SWEEP_INDICES, l_max=l_max)
    pumps = np.array([0.5, 0.9, 1.0, 1.1, 2.0]) * TEFF_L0
    N, steps = sys_.solve(pumps)
    for k, pump in enumerate(pumps):
        for column in ([pump], [0.0, pump]):
            N_k, steps_k = sys_.solve(column)
            assert np.array_equal(N_k[-1], N[k]) and steps_k[-1] == steps[k]
            assert np.all(N_k[:-1] == 0.0) and np.all(steps_k[:-1] == 0)
    assert np.all(N > 0.0) and np.all(steps > 0)
    # no pump, or no molecules: the empty cavity, with no h(u) evaluation
    ladder = mode_ladder(make_cavity(), SWEEP_INDICES, l_max, KAPPA)
    dark = RateSystem.from_tables(build_rate_table(make_dye(M=0.0), ladder),
                                  ladder, make_dye(M=0.0))
    for system, pump in ((sys_, 0.0), (dark, TEFF_L0)):
        N_0, steps_0 = system.solve([pump])
        assert N_0.shape == (1, system.n) and np.all(N_0 == 0.0)
        assert steps_0.tolist() == [0]


@pytest.mark.parametrize("M, up, dn", [
    (1.88e278, 1e124, 1e124),   # umax overflows: no h(u) is evaluated
    (1e10, 1.0, 1e300),         # x_scale overflows: h(u) is inf
    (1e-300, 1e-30, 1e-30),     # x_scale underflows to 0: x = (umax - u) / 0
])
def test_a_lone_row_of_an_overflowing_system_matches_its_column(M, up, dn):
    # the lone path keeps x in numpy scalars, which a Python float would
    # not do: it raises ZeroDivisionError where numpy gives inf
    with np.errstate(all="ignore"):
        sys_ = RateSystem([1, 2], [up, 2 * up], [dn, 3 * dn], [1e8, 2e8], M,
                          1e9, 1)
    for pump in (1e9, 1e300):
        N, steps = sys_.solve([pump])
        column = sys_.solve([pump, pump])
        assert np.array_equal(N[0], column[0][1], equal_nan=True)
        assert steps[0] == column[1][1]


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


def test_clamped_rows_read_their_norm_off_the_clamped_occupations(
        monkeypatch):
    # the exact route clamps before its drift: a clamped row's residual is
    # that of the occupations it holds, and converged is that norm's test
    _, sys_ = ladder_system(SWEEP_INDICES)
    pumps = np.array([6e8, 2e9])
    honest = RateSystem.solve

    def one_bad_row(self, pump):
        N, steps = honest(self, pump)
        N[1, 3] = -1.0
        return N, steps

    monkeypatch.setattr(RateSystem, "solve", one_bad_row)
    rows = steady_states(sys_, pumps, SolverConfig())
    assert rows.N[1, 3] == 0.0
    for k, pump in enumerate(pumps):
        norm = sys_.drift(rows.N[k], pump)[2]
        assert rows.residual_norm[k] == norm
        assert rows.converged[k] == (norm <= sys_.abs_tol)


# --- the convergence norm --------------------------------------------------------


def written_out_norm(sys_, N, pump):
    """The balance-scaled residual norm, term by term, per row.

    F and b are the drift's; S = r dn Gu and the gross one-way flux
    kap N + r (dn (N + 1) Gu + up N Gd), r = M / (Gu + Gd), are written
    out here.  floor = abs_tol + BALANCE_FTOL (S + |b N|) + CANCEL_EPS
    gross with abs_tol = TOL_PER_KAPPA kappa_min, and the norm is
    max(|F| / floor) abs_tol.
    """
    abs_tol = dynamics.TOL_PER_KAPPA * float(np.min(sys_.kap))
    F, b, *_, Gu, Gd = sys_.drift(N, pump)
    gu, gd = np.asarray(Gu)[..., None], np.asarray(Gd)[..., None]
    r = sys_.M / (gu + gd)
    S = r * sys_.dn * gu
    gross = ((N + 1.0) * sys_.dn * gu + sys_.up * N * gd) * r + sys_.kap * N
    floor = (abs_tol + BALANCE_FTOL * (S + np.abs(b * N))
             + dynamics.CANCEL_EPS * gross)
    return np.max(np.abs(F) / floor, axis=-1) * abs_tol


@pytest.mark.parametrize("l_max", [0, 30, 200])
def test_the_drift_norm_is_the_written_out_floor_bitwise(l_max):
    # at the exact answer, a perturbed copy and the empty cavity, each
    # alone and stacked as three rows, at every pump across the knee
    _, sys_ = ladder_system(SWEEP_INDICES, l_max=l_max)
    assert sys_.abs_tol == dynamics.TOL_PER_KAPPA * float(np.min(sys_.kap))
    wobble = 1.0 + 1e-3 * np.cos(np.arange(sys_.n))
    for pump in KNEE_PUMPS.tolist():
        exact = sys_.solve(pump)[0][0]
        states = (exact, exact * wobble, np.zeros(sys_.n))
        lone = []
        for N in states:
            norm = sys_.drift(N, pump)[2]
            assert norm.shape == ()
            assert norm == written_out_norm(sys_, N, pump)
            lone.append(norm)
        assert lone[0] <= sys_.abs_tol < lone[1]
        stack, pumps = np.stack(states), np.full(3, pump)
        rows = sys_.drift(stack, pumps)[2]
        assert np.array_equal(rows, lone)
        assert np.array_equal(rows, written_out_norm(sys_, stack, pumps))


@pytest.mark.parametrize("mode", ["fixed_point", "semi_dynamical"])
def test_converged_means_the_norm_is_within_the_tolerance(mode):
    _, sys_ = ladder_system(SWEEP_INDICES)
    pumps = np.concatenate([[0.0], KNEE_PUMPS])
    rows = steady_states(sys_, pumps, SolverConfig(mode=mode))
    assert np.array_equal(rows.converged, rows.residual_norm <= sys_.abs_tol)
    assert rows.converged.all()


# --- the pseudo-time step ---------------------------------------------------------


def step_matrix(sys_, N, pump, h):
    """I/h - J, J the slaved drift's Jacobian written out as a dense matrix.

    The unslaved equations of full_derivatives in (N, E = M p_e),
        dN_nu/dt = -kap N - up N (M - E) + dn (N + 1) E,
        dE/dt    = M Gu - (Gu + Gd) E,
    have the Jacobian blocks A = diag(-kap - up (M - E) + dn E),
    B = up N + dn (N + 1), C = g (M up - E (up + dn)) and
    D = -(Gu + Gd).  At the slaved E = M Gu / (Gu + Gd), where dE/dt = 0,
    eliminating E leaves the Schur complement J = A - B C^T / D, which is
    diag(b) - u v^T / a with u = B, v = C and a = D.
    """
    M, up, dn = sys_.M, sys_.up, sys_.dn
    Gu = pump + np.dot(sys_.deg * up, N)
    Gd = sys_.gamma_dn + np.dot(sys_.deg * dn, N + 1.0)
    E = M * Gu / (Gu + Gd)
    A = np.diag(-sys_.kap - up * (M - E) + dn * E)
    B = up * N + dn * (N + 1.0)
    C = sys_.deg * (M * up - E * (up + dn))
    return np.eye(sys_.n) / h - (A - np.outer(B, C) / -(Gu + Gd))


@pytest.mark.parametrize("pump", [3e8, 1.3e9, 1e10])
def test_the_pseudo_time_step_solves_the_linearised_drift(pump):
    # on a 62-mode ladder, below, at and above the knee, from perturbed
    # states and at step sizes below the step's own cap 0.7 / max(b > 0),
    # _pt_step is N + solve(I/h - J, F).  The solve is good to cond eps
    # relative, reading the increment off N + dN costs eps |N| / |dN|,
    # and each route rounds a few times: 16 eps (cond + |N| / |dN|).
    # Dropping the rank-one term, or the + 1 in its vector, misses the
    # bound a hundredfold or more.
    _, sys_ = ladder_system(refractive_indices(BASE_INDEX, 2e-3), l_max=30)
    _, mirror = ladder_system(refractive_indices(BASE_INDEX, -2e-3), l_max=30)
    exact = sys_.solve(pump)[0][0]
    wobble = 1.0 + 0.3 * np.cos(np.arange(sys_.n))
    half = sys_.n // 2
    for N in (exact * wobble, 0.5 * exact + 1.0, 2.0 * exact):
        drift = sys_.drift(N, pump)
        b = drift[1]
        cap = 0.7 / b.max() if b.max() > 0 else math.inf
        for h in np.array([0.1, 10.0, 1e6]) / sys_.kappa_min:
            h = min(h, 0.5 * cap)
            step = dynamics._pt_step(sys_, N, drift, h)
            matrix = step_matrix(sys_, N, pump, h)
            dN = np.linalg.solve(matrix, drift[0])
            scale = np.max(np.abs(dN))
            bound = 16 * np.finfo(float).eps * (np.linalg.cond(matrix)
                                                + np.max(N) / scale)
            assert np.max(np.abs(step - N - dN)) <= bound * scale, (N, h)
            # chi -> -chi swaps the blocks of the step bitwise
            swap = np.concatenate([N[half:], N[:half]])
            mirrored = dynamics._pt_step(mirror, swap,
                                         mirror.drift(swap, pump), h)
            assert np.array_equal(mirrored[:half], step[half:])
            assert np.array_equal(mirrored[half:], step[:half])


def written_out_step(sys_, N, drift, h, square=lambda x: x**2):
    """_pt_step term by term, and the Sherman-Morrison denominator.

    h is capped at 0.7 / b[b > 0].max(); w = M (dn (N + 1) + up N),
    c = deg (up Gd - dn Gu) / (Gu + Gd)**2, d = 1/h - b, y = F / d and
    wd = w / d; the step is N + y + (c.y / (1 - c.wd)) wd, or N + y when
    1 - c.wd <= 0.
    """
    F, b, _, Gu, Gd = drift
    positive = b[b > 0]
    if positive.size:
        h = min(h, 0.7 / float(positive.max()))
    w = sys_.M * (sys_.dn * (N + 1.0) + sys_.up * N)
    c = sys_.deg * (sys_.up * Gd - sys_.dn * Gu) / square(Gu + Gd)
    d = 1.0 / h - b
    y = F / d
    wd = w / d
    denom = 1.0 - sys_.blockdot(c, wd)
    if denom <= 0.0:
        return N + y, denom
    return N + y + (sys_.blockdot(c, y) / denom) * wd, denom


@pytest.mark.parametrize("l_max", [30, 200])
def test_the_pseudo_time_step_is_the_written_out_formula_bitwise(l_max):
    # on 62 and 402 modes, at three step sizes: three states at the knee
    # (the cap binds on one at the largest h, another has no positive net
    # rate), the empty cavity below threshold, whose net rates are all
    # negative, a drift with its Gamma_up scaled down, which takes the
    # bare N + y branch, and one with its Gamma_dn nudged until squaring
    # Gu + Gd as a power and as a product gives two different steps
    _, sys_ = ladder_system(refractive_indices(BASE_INDEX, 2e-3), l_max=l_max)
    pump = 1.3e9
    exact = sys_.solve(pump)[0][0]
    wobble = 1.0 + 0.3 * np.cos(np.arange(sys_.n))
    states = [exact * wobble, 0.5 * exact + 1.0, 2.0 * exact]
    cases = [(N, sys_.drift(N, pump)) for N in states]
    empty = np.zeros(sys_.n)
    cases.append((empty, sys_.drift(empty, 3e8)))
    F, b, norm, Gu, Gd = sys_.drift(exact, pump)
    cases.append((exact, (F, b, norm, Gu * 1e-6, Gd)))
    hs = np.array([0.1, 10.0, 1e6]) / sys_.kappa_min
    N, (F, b, norm, Gu, Gd) = cases[2]

    def power_and_product_differ(g):
        if (Gu + g)**2 == (Gu + g) * (Gu + g):
            return False
        drift = (F, b, norm, Gu, g)
        return any(not np.array_equal(
            written_out_step(sys_, N, drift, h)[0],
            written_out_step(sys_, N, drift, h, lambda x: x * x)[0])
            for h in hs)

    nudged = (Gd * (1.0 + k * 1e-12) for k in range(1, 100_000))
    cases.append((N, (F, b, norm, Gu, next(filter(power_and_product_differ,
                                                   nudged)))))
    bmax = [float(np.max(drift[1])) for _, drift in cases]
    assert bmax[0] <= 0.0 and bmax[3] <= 0.0
    assert bmax[1] * hs[-1] > 0.7
    for k, (N, drift) in enumerate(cases):
        for h in hs:
            step = dynamics._pt_step(sys_, N, drift, h)
            written, denom = written_out_step(sys_, N, drift, h)
            assert np.array_equal(step, written), (k, h)
            assert (denom <= 0.0) == (k == 4), (k, h)


def recorded_solve(monkeypatch, sys_, pump, seed, craft):
    """A pseudo-transient solve from `seed` (None: the empty cavity)
    whose first candidate is craft(the honest one), checked to converge
    with every step counted: the state and the h of every step, the
    candidates the steps returned and every state whose drift was
    taken."""
    honest_step, honest_drift = dynamics._pt_step, RateSystem.drift
    starts, hs, raws, drifted = [], [], [], []

    def step(sys_, N, drift, h):
        starts.append(N)
        hs.append(h)
        raw = honest_step(sys_, N, drift, h)
        raws.append(craft(raw) if len(hs) == 1 else raw)
        return raws[-1]

    def drift(self, N, pump):
        drifted.append(N)
        return honest_drift(self, N, pump)

    monkeypatch.setattr(dynamics, "_pt_step", step)
    monkeypatch.setattr(RateSystem, "drift", drift)
    record = dynamics._semi_dynamical(sys_, pump, seed)
    assert record[1] == len(hs)                 # every step counts
    assert record[2] <= sys_.abs_tol
    assert np.all(record[0] >= 0.0)
    return starts, hs, raws, drifted


def undershoot(fraction):
    # the first step starts from the empty cavity, where N + 1 = 1
    def craft(raw):
        raw = raw.copy()
        raw[3] = -fraction
        return raw
    return craft


def test_a_non_negative_candidate_is_taken_as_it_is(monkeypatch):
    _, sys_ = ladder_system(SWEEP_INDICES)
    _, hs, raws, drifted = recorded_solve(monkeypatch, sys_, 3e9, None,
                                          lambda raw: raw)
    assert raws[0].min() >= 0.0
    assert drifted[1] is raws[0]
    assert hs[1] == 2.0 * hs[0]


def test_a_small_undershoot_is_clamped_to_zero(monkeypatch):
    _, sys_ = ladder_system(SWEEP_INDICES)
    _, hs, raws, drifted = recorded_solve(monkeypatch, sys_, 3e9, None,
                                          undershoot(0.05))
    assert drifted[1] is not raws[0] and drifted[1][3] == 0.0
    assert np.array_equal(np.delete(drifted[1], 3), np.delete(raws[0], 3))


def test_a_deep_undershoot_is_rejected_without_a_drift(monkeypatch):
    _, sys_ = ladder_system(SWEEP_INDICES)
    _, hs, raws, drifted = recorded_solve(monkeypatch, sys_, 3e9, None,
                                          undershoot(0.2))
    assert hs[1] == 0.25 * hs[0]
    assert not any(N is raws[0] or N[3] < 0.0 for N in drifted)
    assert drifted[1] is raws[1]


def test_a_nan_candidate_is_rejected_by_its_norm(monkeypatch):
    # it passes the undershoot test (NaN compares False) and the clamp
    # keeps it NaN, so its drift is taken and its NaN norm rejects it
    _, sys_ = ladder_system(SWEEP_INDICES)
    _, hs, raws, drifted = recorded_solve(
        monkeypatch, sys_, 3e9, None, lambda raw: np.full_like(raw, np.nan))
    assert np.isnan(drifted[1]).all()
    assert hs[1] == 0.25 * hs[0]


def test_a_row_with_a_nan_and_a_negative_occupation_is_clamped(monkeypatch):
    # the negativity flag skips NaN: a row holding both is still flagged
    _, sys_ = ladder_system(SWEEP_INDICES)
    honest = RateSystem.solve

    def bad_row(self, pump):
        N, steps = honest(self, pump)
        N[1, 3], N[1, 5] = -1.0, np.nan
        return N, steps

    monkeypatch.setattr(RateSystem, "solve", bad_row)
    rows = steady_states(sys_, [6e8, 2e9], SolverConfig())
    assert list(rows.converged) == [True, False]
    assert rows.N[1, 3] == 0.0 and np.isnan(rows.N[1, 5])


# --- seeded pseudo-transient solves ---------------------------------------------

PT = SolverConfig(mode="semi_dynamical")


def max_route_gap(a, b):
    """Largest relative occupation gap, as the cross-check measures it."""
    return float(np.max(np.abs(a - b) / (np.maximum(a, b) + 1.0)))


@pytest.mark.parametrize("seed", [np.ones(1), np.full(402, np.nan),
                                  np.full(402, np.inf), np.full(402, -1.0)],
                         ids=["wrong_length", "not_finite", "infinite",
                              "negative"])
def test_a_bad_seed_is_rejected(seed):
    # the pseudo-transient route checks its seed, so both_crosscheck
    # rejects it too, once the exact route has run
    _, sys_ = ladder_system(SWEEP_INDICES)
    modes = build_mode_set(make_cavity(), SWEEP_INDICES, 200,
                           kappa_override=KAPPA)
    dye = make_dye(3e9)
    for config in (PT, SolverConfig(mode="both_crosscheck")):
        with pytest.raises(ValueError, match="seed"):
            steady_states(sys_, [3e9], config, seed)
        with pytest.raises(ValueError, match="seed"):
            find_steady_state(build_rate_table(dye, modes), modes, dye,
                              config, seed=seed)


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


def far_seeded_pair():
    # the exact answer below the knee seeds the solve just above it, which
    # does not converge within SEEDED_STEPS steps (42 in all)
    _, sys_ = ladder_system(SWEEP_INDICES)
    pumps = np.logspace(6, 13, 15)[6:8]
    return sys_, pumps[1], steady_states(sys_, pumps, SolverConfig()).N[0]


def test_a_rejected_seeded_candidate_only_shrinks_the_step(monkeypatch):
    # a deep undershoot at Newton scale: the next step starts from the
    # same state at h / 4, as in a cold solve, not on the cold schedule
    sys_, pump, seed = far_seeded_pair()

    def deep(raw):
        raw = raw.copy()
        raw[3] = -0.2 * (seed[3] + 1.0)
        return raw

    starts, hs, _, _ = recorded_solve(monkeypatch, sys_, pump, seed, deep)
    assert hs[0] == 1e12 / sys_.kappa_min
    assert starts[1] is starts[0] is seed
    assert hs[1] == 0.25 * hs[0]


def test_an_unconverged_seeded_solve_keeps_its_state_at_the_cold_step(
        monkeypatch):
    # after SEEDED_STEPS steps the step size drops to the cold one, and the
    # solve carries on from the last state it accepted, not from its seed
    sys_, pump, seed = far_seeded_pair()
    starts, hs, _, drifted = recorded_solve(monkeypatch, sys_, pump, seed,
                                            lambda raw: raw)
    k = dynamics.SEEDED_STEPS
    assert len(hs) > k + 1
    assert all(h > 0.1 / sys_.kappa_min for h in hs[:k])
    assert hs[k] == 0.1 / sys_.kappa_min
    assert any(starts[k] is N for N in drifted[1:])
    assert not any(N is seed for N in starts[k:])


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


# --- one rate system per table, ladder and dye ----------------------------------


def assert_bitwise_equal(a, b):
    assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("mode", ["fixed_point", "semi_dynamical",
                                  "both_crosscheck"])
def test_find_steady_state_builds_one_system_per_table_ladder_and_dye(
        monkeypatch, mode):
    # the pump is no part of a rate system: a new pump reuses the last
    # one, while a new M, gamma_down (signed zero included), table or
    # ladder builds its own; only the last system is kept
    fresh = RateSystem.from_tables
    builds = count_system_builds(monkeypatch)
    config = SolverConfig(mode=mode)
    ladder = mode_ladder(make_cavity(), SWEEP_INDICES, 30, KAPPA)
    same_ladder = mode_ladder(make_cavity(), SWEEP_INDICES, 30, KAPPA)
    dye = make_dye()
    rates = build_rate_table(dye, ladder)
    calls = [(rates, ladder, dye, 1e9, 1),
             (rates, ladder, dye, 5e9, 0),
             (rates, ladder, replace(dye, M=2e9), 5e9, 1),
             (rates, ladder, replace(dye, gamma_down=2e9), 5e9, 1),
             (build_rate_table(dye, ladder), ladder, dye, 5e9, 1),
             (rates, same_ladder, dye, 5e9, 1),
             (rates, ladder, dye, 2e9, 1),
             (rates, ladder, replace(dye, M=0.0), 2e9, 1),
             (rates, ladder, replace(dye, M=-0.0), 2e9, 1),
             (rates, ladder, replace(dye, gamma_down=0.0), 2e9, 1),
             (rates, ladder, replace(dye, gamma_down=-0.0), 2e9, 1)]
    for rates_k, ladder_k, dye_k, pump, new in calls:
        before = len(builds)
        dye_k = replace(dye_k, gamma_up_pump=pump)
        got = find_steady_state(rates_k, ladder_k, dye_k, config)
        assert len(builds) == before + new
        assert builds[-1][:2] == (rates_k, ladder_k)
        want = steady_states(fresh(rates_k, ladder_k, dye_k), [pump], config)
        for name in ("N", "p_e", "residual_norm", "iterations", "converged"):
            assert_bitwise_equal(getattr(got, name), getattr(want, name)[0])
    assert len(builds) == 10


def test_every_public_rate_operation_shares_the_system(monkeypatch):
    fresh = RateSystem.from_tables
    builds = count_system_builds(monkeypatch)
    ladder = mode_ladder(make_cavity(), SWEEP_INDICES, 30, KAPPA)
    dye = make_dye(5e9)
    rates = build_rate_table(dye, ladder)
    N = find_steady_state(rates, ladder, dye).N
    sys_ = fresh(rates, ladder, dye)
    Gu, Gd = sys_.totals(N, dye.gamma_up_pump)
    assert total_rates(N, rates, ladder, dye) == (float(Gu), float(Gd))
    assert_bitwise_equal(adiabatic_derivative(N, rates, ladder, dye),
                         sys_.drift(N, dye.gamma_up_pump)[0])
    dN, dpe = full_derivatives(N, 0.5, rates, ladder, dye)
    assert_bitwise_equal(dN, -sys_.kap * N - sys_.up * N * sys_.M * 0.5
                         + sys_.dn * (N + 1.0) * sys_.M * 0.5)
    assert dpe == float(-Gd * 0.5 + Gu * 0.5)
    assert len(builds) == 1
    # a new pump is no new system either
    total_rates(N, rates, ladder, replace(dye, gamma_up_pump=1e9))
    assert len(builds) == 1


def test_ladders_and_tables_refuse_in_place_writes():
    # a memoised system can never see its arrays change under it
    omega = np.array([3.4e15, 3.5e15])
    ladder = ModeLadder(l=np.array([0, 1]), omega=omega,
                        kappa=np.full(2, KAPPA), n_left=2)
    rates = build_rate_table(make_dye(), ladder)
    for arr in (ladder.l, ladder.omega, ladder.kappa, ladder.degeneracy,
                rates.gamma_up, rates.gamma_down):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            np.multiply(arr, 2.0, out=arr)
    # the ladder holds a copy: the caller's array stays its own
    omega[0] = 1.0
    assert ladder.omega[0] == 3.4e15
