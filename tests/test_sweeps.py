"""Stokes readout and the pump/chi/grid sweep drivers."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from polarbec import (
    ChiralSample,
    DyeParams,
    MediumIndices,
    SolverConfig,
    SolventParams,
    SteadyState,
    SweepSpec,
    build_mode_set,
    build_rate_table,
    cavity_decay,
    chi_sweep,
    find_steady_state,
    grid_sweep,
    pump_sweep,
    refractive_indices,
    sensitivity,
    single_mode_exact,
    stokes_s3,
)

from polarbec import dynamics
from polarbec.dynamics import RateSystem

from conftest import (
    DN_L0,
    DN_R0,
    KAPPA,
    SWEEP_INDICES,
    UP_L0,
    UP_R0,
    make_cavity,
    make_dye,
    two_order_modes,
)

SOLVER = SolverConfig()
GLUCOSE = ChiralSample(theta_deg=44.0, molar_mass_u=180.0, alpha=0.4,
                       epsilon=0.5, dominant="R")
METHANOL = SolventParams(number_density=1.488e28, base_index=1.34,
                         wavelength=546e-9)


def small_modes(l_max=1):
    return build_mode_set(make_cavity(), SWEEP_INDICES, l_max,
                          kappa_override=KAPPA)


def state_for(N, p_e=0.3):
    return SteadyState(N=np.asarray(N, dtype=float), p_e=p_e,
                       residual_norm=0.0, iterations=0, converged=True)


# --- Stokes readout -----------------------------------------------------------


def test_stokes_weights_occupations_by_degeneracy():
    modes = small_modes(1)  # L0, L1, R0, R1 with degeneracies 1, 2, 1, 2
    obs = stokes_s3(state_for([1.0, 2.0, 3.0, 4.0]), modes)
    assert obs.N_L_total == 1.0 + 2 * 2.0
    assert obs.N_R_total == 3.0 + 2 * 4.0
    assert obs.N_ground_L == 1.0
    assert obs.N_ground_R == 3.0
    assert obs.S3 == pytest.approx((11.0 - 5.0) / 16.0, rel=1e-15)
    assert obs.S3_ground == pytest.approx((3.0 - 1.0) / 4.0, rel=1e-15)
    assert obs.defined
    assert obs.p_e == 0.3


def test_stokes_pure_circular_limits():
    modes = small_modes(1)
    left = stokes_s3(state_for([5.0, 1.0, 0.0, 0.0]), modes)
    right = stokes_s3(state_for([0.0, 0.0, 5.0, 1.0]), modes)
    assert left.S3 == -1.0
    assert right.S3 == 1.0


def test_stokes_undefined_below_population_floor():
    modes = small_modes(1)
    obs = stokes_s3(state_for([0.0, 0.0, 0.0, 0.0]), modes)
    assert not obs.defined
    assert np.isnan(obs.S3)
    assert np.isnan(obs.S3_ground)


def test_stokes_rejects_misaligned_state():
    modes = small_modes(1)
    with pytest.raises(ValueError):
        stokes_s3(state_for([1.0, 2.0]), modes)


def test_stokes_refuses_two_ground_modes_in_a_block():
    with pytest.raises(ValueError, match="2 l = 0 modes"):
        stokes_s3(state_for(np.ones(8)), two_order_modes())


# --- sweep specification --------------------------------------------------------


def test_sweep_spec_grids():
    log = SweepSpec(axis="pump", start=1e8, stop=1e10, points=3,
                    spacing="log")
    assert log.grid() == pytest.approx([1e8, 1e9, 1e10], rel=1e-12)
    lin = SweepSpec(axis="chi", start=-1e-5, stop=1e-5, points=5,
                    spacing="linear")
    assert lin.grid() == pytest.approx([-1e-5, -5e-6, 0.0, 5e-6, 1e-5],
                                       abs=1e-20)
    single = SweepSpec(axis="pump", start=2e9, stop=9e9, points=1)
    assert single.grid() == pytest.approx([2e9])


def test_sweep_spec_guards():
    with pytest.raises(ValueError):
        SweepSpec(axis="pump", start=1e8, stop=1e10, points=0)
    with pytest.raises(ValueError):
        SweepSpec(axis="pump", start=1e8, stop=1e10, points=5,
                  spacing="cubic")
    with pytest.raises(ValueError):
        SweepSpec(axis="pump", start=-1.0, stop=1e10, points=5,
                  spacing="log")
    with pytest.raises(ValueError):
        SweepSpec(axis="pump", start=1e10, stop=1e8, points=5)


# --- pump sweep -----------------------------------------------------------------


def test_pump_sweep_achiral_medium_keeps_exact_balance():
    spec = SweepSpec(axis="pump", start=1e8, stop=1e10, points=8)
    res = pump_sweep(make_cavity(), MediumIndices(1.34, 1.34), make_dye(),
                     40, SOLVER, spec, kappa_override=KAPPA)
    assert res.all_converged
    assert np.all(res.column("S3") == 0.0)
    assert np.all(res.column("S3_pinned") == 0.0)
    assert np.array_equal(res.column("N_L_total"), res.column("N_R_total"))
    totals = res.column("N_L_total") + res.column("N_R_total")
    assert np.all(np.diff(totals) > 0.0)


def test_pump_sweep_repeats_identically():
    spec = SweepSpec(axis="pump", start=1e8, stop=1e10, points=6)
    a = pump_sweep(make_cavity(), SWEEP_INDICES, make_dye(), 30, SOLVER,
                   spec, kappa_override=KAPPA)
    b = pump_sweep(make_cavity(), SWEEP_INDICES, make_dye(), 30, SOLVER,
                   spec, kappa_override=KAPPA)
    assert a.columns == b.columns
    for name in a.columns:
        assert np.array_equal(a.column(name), b.column(name))


def test_pump_sweep_column_layout():
    spec = SweepSpec(axis="pump", start=1e9, stop=2e9, points=2)
    res = pump_sweep(make_cavity(), SWEEP_INDICES, make_dye(), 5, SOLVER,
                     spec, kappa_override=KAPPA)
    assert res.columns == [
        "pump", "N_L_total", "N_R_total", "N_ground_L", "N_ground_R",
        "S3", "S3_ground", "S3_pinned", "p_e", "residual_norm",
        "iterations", "converged"]
    assert res.column("pump") == pytest.approx([1e9, 2e9], rel=1e-12)
    with pytest.raises(ValueError):
        res.column("no_such_column")


def test_pinned_trace_reads_each_ground_mode_at_its_own_loss():
    # the mirror-loss formula gives the two blocks different kappas; the
    # pumps sit below both knees (1.2660e9 and 1.2704e9), where the
    # frozen-loser trace is the two single-mode laws
    cavity, dye = make_cavity(mirror_loss=3e-7), make_dye()
    kappa_L = cavity_decay(cavity, SWEEP_INDICES.n_L)
    kappa_R = cavity_decay(cavity, SWEEP_INDICES.n_R)
    assert kappa_L != kappa_R
    spec = SweepSpec(axis="pump", start=1e8, stop=1.2e9, points=4)
    res = pump_sweep(cavity, SWEEP_INDICES, dye, 5, SOLVER, spec)
    for pump, s3 in zip(res.column("pump"), res.column("S3_pinned")):
        N_L = single_mode_exact(pump, kappa_L, dye.gamma_down, UP_L0, DN_L0,
                                dye.M)
        N_R = single_mode_exact(pump, kappa_R, dye.gamma_down, UP_R0, DN_R0,
                                dye.M)
        assert s3 == pytest.approx((N_R - N_L) / (N_R + N_L), rel=1e-12)


def test_doubling_the_molecule_number_doubles_the_condensate():
    modes = small_modes(30)
    deg = modes.degeneracy.astype(float)
    totals = []
    for M in (1e9, 2e9):
        dye = make_dye(5e9, M=M)
        steady = find_steady_state(build_rate_table(dye, modes), modes, dye)
        totals.append(float(np.dot(deg, steady.N)))
    assert totals[1] / totals[0] == pytest.approx(2.0, rel=5e-2)


# --- chi sweep -------------------------------------------------------------------


def test_chi_sweep_is_antisymmetric_pointwise():
    spec = SweepSpec(axis="chi", start=-2e-5, stop=2e-5, points=9,
                     spacing="linear")
    res = chi_sweep(make_cavity(), 1.34, make_dye(5e9), 30, SOLVER, spec,
                    kappa_override=KAPPA, scales=(1.0,))
    s3 = res.column("S3")
    nL = res.column("N_L_total")
    nR = res.column("N_R_total")
    assert res.all_converged
    for i in range(9):
        assert s3[i] == -s3[8 - i]
        assert nL[i] == nR[8 - i]
    assert s3[4] == 0.0  # racemic midpoint


def test_chi_sweep_scale_family_layout():
    spec = SweepSpec(axis="chi", start=-1e-5, stop=1e-5, points=3,
                     spacing="linear")
    res = chi_sweep(make_cavity(), 1.34, make_dye(5e9), 10, SOLVER, spec,
                    kappa_override=KAPPA, scales=(0.5, 1.0))
    assert res.columns[:3] == ["scale", "chi", "epsilon"]
    assert list(res.column("scale")) == [0.5] * 3 + [1.0] * 3
    assert np.all(np.isnan(res.column("epsilon")))
    # the absorption scale changes the physics, not just the labels
    s3_half = res.column("S3")[:3]
    s3_unit = res.column("S3")[3:]
    assert not np.array_equal(s3_half, s3_unit)


def test_chi_sweep_reports_the_excess_behind_each_point():
    spec = SweepSpec(axis="chi", start=1e-6, stop=3e-6, points=3,
                     spacing="linear")
    res = chi_sweep(make_cavity(), 1.34, make_dye(5e9), 5, SOLVER, spec,
                    kappa_override=KAPPA, scales=(1.0,), chi_per_epsilon=1e-5)
    assert list(res.column("epsilon")) == [chi / 1e-5 for chi in spec.grid()]
    for unit in (None, 0.0):
        res = chi_sweep(make_cavity(), 1.34, make_dye(5e9), 5, SOLVER, spec,
                        kappa_override=KAPPA, scales=(1.0,),
                        chi_per_epsilon=unit)
        assert np.all(np.isnan(res.column("epsilon")))


def test_chi_sweep_rows_equal_per_point_solves():
    spec = SweepSpec(axis="chi", start=-1e-5, stop=1e-5, points=5,
                     spacing="linear")
    res = chi_sweep(make_cavity(), 1.34, make_dye(5e9), 20, SOLVER, spec,
                    kappa_override=KAPPA, scales=(1.0, 2.0))
    assert len(res.rows) == 10
    for row in res.rows:
        scale, chi = row[0], row[1]
        dye = make_dye(5e9)
        dye = replace(dye, gamma_up0=dye.gamma_up0 * scale)
        modes = build_mode_set(make_cavity(), refractive_indices(1.34, chi),
                               20, kappa_override=KAPPA)
        steady = find_steady_state(build_rate_table(dye, modes), modes, dye,
                                   SOLVER)
        obs = stokes_s3(steady, modes)
        point = [scale, chi, float("nan"), obs.N_L_total, obs.N_R_total,
                 obs.N_ground_L, obs.N_ground_R, obs.S3, obs.S3_ground,
                 obs.p_e, steady.residual_norm, steady.iterations,
                 steady.converged]
        assert np.array_equal(np.array(row, dtype=float),
                              np.array(point, dtype=float), equal_nan=True)


# --- chi x pump grid --------------------------------------------------------------


def test_grid_sweep_layout_and_racemic_balance():
    chi_spec = SweepSpec(axis="chi", start=-1e-5, stop=1e-5, points=3,
                         spacing="linear")
    pump_spec = SweepSpec(axis="pump", start=1e8, stop=1e10, points=4)
    res = grid_sweep(make_cavity(), 1.34, make_dye(), 25, SOLVER, chi_spec,
                     pump_spec, kappa_override=KAPPA)
    assert res.columns[:2] == ["chi", "pump"]
    assert len(res.rows) == 12
    chis = res.column("chi")
    assert list(chis) == [-1e-5] * 4 + [0.0] * 4 + [1e-5] * 4
    assert list(res.column("pump")) == pump_spec.grid().tolist() * 3
    # the racemic column keeps exact balance; the chiral columns break it
    s3 = res.column("S3")
    assert np.all(s3[4:8] == 0.0)
    assert s3[3] > 0.9   # L-favouring chi at strong pump
    assert s3[11] < -0.9


# --- sensitivity probe -------------------------------------------------------------


def test_grid_column_splits_long_pump_grids_into_chunks(monkeypatch):
    chi_spec = SweepSpec(axis="chi", start=-1e-5, stop=1e-5, points=2,
                         spacing="linear")
    pump_spec = SweepSpec(axis="pump", start=1e8, stop=1e10, points=10)

    def run():
        return grid_sweep(make_cavity(), 1.34, make_dye(), 30, SOLVER,
                          chi_spec, pump_spec, kappa_override=KAPPA)

    whole = run()
    chunks = []
    find_roots = RateSystem._find_roots

    def counted(self, pumps):
        chunks.append(pumps.size)
        return find_roots(self, pumps)

    monkeypatch.setattr(RateSystem, "_find_roots", counted)
    monkeypatch.setattr(dynamics, "CHUNK_ELEMENTS", 3 * 62)
    split = run()
    assert chunks == [3, 3, 3, 1] * 2
    assert split.rows == whole.rows


def test_sensitivity_resolves_the_transition_slope():
    dye = make_dye(1e10)
    rep = sensitivity(make_cavity(), ChiralSample(44.0, 180.0, 0.4, 1e-6,
                                                  "R"),
                      METHANOL, dye, 40, SOLVER, epsilon=1e-6,
                      kappa_override=KAPPA)
    assert not rep.noise_dominated
    assert rep.slope < 0.0  # R excess drives S3 toward -1
    assert 0.0 <= rep.epsilon_minus < rep.epsilon_plus <= 1.0
    # step is the half-width of the reported central-difference bracket
    assert 2.0 * rep.step == pytest.approx(
        rep.epsilon_plus - rep.epsilon_minus, rel=1e-9)


def test_sensitivity_flags_the_saturated_plateau():
    dye = make_dye(1e10)
    rep = sensitivity(make_cavity(), GLUCOSE, METHANOL, dye, 40, SOLVER,
                      epsilon=0.5, kappa_override=KAPPA)
    assert rep.noise_dominated
    assert abs(rep.slope) < 1e-2


def test_sensitivity_counts_its_converged_solves():
    dye = make_dye(1e10)
    rep = sensitivity(make_cavity(), GLUCOSE, METHANOL, dye, 10, SOLVER,
                      epsilon=0.5, kappa_override=KAPPA)
    # every bracket the step doubling tried counts, two solves each
    assert rep.points >= 2 and rep.points % 2 == 0
    assert rep.converged_points == rep.points


def test_sensitivity_is_antisymmetric_in_the_dominant_enantiomer():
    dye = make_dye(1e10)
    right = sensitivity(make_cavity(), ChiralSample(44.0, 180.0, 0.4, 1e-6,
                                                    "R"),
                        METHANOL, dye, 40, SOLVER, epsilon=1e-6,
                        kappa_override=KAPPA)
    left = sensitivity(make_cavity(), ChiralSample(44.0, 180.0, 0.4, 1e-6,
                                                   "L"),
                       METHANOL, dye, 40, SOLVER, epsilon=1e-6,
                       kappa_override=KAPPA)
    assert right.slope == -left.slope
    assert right.S3_minus == -left.S3_minus
    assert right.S3_plus == -left.S3_plus


def test_sensitivity_rejects_an_excess_outside_range():
    dye = make_dye(1e10)
    with pytest.raises(ValueError):
        sensitivity(make_cavity(), GLUCOSE, METHANOL, dye, 10, SOLVER,
                    epsilon=1.5, kappa_override=KAPPA)


def test_sensitivity_rejects_a_lossless_cavity_without_kappa_override():
    # the noise floor is measured in units of the photon loss rate
    with pytest.raises(ValueError, match="mirror_loss = 0.0 and kappa_"):
        sensitivity(make_cavity(mirror_loss=0.0), GLUCOSE, METHANOL,
                    make_dye(1e10), 10, SOLVER, epsilon=0.5)
