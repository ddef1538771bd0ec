"""Stokes readout and the pump/chi/grid sweep drivers."""

from __future__ import annotations

import math
import tracemalloc
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
    SweepResult,
    SweepSpec,
    build_mode_set,
    build_rate_table,
    cavity_decay,
    chi_from_sample,
    chi_sweep,
    find_steady_state,
    grid_sweep,
    mode_ladder,
    pump_sweep,
    refractive_indices,
    sensitivity,
    single_mode_exact,
    stokes_s3,
)

from polarbec import dynamics, sweeps
from polarbec.config import default_config
from polarbec.dynamics import RateSystem, steady_states
from polarbec.sweeps import (MAX_DOUBLINGS, _POINT_FIELDS, _meta, _readout,
                             bracket_steps)

from conftest import (
    DN_L0,
    DN_R0,
    KAPPA,
    SWEEP_INDICES,
    UP_L0,
    UP_R0,
    count_system_builds,
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


def table(res):
    """The sweep table as floats, one row per CSV row."""
    return np.column_stack(list(res.columns.values())).astype(float)


def point_columns(states, ladder):
    """The per-point columns of row-stacked steady states on a ladder."""
    point = {**vars(states), **_readout(states.N, ladder)}
    return {name: point[name] for name in _POINT_FIELDS}


def assert_same_columns(got: dict, want: dict):
    assert list(got) == list(want)
    for name in want:
        assert np.array_equal(got[name], want[name], equal_nan=True), name


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
    log = SweepSpec(start=1e8, stop=1e10, points=3, spacing="log")
    assert log.grid() == pytest.approx([1e8, 1e9, 1e10], rel=1e-12)
    lin = SweepSpec(start=-1e-5, stop=1e-5, points=5, spacing="linear")
    assert lin.grid() == pytest.approx([-1e-5, -5e-6, 0.0, 5e-6, 1e-5],
                                       abs=1e-20)
    single = SweepSpec(start=2e9, stop=9e9, points=1)
    assert single.grid() == pytest.approx([2e9])


@pytest.mark.parametrize("points", [2, 5, 60, 61, 244])
def test_symmetric_linear_grids_are_exact_mirrors(points):
    for stop in (1e-5, 3.0e-5 * 1.0123, 0.01 * 0.97):
        g = SweepSpec(start=-stop, stop=stop, points=points,
                      spacing="linear").grid()
        assert np.array_equal(g, -g[::-1])
        assert g[0] == -stop and g[-1] == stop
        assert np.all(np.diff(g) > 0.0)
        if points % 2:
            mid = g[points // 2]
            assert mid == 0.0 and not np.signbit(mid)


def test_linear_grids_track_linspace_within_a_few_ulps():
    rng = np.random.default_rng(7)
    for _ in range(500):
        a, b = np.sort(rng.uniform(-1.0, 1.0, 2)) * 10.0 ** rng.uniform(-8, 3)
        if rng.random() < 0.3:
            b = max(abs(a), abs(b))
            a = -b
        points = int(rng.integers(2, 300))
        g = SweepSpec(start=a, stop=b, points=points, spacing="linear").grid()
        ref = np.linspace(a, b, points)
        assert g[0] == a and g[-1] == b
        assert np.all(np.diff(g) >= 0.0)
        assert np.max(np.abs(g - ref)) <= 4 * np.spacing(max(abs(a), abs(b)))


def test_log_grids_end_at_start_and_stop_and_match_logspace_inside():
    # random mantissas over 22 decades
    rng = np.random.default_rng(11)
    for _ in range(500):
        ends = rng.uniform(1.0, 10.0, 2) * 10.0 ** rng.uniform(-11, 11, 2)
        a, b = sorted(map(float, ends))
        points = int(rng.integers(2, 300))
        g = SweepSpec(start=a, stop=b, points=points, spacing="log").grid()
        ref = np.logspace(math.log10(a), math.log10(b), points)
        assert g[0] == a and g[-1] == b
        assert np.array_equal(g[1:-1], ref[1:-1])


def test_a_grid_from_x_to_x_is_x_at_every_point():
    # np.logspace's 10**log10(x) is an ulp off x for most x
    rng = np.random.default_rng(12)
    for _ in range(2000):
        x = float(rng.uniform(1.0, 10.0) * 10.0 ** rng.uniform(-11, 11))
        points = int(rng.integers(2, 50))
        for spacing in ("log", "linear"):
            g = SweepSpec(start=x, stop=x, points=points,
                          spacing=spacing).grid()
            assert g.dtype == float and np.all(g == x), (x, spacing)


def test_sweep_spec_guards():
    with pytest.raises(ValueError):
        SweepSpec(start=1e8, stop=1e10, points=0)
    with pytest.raises(ValueError):
        SweepSpec(start=1e8, stop=1e10, points=5, spacing="cubic")
    with pytest.raises(ValueError):
        SweepSpec(start=-1.0, stop=1e10, points=5, spacing="log")
    with pytest.raises(ValueError):
        SweepSpec(start=1e10, stop=1e8, points=5)
    # a non-finite endpoint would otherwise give [nan, nan, 1] and
    # [nan, inf, inf] (with a RuntimeWarning)
    with pytest.raises(ValueError, match="finite"):
        SweepSpec(start=float("nan"), stop=1.0, points=3, spacing="linear")
    with pytest.raises(ValueError, match="finite"):
        SweepSpec(start=1e8, stop=float("inf"), points=3, spacing="log")


# --- pump sweep -----------------------------------------------------------------


def test_pump_sweep_achiral_medium_keeps_exact_balance():
    spec = SweepSpec(start=1e8, stop=1e10, points=8)
    res = pump_sweep(make_cavity(), MediumIndices(1.34, 1.34), make_dye(),
                     40, SOLVER, spec, kappa_override=KAPPA)
    assert res.all_converged
    assert np.all(res.columns["S3"] == 0.0)
    assert np.all(res.columns["S3_pinned"] == 0.0)
    assert np.array_equal(res.columns["N_L_total"], res.columns["N_R_total"])
    totals = res.columns["N_L_total"] + res.columns["N_R_total"]
    assert np.all(np.diff(totals) > 0.0)


def test_pump_sweep_repeats_identically():
    spec = SweepSpec(start=1e8, stop=1e10, points=6)
    a = pump_sweep(make_cavity(), SWEEP_INDICES, make_dye(), 30, SOLVER,
                   spec, kappa_override=KAPPA)
    b = pump_sweep(make_cavity(), SWEEP_INDICES, make_dye(), 30, SOLVER,
                   spec, kappa_override=KAPPA)
    assert_same_columns(a.columns, b.columns)


def test_pump_sweep_column_layout():
    spec = SweepSpec(start=1e9, stop=2e9, points=2)
    res = pump_sweep(make_cavity(), SWEEP_INDICES, make_dye(), 5, SOLVER,
                     spec, kappa_override=KAPPA)
    assert list(res.columns) == [
        "pump", "N_L_total", "N_R_total", "N_ground_L", "N_ground_R",
        "S3", "S3_ground", "S3_pinned", "p_e", "residual_norm",
        "iterations", "converged"]
    assert res.columns["pump"] == pytest.approx([1e9, 2e9], rel=1e-12)
    assert res.columns["iterations"].dtype.kind == "i"
    assert res.columns["converged"].dtype == bool


def test_pump_sweep_seeds_its_points_as_steady_states_seeds_a_column():
    # one seed rule: point by point through find_steady_state(seed=),
    # the pseudo-transient route gives the rows of one steady_states
    # column, bit for bit, iterations included
    config = default_config()
    pt = replace(config.solver, mode="semi_dynamical")
    spec = SweepSpec(start=1e8, stop=1e10, points=200)
    res = pump_sweep(config.cavity, config.medium_indices(), config.dye,
                     config.l_max, pt, spec, config.kappa_override)
    ladder = mode_ladder(config.cavity, config.medium_indices(), config.l_max,
                         config.kappa_override)
    sys_ = RateSystem.from_tables(build_rate_table(config.dye, ladder),
                                  ladder, config.dye)
    column = point_columns(steady_states(sys_, spec.grid(), pt), ladder)
    assert_same_columns({name: res.columns[name] for name in _POINT_FIELDS},
                        column)


@pytest.mark.parametrize("mode", ["fixed_point", "semi_dynamical",
                                  "both_crosscheck"])
def test_a_pump_sweep_builds_one_rate_system(monkeypatch, mode):
    # one find_steady_state per point, all on one ladder, one table and
    # one dye but for the pump, so all on one rate system
    builds = count_system_builds(monkeypatch)
    spec = SweepSpec(start=1e8, stop=1e10, points=12)
    res = pump_sweep(make_cavity(), SWEEP_INDICES, make_dye(), 30,
                     SolverConfig(mode=mode), spec, kappa_override=KAPPA)
    assert res.all_converged and res.meta["points"] == 12
    assert len(builds) == 1


def test_pinned_trace_reads_each_ground_mode_at_its_own_loss():
    # the mirror-loss formula gives the two blocks different kappas; the
    # pumps sit below both knees (1.2660e9 and 1.2704e9), where the
    # frozen-loser trace is the two single-mode laws
    cavity, dye = make_cavity(mirror_loss=3e-7), make_dye()
    kappa_L = cavity_decay(cavity, SWEEP_INDICES.n_L)
    kappa_R = cavity_decay(cavity, SWEEP_INDICES.n_R)
    assert kappa_L != kappa_R
    spec = SweepSpec(start=1e8, stop=1.2e9, points=4)
    res = pump_sweep(cavity, SWEEP_INDICES, dye, 5, SOLVER, spec)
    for pump, s3 in zip(res.columns["pump"], res.columns["S3_pinned"]):
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
    spec = SweepSpec(start=-2e-5, stop=2e-5, points=9, spacing="linear")
    res = chi_sweep(make_cavity(), 1.34, make_dye(5e9), 30, SOLVER, spec,
                    kappa_override=KAPPA, scales=(1.0,))
    s3 = res.columns["S3"]
    nL = res.columns["N_L_total"]
    nR = res.columns["N_R_total"]
    assert res.all_converged
    for i in range(9):
        assert s3[i] == -s3[8 - i]
        assert nL[i] == nR[8 - i]
    assert s3[4] == 0.0  # racemic midpoint


def test_chi_sweep_scale_family_layout():
    spec = SweepSpec(start=-1e-5, stop=1e-5, points=3, spacing="linear")
    res = chi_sweep(make_cavity(), 1.34, make_dye(5e9), 10, SOLVER, spec,
                    kappa_override=KAPPA, scales=(0.5, 1.0))
    assert list(res.columns)[:3] == ["scale", "chi", "epsilon"]
    assert list(res.columns["scale"]) == [0.5] * 3 + [1.0] * 3
    assert np.all(np.isnan(res.columns["epsilon"]))
    # the absorption scale changes the physics, not just the labels
    s3_half = res.columns["S3"][:3]
    s3_unit = res.columns["S3"][3:]
    assert not np.array_equal(s3_half, s3_unit)


def test_chi_sweep_reports_the_excess_behind_each_point():
    spec = SweepSpec(start=1e-6, stop=3e-6, points=3, spacing="linear")
    res = chi_sweep(make_cavity(), 1.34, make_dye(5e9), 5, SOLVER, spec,
                    kappa_override=KAPPA, scales=(1.0,), chi_per_epsilon=1e-5)
    assert list(res.columns["epsilon"]) == [chi / 1e-5 for chi in spec.grid()]
    for unit in (None, 0.0):
        res = chi_sweep(make_cavity(), 1.34, make_dye(5e9), 5, SOLVER, spec,
                        kappa_override=KAPPA, scales=(1.0,),
                        chi_per_epsilon=unit)
        assert np.all(np.isnan(res.columns["epsilon"]))


def test_chi_sweep_rows_equal_per_point_solves(monkeypatch):
    ladders = []

    def counted(*args, **kwargs):
        ladders.append(args)
        return mode_ladder(*args, **kwargs)

    monkeypatch.setattr(sweeps, "mode_ladder", counted)
    spec = SweepSpec(start=-1e-5, stop=1e-5, points=5, spacing="linear")
    res = chi_sweep(make_cavity(), 1.34, make_dye(5e9), 20, SOLVER, spec,
                    kappa_override=KAPPA, scales=(1.0, 2.0))
    # one ladder per solved chi (-1e-5, -5e-6 and 0), shared by both scales
    assert len(ladders) == 3
    assert res.meta["mirrored_points"] == 4
    rows = table(res)
    assert len(rows) == 10
    for row in rows:
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
                 steady.p_e, steady.residual_norm, steady.iterations,
                 steady.converged]
        assert np.array_equal(np.array(row, dtype=float),
                              np.array(point, dtype=float), equal_nan=True)


def test_chi_sweep_even_symmetric_grid_equals_per_point_solves():
    # no zero point: every row on the + side is read off its partner
    spec = SweepSpec(start=-1e-5, stop=1e-5, points=6, spacing="linear")
    dye = make_dye(5e9)
    res = chi_sweep(make_cavity(), 1.34, dye, 20, SOLVER, spec,
                    kappa_override=KAPPA, scales=(1.0,))
    assert res.meta["mirrored_points"] == 3
    for row in table(res):
        modes = build_mode_set(make_cavity(), refractive_indices(1.34, row[1]),
                               20, kappa_override=KAPPA)
        steady = find_steady_state(build_rate_table(dye, modes), modes, dye,
                                   SOLVER)
        obs = stokes_s3(steady, modes)
        point = [1.0, row[1], float("nan"), obs.N_L_total, obs.N_R_total,
                 obs.N_ground_L, obs.N_ground_R, obs.S3, obs.S3_ground,
                 steady.p_e, steady.residual_norm, steady.iterations,
                 steady.converged]
        assert np.array_equal(np.array(row, dtype=float),
                              np.array(point, dtype=float), equal_nan=True)


def test_asymmetric_chi_grids_mirror_nothing():
    spec = SweepSpec(start=-1e-5, stop=2e-5, points=4, spacing="linear")
    res = chi_sweep(make_cavity(), 1.34, make_dye(5e9), 5, SOLVER, spec,
                    kappa_override=KAPPA, scales=(1.0,))
    assert res.meta["mirrored_points"] == 0
    res = grid_sweep(make_cavity(), 1.34, make_dye(), 5, SOLVER, spec,
                     SweepSpec(start=1e8, stop=1e10, points=3),
                     kappa_override=KAPPA)
    assert res.meta["mirrored_points"] == 0


# --- chi x pump grid --------------------------------------------------------------


def test_grid_sweep_layout_and_racemic_balance():
    chi_spec = SweepSpec(start=-1e-5, stop=1e-5, points=3, spacing="linear")
    pump_spec = SweepSpec(start=1e8, stop=1e10, points=4)
    res = grid_sweep(make_cavity(), 1.34, make_dye(), 25, SOLVER, chi_spec,
                     pump_spec, kappa_override=KAPPA)
    assert list(res.columns)[:2] == ["chi", "pump"]
    assert len(res.columns["chi"]) == 12
    chis = res.columns["chi"]
    assert list(chis) == [-1e-5] * 4 + [0.0] * 4 + [1e-5] * 4
    assert list(res.columns["pump"]) == pump_spec.grid().tolist() * 3
    # the racemic column keeps exact balance; the chiral columns break it
    s3 = res.columns["S3"]
    assert np.all(s3[4:8] == 0.0)
    assert s3[3] > 0.9   # L-favouring chi at strong pump
    assert s3[11] < -0.9


@pytest.mark.parametrize("mode", ["fixed_point", "semi_dynamical",
                                  "both_crosscheck"])
@pytest.mark.parametrize("kappa", [KAPPA, None])
def test_grid_sweep_mirrored_columns_equal_their_own_solves(mode, kappa):
    solver = SolverConfig(mode=mode)
    chi_spec = SweepSpec(start=-2e-5, stop=2e-5, points=4, spacing="linear")
    pump_spec = SweepSpec(start=1e9, stop=3e9, points=6)
    dye = make_dye()
    res = grid_sweep(make_cavity(), 1.34, dye, 20, solver, chi_spec,
                     pump_spec, kappa_override=kappa)
    assert res.meta["mirrored_points"] == 2 * 6
    rows = table(res)
    for k, chi in enumerate(chi_spec.grid().tolist()):
        ladder = mode_ladder(make_cavity(), refractive_indices(1.34, chi), 20,
                             kappa)
        sys_ = RateSystem.from_tables(build_rate_table(dye, ladder), ladder,
                                      dye)
        states = steady_states(sys_, pump_spec.grid(), solver)
        own = np.column_stack([np.full(6, chi), pump_spec.grid(),
                               *point_columns(states, ladder).values()])
        assert np.array_equal(rows[6 * k:6 * (k + 1)], own, equal_nan=True)


# --- the sweep table ---------------------------------------------------------------


@pytest.mark.parametrize("residuals", [[1.0, math.nan], [math.nan, 1.0]])
def test_max_residual_norm_is_nan_when_any_row_is(residuals):
    # Python's max is order-dependent on NaN: max([1.0, nan]) is 1.0
    meta = _meta({"residual_norm": np.array(residuals),
                  "iterations": np.array([3, 5]),
                  "converged": np.array([True, False])}, 0.5)
    assert math.isnan(meta["max_residual_norm"])
    assert [meta[k] for k in ("points", "converged_points",
                              "iterations_total", "iterations_max")] == [
        2, 1, 8, 5]
    finite = _meta({"residual_norm": np.array([1.0, 2.0]),
                    "iterations": np.array([3, 5]),
                    "converged": np.array([True, True])}, 0.5)
    assert finite["max_residual_norm"] == 2.0


def test_all_converged_reads_the_converged_column():
    # the column decides, whatever the summary counts say
    meta = {"points": 2, "converged_points": 2}
    assert not SweepResult({"converged": np.array([True, False])},
                           meta).all_converged
    assert SweepResult({"converged": np.array([True, True])},
                       meta).all_converged


def test_sweeps_keep_no_occupations():
    # a sweep keeps its table, never a point's occupations: 200 pumps and
    # 100 chi on the default 402-mode ladder peak about 30 one-point
    # occupation vectors above the table (the ladder, the rate arrays and
    # one solve's temporaries).  Keeping each point's SteadyState in
    # pump_sweep, or per-chi readouts whose ground columns are views into
    # N, keeps one more vector per point (255 and 180 measured).
    config = default_config()
    ladder = mode_ladder(config.cavity, config.medium_indices(),
                         config.l_max, config.kappa_override)
    runs = {
        "pump": lambda: pump_sweep(
            config.cavity, config.medium_indices(), config.dye, config.l_max,
            config.solver, SweepSpec(start=1e8, stop=1e10,
                                     points=200), config.kappa_override),
        "chi": lambda: chi_sweep(
            config.cavity, config.base_index(), config.dye, config.l_max,
            config.solver, SweepSpec(start=-3e-5, stop=3e-5,
                                     points=100, spacing="linear"),
            config.kappa_override, scales=(1.0,)),
    }
    for name, run in runs.items():
        tracemalloc.start()
        try:
            res = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.all_converged
        table = sum(column.nbytes for column in res.columns.values())
        assert peak < table + 64 * ladder.size * 8, (name, peak, table)


# --- sensitivity probe -------------------------------------------------------------


def test_grid_column_splits_long_pump_grids_into_chunks(monkeypatch):
    # no mirror pair on this chi grid, so both columns are solved
    chi_spec = SweepSpec(start=1e-6, stop=1e-5, points=2, spacing="linear")
    pump_spec = SweepSpec(start=1e8, stop=1e10, points=10)

    def run():
        return grid_sweep(make_cavity(), 1.34, make_dye(), 30, SOLVER,
                          chi_spec, pump_spec, kappa_override=KAPPA)

    whole = run()
    chunks = []
    solve = RateSystem.solve

    def counted(self, pumps):
        chunks.append(pumps.size)
        return solve(self, pumps)

    monkeypatch.setattr(RateSystem, "solve", counted)
    monkeypatch.setattr(dynamics, "CHUNK_ELEMENTS", 3 * 62)
    split = run()
    assert chunks == [3, 3, 3, 1] * 2
    assert_same_columns(split.columns, whole.columns)


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


@pytest.mark.parametrize("epsilon", [1e-6, 0.005, 0.5])
def test_sensitivity_reads_the_chi_sweep_at_its_bracket_ends(epsilon):
    # resolved at once, with one end at epsilon = 0, and still
    # noise-dominated at the widest bracket: either way each end is
    # chi_sweep's point at its chi, bit for bit
    dye = make_dye(1e10)
    rep = sensitivity(make_cavity(), GLUCOSE, METHANOL, dye, 40, SOLVER,
                      epsilon=epsilon, kappa_override=KAPPA)
    chis = [chi_from_sample(replace(GLUCOSE, epsilon=eps), METHANOL)
            for eps in (rep.epsilon_minus, rep.epsilon_plus)]
    res = chi_sweep(make_cavity(), METHANOL.base_index, dye, 40, SOLVER,
                    SweepSpec(start=min(chis), stop=max(chis), points=2,
                              spacing="linear"),
                    kappa_override=KAPPA, scales=[1.0])
    s3 = dict(zip(res.columns["chi"].tolist(), res.columns["S3"].tolist()))
    assert [s3[chi] for chi in chis] == [rep.S3_minus, rep.S3_plus]
    # the first bracket resolves at once; the plateau walks them all
    steps = bracket_steps(epsilon, 0.01)
    if epsilon == 1e-6:
        assert rep.step == steps[0] and not rep.noise_dominated
    if epsilon == 0.5:
        assert rep.step == steps[-1] and rep.noise_dominated


@pytest.mark.parametrize("epsilon, step, message", [
    (0.0, 0.01, "leaves no room for a central bracket"),
    (1.0, 0.01, "leaves no room for a central bracket"),
    (1.5, 0.01, r"epsilon must lie in \[0, 1\], got 1.5"),
    (0.5, 0.0, r"step must lie in \(0, 1\), got 0.0"),
    (0.5, 1.0, r"step must lie in \(0, 1\), got 1.0"),
])
def test_sensitivity_rejects_an_excess_outside_range(epsilon, step, message):
    # bracket_steps refuses these before any solve
    with pytest.raises(ValueError, match=message):
        sensitivity(make_cavity(), GLUCOSE, METHANOL, make_dye(1e10), 10,
                    SOLVER, epsilon=epsilon, step=step, kappa_override=KAPPA)
    with pytest.raises(ValueError, match=message):
        bracket_steps(epsilon, step)


@pytest.mark.parametrize("epsilon, step, steps", [
    # halved to fit, then doubled while the doubled bracket still fits
    (0.5, 0.01, [0.01, 0.02, 0.04, 0.08, 0.16, 0.32]),
    (0.1, 0.3, [0.075]),
    (0.9, 0.01, [0.01, 0.02, 0.04, 0.08]),
    # at most MAX_DOUBLINGS doublings
    (0.5, 1e-4, [1e-4 * 2.0 ** k for k in range(MAX_DOUBLINGS + 1)]),
])
def test_bracket_steps_halve_to_fit_then_double_within_the_range(
        epsilon, step, steps):
    assert bracket_steps(epsilon, step) == steps


def test_sensitivity_rejects_a_lossless_cavity_without_kappa_override():
    # the mode ladder refuses a zero loss rate before any solve
    with pytest.raises(ValueError, match="kappa must be positive"):
        sensitivity(make_cavity(mirror_loss=0.0), GLUCOSE, METHANOL,
                    make_dye(1e10), 10, SOLVER, epsilon=0.5)
