"""Polarisation readout and parameter sweeps over the steady state.

The measured signal is the third Stokes component of the emitted light,

    S3 = (N_R_total - N_L_total) / (N_R_total + N_L_total),

built from degeneracy-weighted occupation totals of the two circular
polarisation blocks (a ground-mode-only variant is reported alongside).
Below threshold both blocks hold only a thermal-scale population and S3
hovers near zero; above threshold the block with the lower effective
threshold condenses and S3 saturates towards +-1.  The sign therefore
reads out which enantiomer dominates the intracavity medium.

Sweep drivers:

* pump_sweep: one steady state per pump value over an ascending grid,
  each solve seeded with the previous solution (only the
  pseudo-transient route reads the seed), plus the frozen-loser
  two-mode trace for comparison.  It runs point by point through the
  public find_steady_state and stokes_s3, on one mode ladder and the
  rate table built on it.
* chi_sweep: one steady state per index splitting chi at fixed pump,
  repeated for a family of absorption-scale factors.  Each point builds
  its own ladder, rate table and rate system.
* grid_sweep: chi x pump map.  Each chi column builds one ladder, rate
  table and rate system and solves its whole pump grid in one call
  (steady_states: one lock-step root search on the exact route,
  chunked to bound memory; the seeded pseudo-transient loop otherwise),
  and reads the observables from the row-stacked occupations.
* sensitivity: central-difference slope dS3/depsilon at an operating
  point, with automatic step control and a noise-dominated flag when
  the S3 difference falls below what the solver tolerance can resolve.

Every rate system comes from RateSystem.from_tables on a ModeLadder and
its RateTable, so every sweep gets the same rate checks.  chi_sweep,
grid_sweep and sensitivity share one per-chi solve (_solve_at_chi) and
run in one process, in grid order.  stokes_s3 and the batched drivers
share one array readout, so a CSV row is the same bytes whichever
driver produced it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .cavity import CavityParams, ModeLadder, cavity_decay, mode_ladder
from .chiral import ChiralSample, SolventParams, chi_from_sample, refractive_indices
from .dye import DyeParams, build_rate_table
from .analytic import pinned_pair
from .dynamics import (RateSystem, SolverConfig, SteadyState, SystemState,
                       find_steady_state, row_dot, steady_states)

# totals below this hold no measurable light; S3 is flagged undefined
S3_TOTAL_FLOOR = 1e-6

# most times sensitivity doubles its bracket to clear the noise floor
MAX_DOUBLINGS = 6


# --- observables ---------------------------------------------------------


@dataclass(frozen=True)
class Observables:
    """Polarisation-resolved readout of one steady state.

    S3 and S3_ground are NaN (and `defined` False for S3) when the
    corresponding total occupation sits below the measurable floor.
    """

    S3: float
    S3_ground: float
    N_L_total: float
    N_R_total: float
    N_ground_L: float
    N_ground_R: float
    p_e: float
    defined: bool


def _readout(N, ladder: ModeLadder) -> dict:
    """Stokes readout of row-stacked occupations on a ladder, per row."""
    deg = ladder.degeneracy.astype(float)
    nl = ladder.n_left
    # one BLAS dot per row and block, the call a lone readout makes
    total_L = row_dot(N[:, :nl], deg[:nl])
    total_R = row_dot(N[:, nl:], deg[nl:])
    zeros = np.zeros(N.shape[0])
    i_L, i_R = ladder.ground()
    ground_L = zeros if i_L is None else N[:, i_L]
    ground_R = zeros if i_R is None else N[:, i_R]
    total = total_R + total_L
    ground_total = ground_R + ground_L
    defined = total >= S3_TOTAL_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        s3 = np.where(defined, (total_R - total_L) / total, np.nan)
        s3_ground = np.where(ground_total >= S3_TOTAL_FLOOR,
                             (ground_R - ground_L) / ground_total, np.nan)
    return {"N_L_total": total_L, "N_R_total": total_R,
            "N_ground_L": ground_L, "N_ground_R": ground_R,
            "S3": s3, "S3_ground": s3_ground, "defined": defined}


def stokes_s3(steady: SteadyState, ladder: ModeLadder) -> Observables:
    """Degeneracy-weighted Stokes readout of a steady state on its ladder."""
    N = np.asarray(steady.N, dtype=float)
    if N.size != ladder.size:
        raise ValueError(
            f"state holds {N.size} occupations for {ladder.size} modes")
    obs = _readout(N[None, :], ladder)
    return Observables(
        S3=float(obs["S3"][0]), S3_ground=float(obs["S3_ground"][0]),
        N_L_total=float(obs["N_L_total"][0]),
        N_R_total=float(obs["N_R_total"][0]),
        N_ground_L=float(obs["N_ground_L"][0]),
        N_ground_R=float(obs["N_ground_R"][0]),
        p_e=steady.p_e, defined=bool(obs["defined"][0]))


# --- sweep specification and result --------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """One sweep axis: the grid definition."""

    axis: str
    start: float
    stop: float
    points: int
    spacing: str = "log"

    def __post_init__(self):
        if self.points < 1:
            raise ValueError(f"points must be >= 1, got {self.points}")
        if self.spacing not in ("log", "linear"):
            raise ValueError(
                f"spacing must be 'log' or 'linear', got {self.spacing!r}")
        if self.spacing == "log" and (self.start <= 0 or self.stop <= 0):
            raise ValueError("log spacing needs positive endpoints")
        if self.start > self.stop:
            raise ValueError(
                f"start must not exceed stop, got {self.start} > {self.stop}")

    def grid(self) -> np.ndarray:
        if self.points == 1:
            return np.array([self.start], dtype=float)
        if self.spacing == "log":
            return np.logspace(math.log10(self.start), math.log10(self.stop),
                               self.points)
        return np.linspace(self.start, self.stop, self.points)


@dataclass
class SweepResult:
    """Tabular sweep output: column names, rows and run metadata."""

    columns: list[str]
    rows: list[list]
    meta: dict

    @property
    def all_converged(self) -> bool:
        return self.meta.get("converged_points") == self.meta.get("points")

    def column(self, name: str) -> np.ndarray:
        i = self.columns.index(name)
        return np.array([row[i] for row in self.rows], dtype=float)


_POINT_FIELDS = ["N_L_total", "N_R_total", "N_ground_L", "N_ground_R",
                 "S3", "S3_ground", "p_e", "residual_norm", "iterations",
                 "converged"]


def _point_rows(states: SteadyState, ladder: ModeLadder) -> list[list]:
    """The _POINT_FIELDS of every row of a row-stacked steady state."""
    obs = _readout(states.N, ladder)
    obs.update(p_e=states.p_e, residual_norm=states.residual_norm,
               iterations=states.iterations, converged=states.converged)
    return [list(row) for row in
            zip(*(np.asarray(obs[name]).tolist() for name in _POINT_FIELDS))]


def _solve_at_chi(cavity, base_index, dye, l_max, kappa_override, solver,
                  chi, pumps):
    """Ladder and row-stacked steady states at one chi, one row per pump."""
    ladder = mode_ladder(cavity, refractive_indices(base_index, chi), l_max,
                         kappa_override)
    sys_ = RateSystem.from_tables(build_rate_table(dye, ladder), ladder, dye)
    return ladder, steady_states(sys_, pumps, solver)


def _meta(rows: list[list], columns: list[str], elapsed: float) -> dict:
    """Run summary for the manifest; everything but elapsed_s repeats."""
    i_conv = columns.index("converged")
    i_res = columns.index("residual_norm")
    i_it = columns.index("iterations")
    return {
        "points": len(rows),
        "converged_points": sum(1 for r in rows if r[i_conv]),
        "max_residual_norm": max((r[i_res] for r in rows), default=0.0),
        "iterations_total": sum(r[i_it] for r in rows),
        "iterations_max": max((r[i_it] for r in rows), default=0),
        "elapsed_s": elapsed,
    }


# --- sweep drivers --------------------------------------------------------


def pump_sweep(cavity: CavityParams, medium, dye: DyeParams, l_max: int,
               solver: SolverConfig, spec: SweepSpec,
               kappa_override: float | None = None) -> SweepResult:
    """Steady states along an ascending pump grid at a fixed medium.

    Runs sequentially so every point can be seeded from its neighbour;
    the frozen-loser trace of the two ground modes (ModeLadder.ground),
    each at its own loss and rates, is evaluated on the same grid and
    reported in the S3_pinned column.  A ground mode whose gain never
    exceeds its loss (M * gamma_dn_nu <= kappa, e.g. M = 0) never reaches
    its knee, so it is never the winner: with neither mode able to
    condense, S3_pinned follows the two single-mode laws at every pump.
    """
    t0 = time.perf_counter()
    pumps = spec.grid()
    ladder = mode_ladder(cavity, medium, l_max, kappa_override)
    rates = build_rate_table(dye, ladder)

    _, _, s3_pin = pinned_pair(
        pumps, dye.gamma_down, dye.M,
        *[(float(ladder.kappa[i]), float(rates.gamma_up[i]),
           float(rates.gamma_down[i])) for i in ladder.ground()])

    columns = ["pump"] + _POINT_FIELDS[:6] + ["S3_pinned"] + _POINT_FIELDS[6:]
    rows = []
    seed = None
    for pump, pin in zip(pumps.tolist(), s3_pin.tolist()):
        steady = find_steady_state(rates, ladder,
                                   replace(dye, gamma_up_pump=pump), solver,
                                   initial=seed)
        seed = SystemState(N=steady.N, p_e=steady.p_e)
        obs = stokes_s3(steady, ladder)
        rows.append([pump, obs.N_L_total, obs.N_R_total, obs.N_ground_L,
                     obs.N_ground_R, obs.S3, obs.S3_ground, pin, obs.p_e,
                     steady.residual_norm, steady.iterations,
                     steady.converged])
    meta = _meta(rows, columns, time.perf_counter() - t0)
    meta.update(axis="pump", modes=ladder.size)
    return SweepResult(columns=columns, rows=rows, meta=meta)


def chi_sweep(cavity: CavityParams, base_index: float, dye: DyeParams,
              l_max: int, solver: SolverConfig, spec: SweepSpec,
              kappa_override: float | None = None, *, scales,
              chi_per_epsilon: float | None = None) -> SweepResult:
    """Steady states along an index-splitting grid at fixed pump.

    Every grid point is an independent cold solve, repeated for each
    absorption-scale factor in `scales`.  chi is linear in the
    enantiomeric excess, so `chi_per_epsilon`, the chi at full excess,
    maps each point back to the excess behind it, chi / chi_per_epsilon;
    the epsilon column is NaN when it is None or 0.
    """
    t0 = time.perf_counter()
    chis = spec.grid().tolist()
    eps_col = [chi / chi_per_epsilon if chi_per_epsilon else math.nan
               for chi in chis]
    rows = []
    for scale in map(float, scales):
        dye_s = replace(dye, gamma_up0=dye.gamma_up0 * scale)
        for chi, epsilon in zip(chis, eps_col):
            ladder, states = _solve_at_chi(cavity, base_index, dye_s, l_max,
                                           kappa_override, solver, chi,
                                           [dye_s.gamma_up_pump])
            rows.append([scale, chi, epsilon]
                        + _point_rows(states, ladder)[0])
    columns = ["scale", "chi", "epsilon"] + _POINT_FIELDS
    meta = _meta(rows, columns, time.perf_counter() - t0)
    meta.update(axis=spec.axis, scales=list(scales),
                pump=dye.gamma_up_pump)
    return SweepResult(columns=columns, rows=rows, meta=meta)


def grid_sweep(cavity: CavityParams, base_index: float, dye: DyeParams,
               l_max: int, solver: SolverConfig, chi_spec: SweepSpec,
               pump_spec: SweepSpec,
               kappa_override: float | None = None) -> SweepResult:
    """Chi x pump map of the steady state, one chi column after another.

    Each chi column solves its ascending pump grid in one steady_states
    call: one lock-step root search on the exact route, while the
    pseudo-transient route seeds every point from the previous one.
    """
    t0 = time.perf_counter()
    chis = chi_spec.grid()
    pumps = pump_spec.grid()
    rows = []
    for chi in chis.tolist():
        ladder, states = _solve_at_chi(cavity, base_index, dye, l_max,
                                       kappa_override, solver, chi, pumps)
        rows += [[chi, pump] + fields for pump, fields
                 in zip(pumps.tolist(), _point_rows(states, ladder))]
    columns = ["chi", "pump"] + _POINT_FIELDS
    meta = _meta(rows, columns, time.perf_counter() - t0)
    meta.update(axis1=chi_spec.axis, axis2=pump_spec.axis,
                shape=[len(chis), len(pumps)])
    return SweepResult(columns=columns, rows=rows, meta=meta)


# --- sensitivity ----------------------------------------------------------


@dataclass(frozen=True)
class SensitivityReport:
    """Central-difference slope of S3 against enantiomeric excess.

    noise_dominated marks a bracket whose S3 difference is within ten
    times what the solver tolerance can resolve; the slope value is then
    an upper-bound artefact, not a measurement.  points counts the
    bracket-end solves and converged_points those that converged.
    """

    epsilon: float
    slope: float
    step: float
    epsilon_minus: float
    epsilon_plus: float
    S3_minus: float
    S3_plus: float
    noise_dominated: bool
    points: int
    converged_points: int


def sensitivity(cavity: CavityParams, sample: ChiralSample,
                solvent: SolventParams, dye: DyeParams, l_max: int,
                solver: SolverConfig, epsilon: float, step: float = 0.01,
                kappa_override: float | None = None) -> SensitivityReport:
    """Slope dS3/depsilon at an operating excess, by central difference.

    The step is halved until the bracket fits inside [0, 1], then
    doubled (within the bracket limit, at most MAX_DOUBLINGS times) while
    the S3 difference stays below the solver noise floor.  The final
    bracket is reported either way, with the noise flag set when even the
    widest usable bracket cannot resolve a slope.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    if not 0.0 < step < 1.0:
        raise ValueError(f"step must lie in (0, 1), got {step}")
    kappa_ref = kappa_override
    if kappa_ref is None:
        kappa_ref = cavity_decay(cavity, solvent.base_index)
    if not kappa_ref > 0.0:
        # the noise floor below is measured in units of the photon loss
        raise ValueError(
            f"mirror_loss = {cavity.mirror_loss} and kappa_override = "
            f"{kappa_override} give the modes no decay rate; set a "
            "positive kappa_override")
    abs_tol = solver.tolerance(kappa_ref)
    noise_floor = 10.0 * (2.0 * abs_tol / kappa_ref)

    h_limit = min(epsilon, 1.0 - epsilon)
    if h_limit <= 0.0:
        raise ValueError(
            f"epsilon = {epsilon} leaves no room for a central bracket")
    h = step
    while h > h_limit:
        h *= 0.5

    converged = []

    def s3_at(eps: float) -> float:
        chi = chi_from_sample(replace(sample, epsilon=eps), solvent)
        ladder, states = _solve_at_chi(cavity, solvent.base_index, dye, l_max,
                                       kappa_override, solver, chi,
                                       [dye.gamma_up_pump])
        converged.append(bool(states.converged[0]))
        return float(_readout(states.N, ladder)["S3"][0])

    def bracket(hh: float):
        lo, hi = epsilon - hh, epsilon + hh
        return lo, hi, s3_at(lo), s3_at(hi)

    lo, hi, s_lo, s_hi = bracket(h)
    doublings = 0
    while (abs(s_hi - s_lo) < noise_floor and doublings < MAX_DOUBLINGS
           and 2.0 * h <= h_limit):
        h *= 2.0
        doublings += 1
        lo, hi, s_lo, s_hi = bracket(h)

    noise_dominated = abs(s_hi - s_lo) < noise_floor
    slope = (s_hi - s_lo) / (hi - lo)
    return SensitivityReport(epsilon=epsilon, slope=slope, step=h,
                             epsilon_minus=lo, epsilon_plus=hi,
                             S3_minus=s_lo, S3_plus=s_hi,
                             noise_dominated=noise_dominated,
                             points=len(converged),
                             converged_points=sum(converged))

