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
  two-mode trace for comparison.
* chi_sweep: one steady state per index splitting chi at fixed pump,
  repeated for a family of absorption-scale factors.
* grid_sweep: chi x pump map; each chi column runs its pump grid the
  way pump_sweep does, and distinct chi columns are independent and may
  run on a process pool.  Row order and values do not depend on the
  worker count.
* sensitivity: central-difference slope dS3/depsilon at an operating
  point, with automatic step control and a noise-dominated flag when
  the S3 difference falls below what the solver tolerance can resolve.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .cavity import CavityParams, Mode, build_mode_set
from .chiral import ChiralSample, SolventParams, chi_from_sample, refractive_indices
from .dye import DyeParams, build_rate_table
from .analytic import pinned_pair
from .dynamics import SolverConfig, SteadyState, SystemState, find_steady_state

# totals below this hold no measurable light; S3 is flagged undefined
S3_TOTAL_FLOOR = 1e-6

# absorption-scale factors of the default chi-sweep family
DEFAULT_SCALE_FAMILY = (0.5, 1.0, 2.0, 10.0)


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


def _block_prefix(modes: list[Mode]) -> int:
    sigmas = [m.sigma for m in modes]
    n_left = sigmas.count("L")
    if sigmas != ["L"] * n_left + ["R"] * (len(modes) - n_left):
        raise ValueError("modes must list the L block before the R block")
    return n_left


def stokes_s3(steady: SteadyState, modes: list[Mode]) -> Observables:
    """Degeneracy-weighted Stokes readout of a steady state."""
    N = np.asarray(steady.N, dtype=float)
    if N.size != len(modes):
        raise ValueError(
            f"state holds {N.size} occupations for {len(modes)} modes")
    n_left = _block_prefix(modes)
    deg = np.array([m.degeneracy for m in modes], dtype=float)
    total_L = float(np.dot(deg[:n_left], N[:n_left]))
    total_R = float(np.dot(deg[n_left:], N[n_left:]))

    ground = {"L": 0.0, "R": 0.0}
    for i, m in enumerate(modes):
        if m.l == 0:
            ground[m.sigma] = float(N[i])

    total = total_R + total_L
    defined = total >= S3_TOTAL_FLOOR
    s3 = (total_R - total_L) / total if defined else float("nan")
    ground_total = ground["R"] + ground["L"]
    s3_ground = ((ground["R"] - ground["L"]) / ground_total
                 if ground_total >= S3_TOTAL_FLOOR else float("nan"))
    return Observables(S3=s3, S3_ground=s3_ground,
                       N_L_total=total_L, N_R_total=total_R,
                       N_ground_L=ground["L"], N_ground_R=ground["R"],
                       p_e=steady.p_e, defined=defined)


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


def _point_fields(steady: SteadyState, modes: list[Mode]) -> list:
    obs = stokes_s3(steady, modes)
    return [obs.N_L_total, obs.N_R_total, obs.N_ground_L, obs.N_ground_R,
            obs.S3, obs.S3_ground, obs.p_e, steady.residual_norm,
            steady.iterations, steady.converged]


def _meta(rows: list[list], columns: list[str], elapsed: float) -> dict:
    i_conv = columns.index("converged")
    i_res = columns.index("residual_norm")
    return {
        "points": len(rows),
        "converged_points": sum(1 for r in rows if r[i_conv]),
        "max_residual_norm": max((r[i_res] for r in rows), default=0.0),
        "elapsed_s": elapsed,
    }


# --- sweep drivers --------------------------------------------------------


def pump_sweep(cavity: CavityParams, medium, dye: DyeParams, l_max: int,
               solver: SolverConfig, spec: SweepSpec,
               kappa_override: float | None = None) -> SweepResult:
    """Steady states along an ascending pump grid at a fixed medium.

    Runs sequentially so every point can be seeded from its neighbour;
    the frozen-loser ground-mode trace is evaluated on the same grid and
    reported in the S3_pinned column.
    """
    t0 = time.perf_counter()
    pumps = spec.grid()
    modes = build_mode_set(cavity, medium, l_max, kappa_override)
    rates = build_rate_table(dye, modes)

    i_L0 = next(i for i, m in enumerate(modes) if m.sigma == "L" and m.l == 0)
    i_R0 = next(i for i, m in enumerate(modes) if m.sigma == "R" and m.l == 0)
    _, _, s3_pin = pinned_pair(
        pumps, modes[i_L0].kappa, dye.gamma_down,
        float(rates.gamma_up[i_L0]), float(rates.gamma_down[i_L0]),
        float(rates.gamma_up[i_R0]), float(rates.gamma_down[i_R0]), dye.M)

    columns = ["pump"] + _POINT_FIELDS[:6] + ["S3_pinned"] + _POINT_FIELDS[6:]
    rows = []
    seed = None
    for k, pump in enumerate(pumps):
        dye_k = replace(dye, gamma_up_pump=float(pump))
        steady = find_steady_state(rates, modes, dye_k, solver, initial=seed)
        seed = SystemState(N=steady.N, p_e=steady.p_e)
        fields = _point_fields(steady, modes)
        rows.append([float(pump)] + fields[:6] + [float(s3_pin[k])]
                    + fields[6:])
    meta = _meta(rows, columns, time.perf_counter() - t0)
    meta.update(axis="pump", modes=len(modes))
    return SweepResult(columns=columns, rows=rows, meta=meta)


def _chi_point(args):
    (cavity, base_index, dye, l_max, solver, kappa_override,
     scale, chi, epsilon) = args
    dye_s = replace(dye, gamma_up0=dye.gamma_up0 * scale)
    medium = refractive_indices(base_index, chi)
    modes = build_mode_set(cavity, medium, l_max, kappa_override)
    rates = build_rate_table(dye_s, modes)
    steady = find_steady_state(rates, modes, dye_s, solver)
    return [scale, chi, epsilon] + _point_fields(steady, modes)


def chi_sweep(cavity: CavityParams, base_index: float, dye: DyeParams,
              l_max: int, solver: SolverConfig, spec: SweepSpec,
              kappa_override: float | None = None,
              scales=DEFAULT_SCALE_FAMILY, epsilons=None,
              threads: int = 1) -> SweepResult:
    """Steady states along an index-splitting grid at fixed pump.

    Every grid point is an independent cold solve, repeated for each
    absorption-scale factor in `scales`.  `epsilons`, when given, maps
    grid points back to the enantiomeric excess that produced each chi
    (reported as NaN otherwise).
    """
    t0 = time.perf_counter()
    chis = spec.grid()
    if epsilons is None:
        eps_col = [float("nan")] * len(chis)
    else:
        eps_col = [float(e) for e in epsilons]
        if len(eps_col) != len(chis):
            raise ValueError("epsilons must align with the chi grid")
    jobs = [(cavity, base_index, dye, l_max, solver, kappa_override,
             float(s), float(chi), eps_col[i])
            for s in scales for i, chi in enumerate(chis)]
    results = _run_jobs(_chi_point, jobs, threads)
    columns = ["scale", "chi", "epsilon"] + _POINT_FIELDS
    meta = _meta(results, columns, time.perf_counter() - t0)
    meta.update(axis=spec.axis, scales=list(scales),
                pump=dye.gamma_up_pump)
    return SweepResult(columns=columns, rows=results, meta=meta)


def _grid_column(args):
    (cavity, base_index, dye, l_max, solver, kappa_override, chi,
     pumps) = args
    medium = refractive_indices(base_index, chi)
    modes = build_mode_set(cavity, medium, l_max, kappa_override)
    rates = build_rate_table(dye, modes)
    rows = []
    seed = None
    for pump in pumps:
        dye_k = replace(dye, gamma_up_pump=float(pump))
        steady = find_steady_state(rates, modes, dye_k, solver, initial=seed)
        seed = SystemState(N=steady.N, p_e=steady.p_e)
        rows.append([chi, float(pump)] + _point_fields(steady, modes))
    return rows


def grid_sweep(cavity: CavityParams, base_index: float, dye: DyeParams,
               l_max: int, solver: SolverConfig, chi_spec: SweepSpec,
               pump_spec: SweepSpec, kappa_override: float | None = None,
               threads: int = 1) -> SweepResult:
    """Chi x pump map of the steady state.

    Each chi column runs its ascending pump grid with every point seeded
    from the previous one; columns are independent and distribute over
    `threads` workers without changing values or row order.
    """
    t0 = time.perf_counter()
    chis = chi_spec.grid()
    pumps = pump_spec.grid()
    jobs = [(cavity, base_index, dye, l_max, solver, kappa_override,
             float(chi), pumps) for chi in chis]
    columns_out = _run_jobs(_grid_column, jobs, threads)
    rows = [row for col in columns_out for row in col]
    columns = ["chi", "pump"] + _POINT_FIELDS
    meta = _meta(rows, columns, time.perf_counter() - t0)
    meta.update(axis1=chi_spec.axis, axis2=pump_spec.axis,
                shape=[len(chis), len(pumps)])
    return SweepResult(columns=columns, rows=rows, meta=meta)


def _run_jobs(fn, jobs: list, threads: int) -> list:
    """Run independent jobs, preserving input order in the output."""
    if threads <= 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, jobs))


# --- sensitivity ----------------------------------------------------------


@dataclass(frozen=True)
class SensitivityReport:
    """Central-difference slope of S3 against enantiomeric excess.

    noise_dominated marks a bracket whose S3 difference is within ten
    times what the solver tolerance can resolve; the slope value is then
    an upper-bound artefact, not a measurement.
    """

    epsilon: float
    slope: float
    step: float
    epsilon_minus: float
    epsilon_plus: float
    S3_minus: float
    S3_plus: float
    noise_dominated: bool


def _s3_at_epsilon(cavity, sample, solvent, dye, l_max, solver,
                   kappa_override, epsilon: float) -> float:
    chi = chi_from_sample(replace(sample, epsilon=epsilon), solvent)
    medium = refractive_indices(solvent.base_index, chi)
    modes = build_mode_set(cavity, medium, l_max, kappa_override)
    rates = build_rate_table(dye, modes)
    steady = find_steady_state(rates, modes, dye, solver)
    return stokes_s3(steady, modes).S3


def sensitivity(cavity: CavityParams, sample: ChiralSample,
                solvent: SolventParams, dye: DyeParams, l_max: int,
                solver: SolverConfig, epsilon: float, step: float = 0.01,
                kappa_override: float | None = None,
                max_doublings: int = 6) -> SensitivityReport:
    """Slope dS3/depsilon at an operating excess, by central difference.

    The step is halved until the bracket fits inside [0, 1], then
    doubled (within the bracket limit) while the S3 difference stays
    below the solver noise floor.  The final bracket is reported either
    way, with the noise flag set when even the widest usable bracket
    cannot resolve a slope.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    if not 0.0 < step < 1.0:
        raise ValueError(f"step must lie in (0, 1), got {step}")
    kappa_ref = kappa_override
    if kappa_ref is None:
        kappa_ref = min(_ground_kappas(cavity, solvent.base_index))
    abs_tol = solver.abs_tol if solver.abs_tol is not None else 1e-6 * kappa_ref
    noise_floor = 10.0 * (2.0 * abs_tol / kappa_ref)

    h_limit = min(epsilon, 1.0 - epsilon)
    if h_limit <= 0.0:
        raise ValueError(
            f"epsilon = {epsilon} leaves no room for a central bracket")
    h = step
    while h > h_limit:
        h *= 0.5

    def bracket(hh: float):
        lo, hi = epsilon - hh, epsilon + hh
        s_lo = _s3_at_epsilon(cavity, sample, solvent, dye, l_max, solver,
                              kappa_override, lo)
        s_hi = _s3_at_epsilon(cavity, sample, solvent, dye, l_max, solver,
                              kappa_override, hi)
        return lo, hi, s_lo, s_hi

    lo, hi, s_lo, s_hi = bracket(h)
    doublings = 0
    while (abs(s_hi - s_lo) < noise_floor and doublings < max_doublings
           and 2.0 * h <= h_limit):
        h *= 2.0
        doublings += 1
        lo, hi, s_lo, s_hi = bracket(h)

    noise_dominated = abs(s_hi - s_lo) < noise_floor
    slope = (s_hi - s_lo) / (hi - lo)
    return SensitivityReport(epsilon=epsilon, slope=slope, step=h,
                             epsilon_minus=lo, epsilon_plus=hi,
                             S3_minus=s_lo, S3_plus=s_hi,
                             noise_dominated=noise_dominated)


def _ground_kappas(cavity: CavityParams, base_index: float):
    from .cavity import cavity_decay as _decay
    medium = refractive_indices(base_index, 0.0)
    return (_decay(cavity, medium.n_L), _decay(cavity, medium.n_R))
