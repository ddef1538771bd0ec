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
  each solve seeded by dynamics.secant_seed from the solutions before
  it, the rule steady_states applies along a column (only the
  pseudo-transient route reads the seed), plus the frozen-loser
  two-mode trace for comparison.  It runs point by point through the
  public find_steady_state and stokes_s3, on one mode ladder, one rate
  table and one rate system (find_steady_state's memo).
* chi_sweep: one steady state per index splitting chi at fixed pump,
  repeated for a family of absorption-scale factors.  Each solved chi
  builds one ladder for every scale, and on it a rate table and rate
  system per scale.
* grid_sweep: chi x pump map.  Each solved chi column builds one ladder,
  rate table and rate system and solves its whole pump grid in one call
  (steady_states: one lock-step root search on the exact route,
  chunked to bound memory; the seeded pseudo-transient loop otherwise),
  and reads the observables from the row-stacked occupations.
* sensitivity: central-difference slope dS3/depsilon at an operating
  point over the brackets bracket_steps lists (every command's config
  check reads the widest), with a noise-dominated flag when the S3
  difference falls below what the solver tolerance can resolve.  Each
  bracket is a two-chi column, one chi per end.

Every rate system comes from RateSystem.from_tables on a ModeLadder and
its RateTable, so every sweep gets the same rate checks.  chi_sweep,
grid_sweep and sensitivity run in one process, in grid order, and turn
each chi into its ladder, solved column and readout in one place,
_chi_grid_columns.  chi -> -chi swaps the two blocks exactly, so a
point whose -chi came earlier in the grid is read off that solve's
swapped blocks, not solved again, and the manifest counts those rows as
mirrored_points.  A symmetric linear grid
(SweepSpec.grid) pairs every point but a zero midpoint.  A sweep's
table is SweepResult.columns, one typed array per CSV column.  stokes_s3
and the batched drivers share one array readout and fill the same
_POINT_FIELDS columns, so a CSV row is the same bytes whichever driver
produced it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .cavity import CavityParams, ModeLadder, mode_ladder
from .chiral import ChiralSample, SolventParams, chi_from_sample, refractive_indices
from .dye import DyeParams, build_rate_table
from .analytic import pinned_pair
from .dynamics import (TOL_PER_KAPPA, RateSystem, SolverConfig, SteadyState,
                       find_steady_state, occupations, row_dot, secant_seed,
                       steady_states)

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
    Every field is read off the occupations (p_e is on SteadyState).
    """

    S3: float
    S3_ground: float
    N_L_total: float
    N_R_total: float
    N_ground_L: float
    N_ground_R: float
    defined: bool


def _readout(N, ladder: ModeLadder) -> dict:
    """Stokes readout of occupations on a ladder: one row, or row-stacked
    rows read per row.  Each field has N's shape without its mode axis."""
    deg, nl = ladder.degeneracy, ladder.n_left
    # row_dot: one BLAS dot per row and block, for a lone row or a stack
    total_L = row_dot(N[..., :nl], deg[:nl])
    total_R = row_dot(N[..., nl:], deg[nl:])
    zeros = np.zeros(N.shape[:-1])
    i_L, i_R = ladder.ground()
    ground_L = zeros if i_L is None else N[..., i_L]
    ground_R = zeros if i_R is None else N[..., i_R]
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
    """Degeneracy-weighted Stokes readout of steady.N: one-row _readout."""
    obs = _readout(occupations(steady.N, ladder), ladder)
    return Observables(**{name: value.item() for name, value in obs.items()})


# --- sweep specification and result --------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """One sweep axis; each error starts with the field it is about."""

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
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError(f"start and stop must be finite, got "
                             f"{self.start} and {self.stop}")
        if self.spacing == "log" and (self.start <= 0 or self.stop <= 0):
            raise ValueError(f"spacing = log needs a positive start and "
                             f"stop, got {self.start} and {self.stop}")
        if self.start > self.stop:
            raise ValueError(
                f"start must not exceed stop, got {self.start} > {self.stop}")

    def grid(self) -> np.ndarray:
        """Points from exactly start to exactly stop (the ends the config
        check reads): np.logspace's between them, or linear with t exactly
        antisymmetric, so that, unlike np.linspace, start == -stop gives
        g[k] == -g[n - k] and each chi its mirror (_chi_grid_columns).
        start == stop gives every point exactly start."""
        if self.points == 1 or self.start == self.stop:
            return np.full(self.points, self.start, dtype=float)
        if self.spacing == "log":
            g = np.logspace(math.log10(self.start), math.log10(self.stop),
                            self.points)
        else:
            n = self.points - 1
            t = (2.0 * np.arange(self.points) - n) / n
            half = (self.stop - self.start) / 2.0
            g = (self.start + half) + half * t
        g[0], g[-1] = self.start, self.stop
        return g


@dataclass
class SweepResult:
    """A sweep table, one array per column in CSV order, and run metadata."""

    columns: dict[str, np.ndarray]
    meta: dict

    @property
    def all_converged(self) -> bool:
        return bool(self.columns["converged"].all())


# the columns every sweep reads off its steady states, in CSV order
_POINT_FIELDS = {"N_L_total": float, "N_R_total": float, "N_ground_L": float,
                 "N_ground_R": float, "S3": float, "S3_ground": float,
                 "p_e": float, "residual_norm": float, "iterations": int,
                 "converged": bool}


def _empty_fields(rows: int) -> dict:
    return {name: np.empty(rows, dtype)
            for name, dtype in _POINT_FIELDS.items()}


def _chi_grid_columns(cavity, base_index, dyes, l_max, kappa_override, solver,
                      chis, pumps):
    """The _POINT_FIELDS of a dye x chi x pump table, dye-major, then
    chi-major with one row per pump, and how many of its rows were read
    off a mirror partner's solve.

    Each solved chi gets its ladder here, once for every dye (a dye does
    not enter the ladder); each dye then gets its rate table and rate
    system on that ladder and its pump grid in one steady_states call.

    chi -> -chi swaps n_L and n_R, so the ladder at -chi is the one at chi
    with its two blocks swapped (mode_ladder gives both l = 0 .. l_max),
    and every reduction runs per block: the steady state at -chi is the
    one at chi with its blocks swapped, bit for bit.  So when -chi comes
    later in the grid its rows are read off the swapped occupations of
    this solve, while every per-row scalar carries over; the readout
    recomputes S3 from the swapped totals, which keeps the sign of a
    zero.  Each readout goes straight into its slice of the columns, so
    no occupations outlive their solve.
    """
    n, m = len(pumps), len(chis)
    out = _empty_fields(len(dyes) * m * n)
    last = {chi: k for k, chi in enumerate(chis)}
    mirrored = set()
    for k, chi in enumerate(chis):
        if k in mirrored:
            continue
        ladder = mode_ladder(cavity, refractive_indices(base_index, chi),
                             l_max, kappa_override)
        nl = ladder.n_left
        j = last.get(-chi, k)
        slots = (k, j) if j > k and j not in mirrored else (k,)
        mirrored.update(slots[1:])
        for d, dye in enumerate(dyes):
            states = steady_states(RateSystem.from_tables(
                build_rate_table(dye, ladder), ladder, dye), pumps, solver)
            for slot in slots:
                N = states.N if slot == k else np.concatenate(
                    (states.N[:, nl:], states.N[:, :nl]), axis=1)
                point = {**vars(states), **_readout(N, ladder)}
                start = (d * m + slot) * n
                for name, column in out.items():
                    column[start:start + n] = point[name]
    return out, len(mirrored) * len(dyes) * n


def _meta(columns: dict, elapsed: float) -> dict:
    """Run summary for the manifest; everything but elapsed_s repeats."""
    iterations = columns["iterations"]
    return {
        "points": len(iterations),
        "converged_points": int(np.count_nonzero(columns["converged"])),
        # NaN when any residual is, in whatever row (unlike Python's max)
        "max_residual_norm": float(np.max(columns["residual_norm"],
                                          initial=0.0)),
        "iterations_total": int(iterations.sum()),
        "iterations_max": int(iterations.max(initial=0)),
        "elapsed_s": elapsed,
    }


# --- sweep drivers --------------------------------------------------------


def pump_sweep(cavity: CavityParams, medium, dye: DyeParams, l_max: int,
               solver: SolverConfig, spec: SweepSpec,
               kappa_override: float | None = None) -> SweepResult:
    """Steady states along an ascending pump grid at a fixed medium.

    Runs sequentially on one mode ladder, one rate table and one rate
    system (find_steady_state keeps it while only the pump changes), so
    every point can be seeded from the points below it, by secant_seed,
    as steady_states seeds a column; the frozen-loser trace of the two
    ground modes (ModeLadder.ground), each at its own loss and rates, is
    evaluated on the same grid and reported in the S3_pinned column.  A
    ground mode whose gain never exceeds its loss (M * gamma_dn_nu <=
    kappa, e.g. M = 0) never reaches its knee, so it is never the winner:
    with neither mode able to condense, S3_pinned follows the two
    single-mode laws at every pump.
    """
    t0 = time.perf_counter()
    pumps = spec.grid()
    ladder = mode_ladder(cavity, medium, l_max, kappa_override)
    rates = build_rate_table(dye, ladder)

    _, _, s3_pin = pinned_pair(
        pumps, dye.gamma_down, dye.M,
        *[(float(ladder.kappa[i]), float(rates.gamma_up[i]),
           float(rates.gamma_down[i])) for i in ladder.ground()])

    fields = _empty_fields(pumps.size)
    names = list(_POINT_FIELDS)
    seed = before = None
    for i, pump in enumerate(pumps.tolist()):
        steady = find_steady_state(rates, ladder,
                                   replace(dye, gamma_up_pump=pump), solver,
                                   seed)
        seed, before = secant_seed(before, steady.N), steady.N
        obs = stokes_s3(steady, ladder)
        for k, name in enumerate(names):    # the first 6 are the readout's
            fields[name][i] = getattr(obs if k < 6 else steady, name)
    columns = {"pump": pumps, **{k: fields[k] for k in names[:6]},
               "S3_pinned": s3_pin, **{k: fields[k] for k in names[6:]}}
    meta = _meta(columns, time.perf_counter() - t0)
    meta.update(axis="pump", modes=ladder.size)
    return SweepResult(columns=columns, meta=meta)


def chi_sweep(cavity: CavityParams, base_index: float, dye: DyeParams,
              l_max: int, solver: SolverConfig, spec: SweepSpec,
              kappa_override: float | None = None, *, scales,
              chi_per_epsilon: float | None = None) -> SweepResult:
    """Steady states along an index-splitting grid at fixed pump.

    Every grid point is a cold solve, repeated on its chi's one ladder for
    each absorption-scale factor in `scales`, except that a point whose
    -chi came earlier in the grid is read off that solve with its blocks
    swapped (_chi_grid_columns), bit for bit what its own solve gives;
    meta counts those rows as mirrored_points.  chi is linear in the
    enantiomeric excess, so `chi_per_epsilon`, the chi at full excess,
    maps each point back to the excess behind it, chi / chi_per_epsilon;
    the epsilon column is NaN when it is None or 0.
    """
    t0 = time.perf_counter()
    chis = spec.grid()
    n = chis.size
    dyes = [replace(dye, gamma_up0=dye.gamma_up0 * scale)
            for scale in map(float, scales)]
    fields, mirrored = _chi_grid_columns(cavity, base_index, dyes, l_max,
                                         kappa_override, solver, chis.tolist(),
                                         [dye.gamma_up_pump])
    epsilon = (chis / chi_per_epsilon if chi_per_epsilon
               else np.full(n, math.nan))
    columns = {"scale": np.repeat(np.asarray(scales, dtype=float), n),
               "chi": np.tile(chis, len(scales)),
               "epsilon": np.tile(epsilon, len(scales)), **fields}
    meta = _meta(columns, time.perf_counter() - t0)
    meta.update(axis="chi", scales=list(scales),
                pump=dye.gamma_up_pump, mirrored_points=mirrored)
    return SweepResult(columns=columns, meta=meta)


def grid_sweep(cavity: CavityParams, base_index: float, dye: DyeParams,
               l_max: int, solver: SolverConfig, chi_spec: SweepSpec,
               pump_spec: SweepSpec,
               kappa_override: float | None = None) -> SweepResult:
    """Chi x pump map of the steady state, one chi column after another.

    Each chi column solves its ascending pump grid in one steady_states
    call: one lock-step root search on the exact route, while the
    pseudo-transient route seeds every point from the ones before it
    (secant_seed).  A column whose -chi came earlier in the grid is read
    off that column's solve with its blocks swapped (_chi_grid_columns);
    meta counts those rows as mirrored_points.
    """
    t0 = time.perf_counter()
    chis = chi_spec.grid()
    pumps = pump_spec.grid()
    fields, mirrored = _chi_grid_columns(cavity, base_index, [dye], l_max,
                                         kappa_override, solver,
                                         chis.tolist(), pumps)
    columns = {"chi": np.repeat(chis, pumps.size),
               "pump": np.tile(pumps, chis.size), **fields}
    meta = _meta(columns, time.perf_counter() - t0)
    meta.update(axis1="chi", axis2="pump",
                shape=[len(chis), len(pumps)], mirrored_points=mirrored)
    return SweepResult(columns=columns, meta=meta)


# --- sensitivity ----------------------------------------------------------


@dataclass(frozen=True)
class SensitivityReport:
    """Central-difference slope of S3 against enantiomeric excess.

    noise_dominated marks a bracket whose S3 difference is within ten
    times 2 * TOL_PER_KAPPA, the tolerance relative to the loss at both
    ends; the slope value is then an upper-bound artefact, not a
    measurement.  points counts the bracket-end solves and
    converged_points those that converged.
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


def bracket_steps(epsilon: float, step: float) -> list[float]:
    """The bracket half-widths sensitivity tries at `epsilon`, in order:
    `step` halved until epsilon +- step fits in [0, 1], then doubled at
    most MAX_DOUBLINGS times while the bracket still fits.  The last is
    the widest bracket any run at (epsilon, step) can reach."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    if not 0.0 < step < 1.0:
        raise ValueError(f"step must lie in (0, 1), got {step}")
    h_limit = min(epsilon, 1.0 - epsilon)
    if h_limit <= 0.0:
        raise ValueError(
            f"epsilon = {epsilon} leaves no room for a central bracket")
    while step > h_limit:
        step *= 0.5
    widths = (step * 2.0**k for k in range(MAX_DOUBLINGS + 1))
    return [h for h in widths if h <= h_limit]


def sensitivity(cavity: CavityParams, sample: ChiralSample,
                solvent: SolventParams, dye: DyeParams, l_max: int,
                solver: SolverConfig, epsilon: float, step: float = 0.01,
                kappa_override: float | None = None) -> SensitivityReport:
    """Slope dS3/depsilon at an operating excess, by central difference.

    Walks the half-widths of bracket_steps and stops at the first
    bracket whose S3 difference clears the solver noise floor.  The
    final bracket is reported either way, with the noise flag set when
    even the widest one cannot resolve a slope.
    """
    noise_floor = 10.0 * (2.0 * TOL_PER_KAPPA)
    # each bracket is one two-chi column; both ends lie at epsilon >= 0,
    # so they are never a mirror pair and each end is solved
    points = converged_points = 0
    for h in bracket_steps(epsilon, step):
        lo, hi = epsilon - h, epsilon + h
        columns, _ = _chi_grid_columns(
            cavity, solvent.base_index, [dye], l_max, kappa_override, solver,
            [chi_from_sample(replace(sample, epsilon=eps), solvent)
             for eps in (lo, hi)],
            [dye.gamma_up_pump])
        s_lo, s_hi = columns["S3"].tolist()
        points += 2
        converged_points += int(np.count_nonzero(columns["converged"]))
        noise_dominated = abs(s_hi - s_lo) < noise_floor
        if not noise_dominated:
            break

    slope = (s_hi - s_lo) / (hi - lo)
    return SensitivityReport(epsilon=epsilon, slope=slope, step=h,
                             epsilon_minus=lo, epsilon_plus=hi,
                             S3_minus=s_lo, S3_plus=s_hi,
                             noise_dominated=noise_dominated,
                             points=points,
                             converged_points=converged_points)
