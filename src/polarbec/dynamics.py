"""Driven-dissipative photon rate equations and their steady state.

M dye molecules with excited-state fraction p_e exchange photons with
every cavity mode nu (occupation N_nu, degeneracy g_nu, loss kappa_nu,
per-molecule emission/absorption rates gamma_dn_nu / gamma_up_nu):

    dN_nu/dt = -kappa_nu N_nu - gamma_up_nu N_nu M (1 - p_e)
               + gamma_dn_nu (N_nu + 1) M p_e
    dp_e/dt  = -Gamma_dn p_e + Gamma_up (1 - p_e)

    Gamma_up = gamma_up_pump + sum_nu g_nu N_nu gamma_up_nu
    Gamma_dn = gamma_down    + sum_nu g_nu (N_nu + 1) gamma_dn_nu

The molecular fraction relaxes many orders of magnitude faster than the
photon field, so p_e is slaved to the instantaneous occupations,
p_e = Gamma_up / (Gamma_up + Gamma_dn), leaving a closed photon-only
drift used by both steady-state routes:

    F_nu(N) = -kappa_nu N_nu + (M / D) [ gamma_dn_nu (N_nu + 1) Gamma_up
                                         - gamma_up_nu N_nu Gamma_dn ],
    D = Gamma_up + Gamma_dn.

Two independent solvers find F(N) = 0:

* fixed_point: the exact one-variable reduction.  Every occupation is a
  closed-form function of the winning mode's saturation margin u, so
  the root of the excitation balance h(u) = 0 gives the whole steady
  state.  A safeguarded bracketing search finds it: geometric-mean
  steps down to the root's scale from a photon-number lower bound, then
  Illinois regula falsi steps with a bisection fallback, about 10-12
  evaluations of h per point; the reported iteration count is the
  number of h(u) evaluations.  A whole pump grid on one ladder is
  searched in lock step: occupations are held as (rows, modes) arrays,
  every live row's candidate is evaluated in one batched call, a row
  drops out when its search ends, and rows are taken in chunks of at
  most CHUNK_ELEMENTS occupations so the temporaries stay a few hundred
  kB whatever the grid length.  Each row runs the same float operations
  as a lone solve, so batching changes no bit of any answer.
* semi_dynamical: damped pseudo-time continuation.  Each step solves
  (I/h - J) dN = F(N) with the exact Jacobian, which is diagonal plus a
  rank-one coupling through the saturated molecular bath and therefore
  inverts in O(n).  The step size grows geometrically on accepted steps
  (h -> infinity recovers Newton) and shrinks on rejection; candidate
  steps that would push any occupation strongly negative are rejected
  outright and small negative undershoots are clamped to zero.  This is
  the only route that reads a starting state, so the sweeps seed each
  pump point from the previous one.

Convergence is declared per mode against a balance-scaled floor: the
residual must be small compared to the gross one-way flux through the
mode, with an extra term covering float64 cancellation of the two
nearly-equal fluxes.  The reported residual_norm is normalised so that
converged means residual_norm <= abs_tol.

Cross-checking runs both routes and errors if any occupation differs
by more than the convergence floor allows two converged routes to
differ (crosscheck_bound, 4 * BALANCE_FTOL).

steady_states is the engine: one rate system, a grid of pumps, one
row per pump.  find_steady_state is its one-row call on the mode-list
API.

All block reductions (sums, dot products) are taken per polarisation
block and then combined, so a perfectly achiral system relaxes to a
bitwise symmetric state and relabelling the two blocks swaps the
solution exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cavity import Mode, ModeLadder
from .dye import DyeParams, RateTable, absorption_rate, emission_rate

# fractional tolerance of the per-mode balance check
BALANCE_FTOL = 1e-5
# float64 cancellation allowance relative to the gross one-way flux
CANCEL_EPS = 1e-15
# most occupations one (rows, modes) array of the batched root search
# holds; longer pump grids are solved in chunks of rows
CHUNK_ELEMENTS = 1 << 16

SOLVER_MODES = ("fixed_point", "semi_dynamical", "both_crosscheck")


class CrosscheckError(RuntimeError):
    """The two steady-state routes disagree beyond solver tolerance."""


# --- state and configuration -------------------------------------------


@dataclass
class SystemState:
    """Instantaneous photon occupations and molecular excitation.

    N:   per-mode mean photon numbers, aligned with the mode list
    p_e: excited-state fraction of the dye, 0 .. 1
    """

    N: np.ndarray
    p_e: float

    def __post_init__(self):
        self.N = np.asarray(self.N, dtype=float)
        if not 0.0 <= self.p_e <= 1.0:
            raise ValueError(f"p_e must lie in [0, 1], got {self.p_e}")


@dataclass(frozen=True)
class SolverConfig:
    """Steady-state solver selection and tolerances.

    mode:      'fixed_point', 'semi_dynamical' or 'both_crosscheck'
    abs_tol:   residual tolerance, 1/s; None resolves to 1e-6 * min(kappa)
    max_iters: step budget of the pseudo-transient route
    """

    mode: str = "fixed_point"
    abs_tol: float | None = None
    max_iters: int = 200_000

    def __post_init__(self):
        if self.mode not in SOLVER_MODES:
            raise ValueError(
                f"mode must be one of {SOLVER_MODES}, got {self.mode!r}")
        if self.abs_tol is not None and not self.abs_tol > 0:
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class SteadyState:
    """Converged (or best-effort) stationary point of the rate equations.

    converged implies residual_norm <= the resolved abs_tol.  From
    find_steady_state every field belongs to one point; from
    steady_states they are row-stacked, one row per pump.
    """

    N: np.ndarray
    p_e: float
    residual_norm: float
    iterations: int
    converged: bool


# --- internal rate-system engine ----------------------------------------


def _col(a):
    """Per-row scalars as a column that broadcasts against (rows, modes)."""
    return np.asarray(a)[..., None]


class RateSystem:
    """Per-mode rate arrays plus molecule parameters, with L/R block slices.

    Occupations may be one vector or row-stacked, shape (rows, modes),
    with one pump per row; every reduction runs along the last axis,
    per polarisation block, and the block results are then combined.
    That makes every solver step exactly symmetric under relabelling the
    two blocks, and makes each row's arithmetic the same float
    operations whatever the other rows hold.
    """

    def __init__(self, deg, up, dn, kap, M, gamma_dn, n_left):
        self.deg = np.asarray(deg, dtype=float)
        self.up = np.asarray(up, dtype=float)
        self.dn = np.asarray(dn, dtype=float)
        self.kap = np.asarray(kap, dtype=float)
        self.M = float(M)
        self.gamma_dn = float(gamma_dn)
        self.n = self.deg.size
        self.bL = slice(0, n_left)
        self.bR = slice(n_left, self.n)
        if self.M > 0.0:
            # mode with the smallest saturated molecular fraction wins
            xnu = (self.kap / self.M + self.up) / (self.up + self.dn)
            self.w = int(np.argmin(xnu))
        else:
            self.w = 0
        # per-mode constants of occ_at_u, relative to the winner
        w = self.w
        self.umax = self.kap[w] + self.M * self.up[w]
        self.x_scale = self.M * (self.dn[w] + self.up[w])
        self.dn_gap = self.dn[w] - self.dn
        self.up_gap = self.up - self.up[w]
        self.kap_gap = self.kap - self.kap[w]
        self.Mdn = self.M * self.dn

    @classmethod
    def from_ladder(cls, ladder: ModeLadder, dye: DyeParams) -> "RateSystem":
        """Rate system of an array ladder, rates evaluated at its omegas."""
        return cls(ladder.degeneracy, absorption_rate(dye, ladder.omega),
                   emission_rate(dye, ladder.omega), ladder.kappa, dye.M,
                   dye.gamma_down, ladder.n_left)

    @classmethod
    def from_tables(cls, rates: RateTable, modes: list[Mode],
                    dye: DyeParams) -> "RateSystem":
        if len(rates) != len(modes):
            raise ValueError("rate table and mode list lengths differ")
        if tuple(modes) == rates.modes:
            # the table's own modes: reuse its array form, built once
            ladder = rates.ladder
        else:
            ladder = ModeLadder.from_modes(modes)
            for m, tm in zip(modes, rates.modes):
                if (m.sigma, m.j, m.l) != (tm.sigma, tm.j, tm.l):
                    raise ValueError(
                        "rate table was built for a different mode list")
        return cls(ladder.degeneracy, rates.gamma_up, rates.gamma_down,
                   ladder.kappa, dye.M, dye.gamma_down, ladder.n_left)

    def blocksum(self, arr):
        return (np.add.reduce(arr[..., self.bL], axis=-1)
                + np.add.reduce(arr[..., self.bR], axis=-1))

    def blockdot(self, x, y) -> float:
        return (float(np.dot(x[self.bL], y[self.bL]))
                + float(np.dot(x[self.bR], y[self.bR])))

    def totals(self, N, pump):
        """Collective molecular rates (Gamma_up, Gamma_dn), one per row."""
        t = self.deg * N
        t *= self.up
        gu = pump + self.blocksum(t)
        np.add(N, 1.0, out=t)
        t *= self.deg
        t *= self.dn
        gd = self.gamma_dn + self.blocksum(t)
        return gu, gd

    def parts(self, N, pump):
        """Drift decomposition: (net drift G, source S, gross flux).

        G = r (dn Gu - up Gd), S = r dn Gu and gross = kap N
        + r (dn (N + 1) Gu + up N Gd), with r = M / (Gu + Gd); built in
        place to hold few (rows, modes) temporaries at once.
        """
        Gu, Gd = self.totals(N, pump)
        r = _col(self.M / (Gu + Gd))
        Gu, Gd = _col(Gu), _col(Gd)
        G = self.dn * Gu
        G -= self.up * Gd
        G *= r
        S = r * self.dn
        S *= Gu
        gross = N + 1.0
        gross *= self.dn
        gross *= Gu
        t = self.up * N
        t *= Gd
        gross += t
        gross *= r
        np.multiply(self.kap, N, out=t)
        gross += t
        return G, S, gross

    def scaled_norm(self, N, pump, abs_tol):
        """Balance-scaled residual norm per row; <= abs_tol means converged.

        The residual f = N (G - kap) + S is measured against the floor
        abs_tol + BALANCE_FTOL (S + |drift|) + CANCEL_EPS gross.
        """
        drift, S, gross = self.parts(N, pump)
        drift -= self.kap
        drift *= N
        f = drift + S
        floor = np.abs(drift)
        floor += S
        floor *= BALANCE_FTOL
        floor += abs_tol
        gross *= CANCEL_EPS
        floor += gross
        np.abs(f, out=f)
        f /= floor
        return np.maximum.reduce(f, axis=-1) * abs_tol

    # --- exact one-variable reduction (the fixed_point route) ---

    def occ_at_u(self, u):
        """Occupations at the winning mode's margins u, one row per margin.

        Returns (N, x, bad): x is each row's saturated molecular fraction
        and bad flags rows outside the physical range (some mode margin
        or x not positive), whose N is meaningless.
        """
        x = (self.umax - u) / self.x_scale
        xc = x[:, None]
        margin = self.dn_gap * xc
        margin += self.up_gap * (1.0 - xc)
        margin *= self.M
        margin += self.kap_gap
        margin += u[:, None]
        bad = (np.minimum.reduce(margin, axis=-1) <= 0.0) | (x <= 0.0)
        N = self.Mdn * xc
        N /= margin
        return N, x, bad

    def h_of_u(self, u, pump):
        """Excitation-balance mismatch per row; root at the steady state."""
        N, x, bad = self.occ_at_u(u)
        Gu, Gd = self.totals(N, pump)
        return np.where(bad, np.inf, x * (Gu + Gd) - Gu)

    def root_floor(self, pumps):
        """Lower bound of the root u of h, one per pump.

        At the steady state the cavity loses photons no faster than the
        pump excites molecules: sum_nu g_nu kap_nu N_nu = M (pump (1 - p_e)
        - gamma_dn p_e) <= M pump, so the winner holds at most
        N_w <= M pump / (g_w kap_w).  With N_w = M dn_w x / u and
        x = (umax - u) / x_scale this gives u >= c (umax - u),
        c = dn_w g_w kap_w / (pump x_scale), so u >= c umax / (1 + c).
        The bound is halved to stay below the root after rounding.
        """
        w = self.w
        c = self.dn[w] * self.deg[w] * self.kap[w] / (pumps * self.x_scale)
        return 0.5 * c * self.umax / (1.0 + c)

    def solve(self, pump):
        """Exact occupations via a bracketing root search on the margin.

        `pump` is one pump or a 1-D array of them, one row each.  Every
        row runs its own _root_search of h(u) = 0 on [0, umax], and all
        rows advance in lock step, in chunks of at most CHUNK_ELEMENTS
        occupations: each step evaluates h at every live row's candidate
        in one batched call.  Returns (N, steps): N of shape
        (rows, modes), steps the number of h(u) evaluations of each row.
        """
        pumps = np.asarray(pump, dtype=float).reshape(-1)
        N = np.zeros((pumps.size, self.n))
        steps = np.zeros(pumps.size, dtype=int)
        live = (np.flatnonzero(~(pumps <= 0.0)) if self.M != 0.0
                else np.zeros(0, dtype=int))
        chunk = max(1, CHUNK_ELEMENTS // max(self.n, 1))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for start in range(0, live.size, chunk):
                rows = live[start:start + chunk]
                N[rows], steps[rows] = self._find_roots(pumps[rows])
        return N, steps

    def _find_roots(self, pumps):
        # every live row sends its last h value and receives its next
        # candidate; finished rows drop out and report their bracket
        searches = [_root_search(self.umax, floor)
                    for floor in self.root_floor(pumps).tolist()]
        lo_end = np.zeros(pumps.size)
        hi_end = np.full(pumps.size, self.umax)
        steps = np.zeros(pumps.size, dtype=int)
        rows, values = list(range(pumps.size)), [None] * pumps.size
        while rows:
            live, u = [], []
            for r, value in zip(rows, values):
                try:
                    u.append(searches[r].send(value))
                except StopIteration as end:
                    lo_end[r], hi_end[r], steps[r] = end.value
                else:
                    live.append(r)
            rows = live
            if rows:
                values = self.h_of_u(np.array(u), pumps[rows]).tolist()
        N, _, bad = self.occ_at_u(hi_end)
        if bad.any():
            N[bad] = self.occ_at_u(lo_end[bad])[0]
        return N, steps


def _root_search(umax, floor):
    """Safeguarded superlinear search for the root of h on [0, umax].

    A generator: it yields each margin u to evaluate, is sent h(u), and
    returns (lo, hi, evaluations).  h < 0 moves hi and anything else
    (h = +inf where some mode margin is <= 0 included) moves lo.  The
    root usually sits many decades below umax, and `floor` is a lower
    bound of it (RateSystem.root_floor).  While hi exceeds 4 max(lo,
    floor), or an end value is not yet a finite g of the right sign,
    the search steps to the geometric mean of max(lo, floor) and hi.
    Then it takes Illinois steps (Dowell & Jarratt, BIT 11, 168 (1971))
    on g(u) = u h(u), which is nearly linear near the root because the
    winner's occupation goes as 1/u, and bisects whenever the bracket
    failed to halve over the last three steps.  Each candidate keeps
    at least 4 ulps, and at most a quarter of the bracket, from either
    end.  The search stops at an exact zero of h, returning it as both
    ends, at a float-adjacent bracket, or after 201 evaluations.  All
    arithmetic is on the row's own floats, so batching rows changes no
    bit of any row.
    """
    lo, hi = 0.0, umax
    g_lo = g_hi = math.nan          # u h(u) at the ends, once evaluated
    widths = [math.inf] * 3         # bracket widths of the last 3 steps
    moved = 0                       # end moved last: -1 lo, +1 hi
    for evals in range(201):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo, hi, evals
        width = hi - lo
        base = max(lo, floor)
        illinois = False
        if (hi > 4.0 * base
                or not (0.0 < g_lo < math.inf and -math.inf < g_hi < 0.0)):
            u = math.sqrt(base * hi)
        elif width > 0.5 * widths[0]:
            u = mid
        else:
            u = lo - g_lo * width / (g_hi - g_lo)
            illinois = True
        widths = widths[1:] + [width]
        u = min(max(u, lo + min(4.0 * math.ulp(lo), 0.25 * width)),
                hi - min(4.0 * math.ulp(hi), 0.25 * width))
        if not lo < u < hi:
            u = mid
        h = yield u
        if h == 0.0:
            return u, u, evals + 1
        if h < 0.0:
            if illinois and moved > 0:
                g_lo *= 0.5
            hi, g_hi, moved = u, u * h, 1
        else:
            if illinois and moved < 0:
                g_hi *= 0.5
            lo, g_lo, moved = u, u * h, -1
    return lo, hi, 201


# --- public rate-equation operations ------------------------------------


def _check_alignment(n_state: int, rates: RateTable, modes: list[Mode]):
    if len(rates) != len(modes):
        raise ValueError("rate table and mode list lengths differ")
    if n_state != len(modes):
        raise ValueError(
            f"state holds {n_state} occupations for {len(modes)} modes")


def total_rates(state: SystemState, rates: RateTable, modes: list[Mode],
                dye: DyeParams) -> tuple[float, float]:
    """Collective molecular rates (Gamma_up, Gamma_dn) at a given state."""
    _check_alignment(state.N.size, rates, modes)
    sys_ = RateSystem.from_tables(rates, modes, dye)
    gu, gd = sys_.totals(state.N, dye.gamma_up_pump)
    return float(gu), float(gd)


def full_derivatives(state: SystemState, rates: RateTable, modes: list[Mode],
                     dye: DyeParams) -> tuple[np.ndarray, float]:
    """(dN/dt, dp_e/dt) of the coupled photon-molecule equations."""
    _check_alignment(state.N.size, rates, modes)
    sys_ = RateSystem.from_tables(rates, modes, dye)
    N, p_e = state.N, state.p_e
    Gu, Gd = sys_.totals(N, dye.gamma_up_pump)
    dN = (-sys_.kap * N
          - sys_.up * N * sys_.M * (1.0 - p_e)
          + sys_.dn * (N + 1.0) * sys_.M * p_e)
    dpe = -Gd * p_e + Gu * (1.0 - p_e)
    return dN, float(dpe)


def adiabatic_derivative(N, rates: RateTable, modes: list[Mode],
                         dye: DyeParams) -> np.ndarray:
    """Photon drift with the molecular fraction slaved to the occupations.

    Equals the photon part of full_derivatives evaluated at
    p_e = Gamma_up / (Gamma_up + Gamma_dn); with no molecules it reduces
    to pure cavity decay.
    """
    N = np.asarray(N, dtype=float)
    _check_alignment(N.size, rates, modes)
    sys_ = RateSystem.from_tables(rates, modes, dye)
    Gu, Gd = sys_.totals(N, dye.gamma_up_pump)
    D = Gu + Gd
    if D == 0.0:
        return -sys_.kap * N
    return (-sys_.kap * N
            + (sys_.M / D) * (sys_.dn * (N + 1.0) * Gu - sys_.up * N * Gd))


# --- steady-state solvers ------------------------------------------------


def _pt_step(sys_: RateSystem, N, pump, h):
    """One linearly implicit pseudo-time step, solved in O(n).

    The Jacobian of the adiabatic drift is diagonal plus rank one, so
    (I/h - J) inverts by the Sherman-Morrison identity.  The step is
    capped so that no locally growing direction is amplified past its
    linear-regime horizon.
    """
    Gu, Gd = sys_.totals(N, pump)
    D = Gu + Gd
    F = (-sys_.kap * N
         + (sys_.M / D) * (sys_.dn * (N + 1.0) * Gu - sys_.up * N * Gd))
    b = -sys_.kap + (sys_.M / D) * (sys_.dn * Gu - sys_.up * Gd)
    bpos = b[b > 0]
    if bpos.size:
        h = min(h, 0.7 / float(bpos.max()))
    w = sys_.M * (sys_.dn * (N + 1.0) + sys_.up * N)
    c = sys_.deg * (sys_.up * Gd - sys_.dn * Gu) / D**2
    d = 1.0 / h - b
    y = F / d
    wd = w / d
    denom = 1.0 - sys_.blockdot(c, wd)
    if denom <= 0.0:
        return N + y
    return N + y + (sys_.blockdot(c, y) / denom) * wd


def _semi_dynamical(sys_: RateSystem, pump: float, N0, abs_tol: float,
                    max_iters: int):
    kap0 = float(np.min(sys_.kap)) if sys_.n else 1.0
    N = np.zeros(sys_.n) if N0 is None else np.asarray(N0, dtype=float).copy()
    h = 0.1 / kap0
    h_min = 1e-3 / kap0
    h_max = 1e12 / kap0
    it = 0
    norm = sys_.scaled_norm(N, pump, abs_tol)
    while it < max_iters and norm > abs_tol:
        raw = _pt_step(sys_, N, pump, h)
        it += 1
        if float(np.min(raw / (N + 1.0))) < -0.1:
            # candidate would drive occupations strongly negative
            h = max(h * 0.25, h_min)
            continue
        cand = np.maximum(raw, 0.0)
        cand_norm = sys_.scaled_norm(cand, pump, abs_tol)
        if cand_norm <= 4.0 * norm:
            N, norm = cand, cand_norm
            h = min(h * 2.0, h_max)
        else:
            h = max(h * 0.25, h_min)
    return N, it, norm


def crosscheck_bound() -> float:
    """Largest relative occupation gap two converged routes may show.

    A route stops once every mode's residual f is below BALANCE_FTOL
    times its gross one-way flux S + |drift|, which is 2 S at balance.
    With the molecular bath held fixed, f = S - L N for the mode's net
    loss rate L, and the exact occupation is N* = S / L, so
    f = S (N* - N) / N*: a converged occupation sits within
    2 * BALANCE_FTOL of the exact one, relatively.  Two routes may land
    on opposite sides of it, hence 4 * BALANCE_FTOL.
    """
    return 4.0 * BALANCE_FTOL


def steady_states(sys_: RateSystem, pumps, config: SolverConfig,
                  seed=None) -> SteadyState:
    """Stationary points of one rate system at every pump of a grid.

    Returns a SteadyState whose fields are row-stacked: N of shape
    (rows, modes), the rest one entry per pump.  The exact route solves
    all rows in one lock-step root search.  The pseudo-transient route
    runs the pumps in order, seeding each from the previous answer and
    the first from `seed` (an occupation vector, or None for the empty
    cavity).  Cross-check mode runs both and raises CrosscheckError at
    the first row whose routes disagree by more than crosscheck_bound();
    the exact result is returned on success.
    """
    pumps = np.asarray(pumps, dtype=float).reshape(-1)
    kap_min = float(np.min(sys_.kap))
    abs_tol = config.abs_tol if config.abs_tol is not None else 1e-6 * kap_min

    if config.mode != "semi_dynamical":
        N, iters = sys_.solve(pumps)
        norm = sys_.scaled_norm(N, pumps, abs_tol)
    else:
        N = np.empty((pumps.size, sys_.n))
        iters = np.empty(pumps.size, dtype=int)
        norm = np.empty(pumps.size)
    if config.mode != "fixed_point":
        bound = crosscheck_bound()
        for k, pump in enumerate(pumps):
            N_sd, it_sd, norm_sd = _semi_dynamical(
                sys_, float(pump), seed, abs_tol, config.max_iters)
            if config.mode == "both_crosscheck":
                dev = np.abs(N[k] - N_sd) / (np.maximum(N[k], N_sd) + 1.0)
                worst = int(np.argmax(dev))
                if float(dev[worst]) > bound:
                    raise CrosscheckError(
                        f"steady-state routes disagree at pump {pump:.6g}: "
                        f"mode index {worst} deviates by "
                        f"{float(dev[worst]):.3e} (allowed {bound:.3e})")
                iters[k] += it_sd
            else:
                N[k], iters[k], norm[k] = N_sd, it_sd, norm_sd
            seed = N[k] if not np.any(N[k] < 0.0) else np.maximum(N[k], 0.0)

    # negative occupations indicate a failed step; clamp and flag
    negative = np.any(N < 0.0, axis=-1)
    N[negative] = np.maximum(N[negative], 0.0)
    Gu, Gd = sys_.totals(N, pumps)
    D = Gu + Gd
    with np.errstate(divide="ignore", invalid="ignore"):
        p_e = np.where(D > 0.0, Gu / D, 0.0)
    return SteadyState(N=N, p_e=p_e, residual_norm=norm, iterations=iters,
                       converged=(norm <= abs_tol) & ~negative)


def find_steady_state(rates: RateTable, modes: list[Mode], dye: DyeParams,
                      config: SolverConfig | None = None,
                      initial: SystemState | None = None) -> SteadyState:
    """Stationary point of the photon rate equations.

    The pump is dye.gamma_up_pump.  With no pump or no molecules the
    empty cavity (all occupations zero) is returned.  `initial` seeds
    the semi_dynamical route; the exact route needs no seed.  This is
    the one-row call of steady_states, which documents the routes and
    the cross-check.
    """
    if config is None:
        config = SolverConfig()
    sys_ = RateSystem.from_tables(rates, modes, dye)
    seed = None if initial is None else initial.N
    rows = steady_states(sys_, [dye.gamma_up_pump], config, seed)
    return SteadyState(N=rows.N[0], p_e=float(rows.p_e[0]),
                       residual_norm=float(rows.residual_norm[0]),
                       iterations=int(rows.iterations[0]),
                       converged=bool(rows.converged[0]))
