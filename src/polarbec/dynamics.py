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
  every live row's candidate is evaluated in one batched call, and a
  row drops out when its search ends.  The route takes rows in chunks
  of at most CHUNK_ELEMENTS occupations, for the search and for the
  drift and norm of its answers alike, so beside the column's own N no
  temporary outgrows a few hundred kB whatever the grid length.  Each
  row runs the same float operations as a lone solve, so batching
  changes no bit of any answer.

  h(u) is the cost of this route, and two kernels make it.  occ_at_u
  writes every mode's margin m1 x + m0 + u into one (rows, modes)
  buffer, from per-mode coefficients RateSystem precomputes (m1 = m0 = 0
  exactly at the winner, whose margin stays u), takes the minimum to flag
  unphysical rows, and turns the buffer into N = M dn x / margin in
  place.  totals then needs only the weighted sums sum g up N and
  sum g dn N, which it takes as BLAS dot products, one per row, weight
  and block (row_dot).  One dot per row keeps each row's bits those of a
  lone row; a single gemv over all rows would round each row
  differently depending on how many rows there are.
* semi_dynamical: damped pseudo-time continuation.  Each step solves
  (I/h - J) dN = F(N) with the exact Jacobian, which is diagonal plus a
  rank-one coupling through the saturated molecular bath and therefore
  inverts in O(n).  The step size grows geometrically on accepted steps
  (h -> infinity recovers Newton) and shrinks on rejection; candidate
  steps that would push any occupation strongly negative are rejected
  outright and small negative undershoots are clamped to zero.  F has
  one definition, RateSystem.drift, evaluated once per candidate: its
  norm decides acceptance and the next step reuses it.  This is the
  only route that reads a starting state, the seed: one occupation per
  mode, as p_e is slaved to the occupations.  Along a pump-ordered
  column one rule, secant_seed, seeds every point: the second with the
  first answer, every later one with the secant predictor from the two
  answers before it, clamped at zero.  A cold start (the empty cavity)
  grows h from 0.1 / kappa_min; a seeded one starts at Newton scale
  (h_max, still under the growth cap) and, at its first rejected
  candidate or after SEEDED_STEPS unconverged steps, restarts from the
  seed on the cold schedule, reusing the seed's drift.  Steps taken
  before such a restart count toward the reported iterations and
  toward the MAX_STEPS budget.

Convergence is declared per mode against a balance-scaled floor: the
residual must be small compared to the gross one-way flux through the
mode, with an extra term covering float64 cancellation of the two
nearly-equal fluxes.  The reported residual_norm is normalised so that
converged means residual_norm <= abs_tol = TOL_PER_KAPPA kappa_min.
The reported p_e comes from the totals of the drift that residual was
measured on; only a row clamped for negative occupations has its totals
evaluated again.  A non-finite state reports a NaN p_e, never a made-up
value.

steady_states is the engine: one rate system, a grid of pumps, one row
per pump.  Each route returns one row-stacked record (N, iterations,
norm, Gamma_up, Gamma_dn); steady_states picks one, or compares two and
errors at the first row where they differ by more than crosscheck_bound
(4 * BALANCE_FTOL), or by NaN.  find_steady_state is its one-row call.

All block reductions (sums, dot products) are taken per polarisation
block and then combined, so a perfectly achiral system relaxes to a
bitwise symmetric state and relabelling the two blocks swaps the
solution exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cavity import ModeLadder
from .dye import DyeParams, RateTable

# fractional tolerance of the per-mode balance check
BALANCE_FTOL = 1e-5
# float64 cancellation allowance relative to the gross one-way flux
CANCEL_EPS = 1e-15
# most occupations one (rows, modes) array of the batched root search
# holds; longer pump grids are solved in chunks of rows
CHUNK_ELEMENTS = 1 << 16
# most pseudo-time steps a seeded solve takes at Newton scale before it
# restarts from its seed on the cold schedule
SEEDED_STEPS = 12
# residual tolerance abs_tol per unit of the smallest loss rate kappa_min
TOL_PER_KAPPA = 1e-6
# most pseudo-time steps one pseudo-transient solve takes
MAX_STEPS = 200_000

SOLVER_MODES = ("fixed_point", "semi_dynamical", "both_crosscheck")


class CrosscheckError(RuntimeError):
    """The two steady-state routes disagree beyond solver tolerance."""


# --- configuration and result ------------------------------------------


@dataclass(frozen=True)
class SolverConfig:
    """The steady-state route: 'fixed_point', 'semi_dynamical' or
    'both_crosscheck'; TOL_PER_KAPPA and MAX_STEPS are constants."""

    mode: str = "fixed_point"

    def __post_init__(self):
        if self.mode not in SOLVER_MODES:
            raise ValueError(
                f"mode must be one of {SOLVER_MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class SteadyState:
    """Converged (or best-effort) stationary point of the rate equations.

    converged implies residual_norm <= TOL_PER_KAPPA * kappa_min.  From
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


def row_dot(a, c):
    """sum_nu a_nu c_nu along the last axis; the leading axes broadcast.

    Each pair of rows is stacked as (1, n) @ (n, 1), for which numpy's
    matmul makes one BLAS dot call, so every row gets the bits of a lone
    np.dot whatever the number of rows.  A plain (rows, n) @ (n,) is one
    gemv call, whose rounding differs from the lone dot once there are
    two rows.
    """
    return (a[..., None, :] @ c[..., None])[..., 0, 0]


class RateSystem:
    """Per-mode rate arrays plus molecule parameters, with L/R block slices.

    Occupations may be one vector or row-stacked, shape (rows, modes),
    with one pump per row; every reduction runs along the last axis,
    per polarisation block, and the block results are then combined.
    That makes every solver step exactly symmetric under relabelling the
    two blocks, and makes each row's arithmetic the same float
    operations whatever the other rows hold.  drift is the one F(N);
    its users take it whole, so a candidate state is evaluated once.

    The constructor precomputes what h(u) reads, per mode:
    m1 = M ((dn_w - dn) - (up - up_w)) and m0 = M (up - up_w)
    + (kap - kap_w), the margin's coefficients against the winner w;
    Mdn = M dn; and the stacked weights w_ud = (g up, g dn) with
    gd0 = gamma_dn + sum g dn, so that Gamma_up = pump + sum g up N and
    Gamma_dn = gd0 + sum g dn N.  blockdot takes those sums with
    row_dot, so a row's totals do not depend on its neighbours.
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
        # per-mode coefficients of occ_at_u: the margin is m1 x + m0 + u,
        # and m1 = m0 = 0 exactly at the winner, whose margin is u itself
        w = self.w
        self.umax = self.kap[w] + self.M * self.up[w]
        self.x_scale = self.M * (self.dn[w] + self.up[w])
        up_gap = self.up - self.up[w]
        self.m1 = self.dn[w] - self.dn          # M ((dn_w - dn) - up_gap)
        self.m1 -= up_gap
        self.m1 *= self.M
        self.m0 = up_gap * self.M               # M up_gap + (kap - kap_w)
        self.m0 += self.kap - self.kap[w]
        self.Mdn = self.M * self.dn
        # weights of totals, Gu = pump + sum wu N and Gd = gd0 + sum wd N,
        # stacked as the rows (wu, wd) so one matmul per block gives both
        self.w_ud = np.empty((2, self.n))
        np.multiply(self.deg, self.up, out=self.w_ud[0])
        np.multiply(self.deg, self.dn, out=self.w_ud[1])
        wd = self.w_ud[1]
        self.gd0 = self.gamma_dn + (np.add.reduce(wd[self.bL])
                                    + np.add.reduce(wd[self.bR]))

    @classmethod
    def from_tables(cls, rates: RateTable, ladder: ModeLadder,
                    dye: DyeParams) -> "RateSystem":
        """Rate system of a ladder and of the rate table built on it."""
        ladder = rates.ladder_for(ladder)
        return cls(ladder.degeneracy, rates.gamma_up, rates.gamma_down,
                   ladder.kappa, dye.M, dye.gamma_down, ladder.n_left)

    def blockdot(self, a, c):
        """row_dot(a, c), taken per block and then combined."""
        return (row_dot(a[..., self.bL], c[..., self.bL])
                + row_dot(a[..., self.bR], c[..., self.bR]))

    def totals(self, N, pump):
        """Collective molecular rates (Gamma_up, Gamma_dn), one per row."""
        t = self.blockdot(N[..., None, :], self.w_ud)
        return pump + t[..., 0], self.gd0 + t[..., 1]

    def drift(self, N, pump):
        """The one slaved drift F(N), per row: (F, b, S, gross, Gu, Gd).

        F = b N + S, b = r (dn Gu - up Gd) - kap, S = r dn Gu, gross flux
        kap N + r (dn (N + 1) Gu + up N Gd), r = M / (Gu + Gd); Gu, Gd
        are the totals.  Built in place: few (rows, modes) temporaries.
        """
        Gu, Gd = self.totals(N, pump)
        r = _col(self.M / (Gu + Gd))
        gu, gd = _col(Gu), _col(Gd)
        b = self.dn * gu
        b -= self.up * gd
        b *= r
        S = r * self.dn
        S *= gu
        gross = N + 1.0
        gross *= self.dn
        gross *= gu
        t = self.up * N
        t *= gd
        gross += t
        gross *= r
        np.multiply(self.kap, N, out=t)
        gross += t
        b -= self.kap
        F = np.multiply(b, N, out=t)
        F += S
        return F, b, S, gross, Gu, Gd

    def scaled_norm(self, N, abs_tol, drift):
        """Balance-scaled residual norm per row; <= abs_tol means converged.

        The residual F is measured against the floor abs_tol
        + BALANCE_FTOL (S + |b N|) + CANCEL_EPS gross.  `drift` is
        self.drift(N, pump), read and never modified.
        """
        F, b, S, gross, _, _ = drift
        floor = b * N
        np.abs(floor, out=floor)
        floor += S
        floor *= BALANCE_FTOL
        floor += abs_tol
        floor += gross * CANCEL_EPS
        f = np.abs(F)
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
        N = self.m1 * xc             # the margins, then N = Mdn x / margin
        N += self.m0
        N += u[:, None]
        bad = (np.minimum.reduce(N, axis=-1) <= 0.0) | (x <= 0.0)
        np.divide(self.Mdn, N, out=N)
        N *= xc
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
        rows advance in lock step: each step evaluates h at every live
        row's candidate in one batched call, and a finished row drops out
        and reports its bracket.  Returns (N, steps): N of shape
        (rows, modes), steps the number of h(u) evaluations of each row.
        The temporaries are (rows, modes) arrays; the exact route hands
        this at most CHUNK_ELEMENTS occupations at a time.
        """
        pumps = np.asarray(pump, dtype=float).reshape(-1)
        steps = np.zeros(pumps.size, dtype=int)
        live = (np.flatnonzero(~(pumps <= 0.0)) if self.M != 0.0
                else np.zeros(0, dtype=int))
        p = pumps[live]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            searches = [_root_search(self.umax, floor)
                        for floor in self.root_floor(p).tolist()]
            lo_end = np.zeros(p.size)
            hi_end = np.full(p.size, self.umax)
            rows, values = list(range(p.size)), [None] * p.size
            while rows:
                going, u = [], []
                for r, value in zip(rows, values):
                    try:
                        u.append(searches[r].send(value))
                    except StopIteration as end:
                        lo_end[r], hi_end[r], steps[live[r]] = end.value
                    else:
                        going.append(r)
                rows = going
                if rows:
                    values = self.h_of_u(np.array(u), p[rows]).tolist()
            N, _, bad = self.occ_at_u(hi_end)
            if bad.any():
                N[bad] = self.occ_at_u(lo_end[bad])[0]
        if live.size == pumps.size:
            return N, steps
        # rows without pump or molecules hold the empty cavity
        empty = np.zeros((pumps.size, self.n))
        empty[live] = N
        return empty, steps


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


def occupations(N, ladder: ModeLadder) -> np.ndarray:
    """N as a float array, one occupation per mode of the ladder."""
    N = np.asarray(N, dtype=float)
    if N.size != ladder.size:
        raise ValueError(
            f"state holds {N.size} occupations for {ladder.size} modes")
    return N


def total_rates(N, rates: RateTable, ladder: ModeLadder,
                dye: DyeParams) -> tuple[float, float]:
    """Collective molecular rates (Gamma_up, Gamma_dn) at occupations N."""
    N = occupations(N, ladder)
    sys_ = RateSystem.from_tables(rates, ladder, dye)
    gu, gd = sys_.totals(N, dye.gamma_up_pump)
    return float(gu), float(gd)


def full_derivatives(N, p_e: float, rates: RateTable, ladder: ModeLadder,
                     dye: DyeParams) -> tuple[np.ndarray, float]:
    """(dN/dt, dp_e/dt) of the coupled photon-molecule equations.

    The one function that reads an excited-state fraction: p_e is free
    here, 0 .. 1, where every solver slaves it to the occupations.
    """
    if not 0.0 <= p_e <= 1.0:
        raise ValueError(f"p_e must lie in [0, 1], got {p_e}")
    N = occupations(N, ladder)
    sys_ = RateSystem.from_tables(rates, ladder, dye)
    Gu, Gd = sys_.totals(N, dye.gamma_up_pump)
    dN = (-sys_.kap * N
          - sys_.up * N * sys_.M * (1.0 - p_e)
          + sys_.dn * (N + 1.0) * sys_.M * p_e)
    dpe = -Gd * p_e + Gu * (1.0 - p_e)
    return dN, float(dpe)


def adiabatic_derivative(N, rates: RateTable, ladder: ModeLadder,
                         dye: DyeParams) -> np.ndarray:
    """Photon drift with the molecular fraction slaved to the occupations.

    Equals the photon part of full_derivatives evaluated at
    p_e = Gamma_up / (Gamma_up + Gamma_dn): RateSystem.drift, the F(N)
    of both routes.  With no molecules it reduces to pure cavity decay.
    """
    N = occupations(N, ladder)
    return RateSystem.from_tables(rates, ladder, dye).drift(
        N, dye.gamma_up_pump)[0]


# --- steady-state solvers ------------------------------------------------


def _pt_step(sys_: RateSystem, N, drift, h):
    """One linearly implicit pseudo-time step from N, solved in O(n).

    `drift` is sys_.drift(N, pump).  The Jacobian of F is diagonal (the
    net rates b) plus rank one, so (I/h - J) inverts by the
    Sherman-Morrison identity.  The step is capped so that no locally
    growing direction is amplified past its linear-regime horizon.
    """
    F, b, _, _, Gu, Gd = drift
    bpos = b[b > 0]
    if bpos.size:
        h = min(h, 0.7 / float(bpos.max()))
    w = sys_.M * (sys_.dn * (N + 1.0) + sys_.up * N)
    c = sys_.deg * (sys_.up * Gd - sys_.dn * Gu) / (Gu + Gd)**2
    d = 1.0 / h - b
    y = F / d
    wd = w / d
    denom = 1.0 - sys_.blockdot(c, wd)
    if denom <= 0.0:
        return N + y
    return N + y + (sys_.blockdot(c, y) / denom) * wd


def _semi_dynamical(sys_: RateSystem, pump: float, N0, abs_tol: float):
    # returns the one-row record (N, steps, norm, Gamma_up, Gamma_dn), the
    # totals read off the drift the norm was taken on.
    # N0 is None (the empty cavity) or a float array, never written to.
    # A cold start grows h from 0.1 / kappa_min.  A seed starts at h_max,
    # Newton scale; at its first rejected candidate, or once SEEDED_STEPS
    # steps have not converged, it restarts from the seed on the cold
    # schedule, with the seed's drift and norm held from the start rather
    # than evaluated again.  Steps before a restart count toward `steps`
    # and MAX_STEPS.
    kap0 = float(np.min(sys_.kap)) if sys_.n else 1.0
    N = np.zeros(sys_.n) if N0 is None else N0
    h_cold = 0.1 / kap0
    h_min = 1e-3 / kap0
    h_max = 1e12 / kap0
    fast = N0 is not None
    h = h_max if fast else h_cold
    it = 0
    drift = sys_.drift(N, pump)
    norm = sys_.scaled_norm(N, abs_tol, drift)
    start = drift, norm
    rejected = False
    while it < MAX_STEPS and norm > abs_tol:
        if fast and (rejected or it == SEEDED_STEPS):
            N, h, fast = N0, h_cold, False
            drift, norm = start
        raw = _pt_step(sys_, N, drift, h)
        it += 1
        rejected = True
        if float(np.min(raw / (N + 1.0))) < -0.1:
            # candidate would drive occupations strongly negative
            h = max(h * 0.25, h_min)
            continue
        cand = np.maximum(raw, 0.0)
        cand_drift = sys_.drift(cand, pump)
        cand_norm = sys_.scaled_norm(cand, abs_tol, cand_drift)
        if cand_norm <= 4.0 * norm:
            N, norm, drift = cand, cand_norm, cand_drift
            h = min(h * 2.0, h_max)
            rejected = False
        else:
            h = max(h * 0.25, h_min)
    return N, it, norm, drift[4], drift[5]


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


def _exact(sys_, pumps, abs_tol):
    # record of the exact route, CHUNK_ELEMENTS occupations at a time: each
    # chunk of rows gets its lock-step root search, its drift and its norm,
    # written into the column's record, so no temporary outgrows a chunk
    N = np.empty((pumps.size, sys_.n))
    steps = np.empty(pumps.size, dtype=int)
    norm, Gu, Gd = np.empty((3, pumps.size))
    chunk = max(1, CHUNK_ELEMENTS // max(sys_.n, 1))
    for start in range(0, pumps.size, chunk):
        part = slice(start, start + chunk)
        N[part], steps[part] = sys_.solve(pumps[part])
        drift = sys_.drift(N[part], pumps[part])
        norm[part] = sys_.scaled_norm(N[part], abs_tol, drift)
        Gu[part], Gd[part] = drift[4], drift[5]
    return N, steps, norm, Gu, Gd


def secant_seed(before, last):
    """Seed of the next point of a pump-ordered column from its last two.

    `last` is the previous point's occupations and `before` the ones
    before them, or None at the column's second point, which is seeded
    with `last` itself.  Later points get the secant predictor
    2 last - before (Allgower & Georg, Introduction to Numerical
    Continuation Methods, 2003), clamped at zero, so the seed stays a
    valid, non-negative starting state.  It extrapolates in the point
    index, which suits grids evenly spaced in log or linear pump.
    """
    if before is None:
        return last
    return np.maximum(2.0 * last - before, 0.0)


def _pseudo_transient(sys_, pumps, seed, abs_tol):
    # record of the pseudo-transient route: rows solved in pump order,
    # the first seeded with `seed` and every later one by secant_seed
    # from the rows before it
    rows, before = [], None
    for pump in pumps.tolist():
        rows.append(_semi_dynamical(sys_, pump, seed, abs_tol))
        last = rows[-1][0]
        seed, before = secant_seed(before, last), last
    steps, norm, Gu, Gd = np.array([r[1:] for r in rows]).reshape(-1, 4).T
    return (np.array([r[0] for r in rows]).reshape(pumps.size, sys_.n),
            steps.astype(int), norm, Gu, Gd)


def steady_states(sys_: RateSystem, pumps, config: SolverConfig,
                  seed=None) -> SteadyState:
    """Stationary points of one rate system at every pump of a grid.

    Returns a SteadyState whose fields are row-stacked: N of shape
    (rows, modes), the rest one entry per pump.  fixed_point returns
    the exact route's record and semi_dynamical the pseudo-transient
    one, its first row seeded with `seed` and every later one by
    secant_seed from its own previous rows.  `seed` is None for the
    empty cavity, or one finite, non-negative occupation per mode, else
    ValueError.  both_crosscheck computes both and raises
    CrosscheckError at the first row where an occupation's gap
    |N - N_pt| / (max(N, N_pt) + 1) exceeds crosscheck_bound() or is NaN
    (a non-finite answer); else it returns the exact record, with both
    routes' steps as iterations.
    """
    pumps = np.asarray(pumps, dtype=float).reshape(-1)
    abs_tol = TOL_PER_KAPPA * float(np.min(sys_.kap))
    if seed is not None and config.mode != "fixed_point":
        seed = np.asarray(seed, dtype=float)
        if seed.ndim != 1 or seed.size != sys_.n:
            raise ValueError(
                f"seed holds {seed.size} occupations for {sys_.n} modes")
        if not (np.isfinite(seed).all() and (seed >= 0.0).all()):
            raise ValueError(
                "seed occupations must be finite and non-negative")

    N, iters, norm, Gu, Gd = (
        _pseudo_transient(sys_, pumps, seed, abs_tol)
        if config.mode == "semi_dynamical" else _exact(sys_, pumps, abs_tol))
    if config.mode == "both_crosscheck":
        N_pt, iters_pt = _pseudo_transient(sys_, pumps, seed, abs_tol)[:2]
        dev = np.abs(N - N_pt) / (np.maximum(N, N_pt) + 1.0)
        bound = crosscheck_bound()
        # a NaN gap fails too: it compares False against the bound
        failing = np.flatnonzero(~(np.max(dev, axis=-1) <= bound))
        if failing.size:
            k = failing[0]
            worst = int(np.argmax(dev[k]))
            raise CrosscheckError(
                f"steady-state routes disagree at pump {pumps[k]:.6g}: "
                f"mode index {worst} deviates by "
                f"{float(dev[k, worst]):.3e} (allowed {bound:.3e})")
        iters = iters + iters_pt

    # negative occupations indicate a failed step; clamp and flag
    negative = np.any(N < 0.0, axis=-1)
    if negative.any():
        N[negative] = np.maximum(N[negative], 0.0)
        Gu[negative], Gd[negative] = sys_.totals(N[negative], pumps[negative])
    with np.errstate(divide="ignore", invalid="ignore"):
        # Gd >= gamma_down + sum g dn > 0 on a finite state; NaN stays NaN
        p_e = Gu / (Gu + Gd)
    return SteadyState(N=N, p_e=p_e, residual_norm=norm, iterations=iters,
                       converged=(norm <= abs_tol) & ~negative)


def find_steady_state(rates: RateTable, ladder: ModeLadder, dye: DyeParams,
                      config: SolverConfig = SolverConfig(),
                      seed=None) -> SteadyState:
    """Stationary point of the photon rate equations.

    The pump is dye.gamma_up_pump.  With no pump or no molecules the
    empty cavity (all occupations zero) is returned.  `seed`, one
    occupation per mode, starts the semi_dynamical route; the exact
    route ignores it.  This is the one-row call of steady_states, which
    checks the seed and documents the routes and the cross-check.
    """
    sys_ = RateSystem.from_tables(rates, ladder, dye)
    rows = steady_states(sys_, [dye.gamma_up_pump], config, seed)
    return SteadyState(N=rows.N[0], p_e=float(rows.p_e[0]),
                       residual_norm=float(rows.residual_norm[0]),
                       iterations=int(rows.iterations[0]),
                       converged=bool(rows.converged[0]))
