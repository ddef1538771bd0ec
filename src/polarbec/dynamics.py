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
  steps inside a bracket that the row's own pump gives, from the photon
  and molecular balances (RateSystem.root_floor and root_ceiling), then
  Illinois regula falsi steps with a bisection fallback, 7.2-8.5
  evaluations of h per point on the default sweeps and the benchmark
  workloads; the reported iteration count is the number of h(u)
  evaluations.  A whole pump grid on one ladder is
  searched in lock step: occupations are held as (rows, modes) arrays,
  every live row's candidate is evaluated in one batched call, and a
  row drops out when its search ends; a lone live row (a one-pump
  column) is not batched, but h takes its float margin on one vector
  and its drift is 1-D.  The route takes rows in chunks of at most
  CHUNK_ELEMENTS occupations, for the search and for the drift and
  norm of its answers alike, so beside the column's own N no temporary
  outgrows a few hundred kB whatever the grid length.  Each row runs
  the same float operations either way, so batching changes no bit of
  any answer.

  h(u) is the cost of this route, and two kernels make it.  occ_at_u
  writes every mode's margin m1 x + m0 + u into one (rows, modes)
  buffer, from per-mode coefficients RateSystem precomputes (m1 = m0 = 0
  exactly at the winner, whose margin stays u), takes the minimum to flag
  unphysical rows, and turns the buffer into N = M dn x / margin in
  place.  totals then needs only the weighted sums sum g up N and
  sum g dn N, which it takes as BLAS dot products, one per row, weight
  and block, all in row_dot.  One dot per row keeps each row's bits
  those of a lone row; a single gemv over all rows would round each row
  differently depending on how many rows there are.
* semi_dynamical: damped pseudo-time continuation.  Each step solves
  (I/h - J) dN = F(N) with the exact Jacobian, which is diagonal plus a
  rank-one coupling through the saturated molecular bath and therefore
  inverts in O(n).  The step size grows geometrically on accepted steps
  (h -> infinity recovers Newton), shrinks on rejection and is capped at
  0.7 / max(b > 0) per step.  A non-negative candidate is taken as it
  is; one with some occupation below -0.1 (N + 1) is rejected outright,
  and smaller undershoots are clamped to zero (a NaN candidate passes
  through the clamp, and its NaN norm rejects it).  F has
  one definition, RateSystem.drift, evaluated once per candidate: its
  norm decides acceptance and the next step reuses it.  This is the
  only route that reads a starting state, the seed, and so the one
  that checks it: one finite, non-negative occupation per mode, as p_e
  is slaved to the occupations, else ValueError.  Along a pump-ordered
  column one rule, secant_seed, seeds every point: the second with the
  first answer, every later one with the secant predictor from the two
  answers before it, clamped at zero.  A cold start (the empty cavity)
  grows h from 0.1 / kappa_min; a seeded one starts at Newton scale
  (h_max, still under the growth cap).  Both adapt only the step size:
  a seeded solve never returns to its seed.  It has one fallback: still
  unconverged after SEEDED_STEPS steps, it drops to the cold step size
  and carries on from the last state it accepted.

Convergence is declared per mode against a balance-scaled floor: the
residual must be small compared to the gross one-way flux through the
mode, with an extra term covering float64 cancellation of the two
nearly-equal fluxes.  Each drift evaluation carries this norm, built in
the same pass as F, so the rule lives in RateSystem.drift alone.  The
reported residual_norm is normalised so that converged means
residual_norm <= RateSystem.abs_tol = TOL_PER_KAPPA kappa_min, which
the rate system computes once.  One drift of the reported occupations
gives each row's residual_norm, its p_e (from that drift's totals) and
converged, which is exactly residual_norm <= abs_tol: the exact route
clamps a negative occupation at zero before that drift, and the
pseudo-transient route only ever accepts non-negative states.  A
non-finite state reports a NaN p_e, never a made-up value.

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
# pseudo-time steps after which a seeded solve that has not converged
# drops from its Newton-scale start to the cold step size
SEEDED_STEPS = 12
# relative slack by which root_floor and root_ceiling move the terms of
# their bounds outwards, far above their rounding (RateSystem.root_ceiling)
BOUND_SLACK = 2.0**-30
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

    One drift of N gives residual_norm and p_e, and converged is exactly
    residual_norm <= RateSystem.abs_tol.  From find_steady_state every
    field belongs to one point; from steady_states they are row-stacked,
    one row per pump.
    """

    N: np.ndarray
    p_e: float
    residual_norm: float
    iterations: int
    converged: bool


# --- internal rate-system engine ----------------------------------------


def _col(a):
    """Per-row scalars as a column that broadcasts against (rows, modes);
    one row's numpy scalar becomes a float."""
    return a[..., None] if a.ndim else float(a)


def row_dot(a, c):
    """sum_nu a_nu c_nu along the last axis; the leading axes broadcast.

    The package's one BLAS call.  A lone row (1-D a) is one np.dot, and
    stacked rows are paired as (1, n) @ (n, 1), one BLAS dot call each
    in numpy's matmul, so every row gets the bits of the lone dot
    whatever the number of rows.  A (rows, n) @ (n,) gemv would round
    the rows differently once there are two.
    """
    if a.ndim == 1:
        return np.dot(a, c)
    return (a[..., None, :] @ c[..., None])[..., 0, 0]


class RateSystem:
    """Per-mode rate arrays plus molecule parameters, with L/R block slices.

    Occupations may be one vector or row-stacked, shape (rows, modes),
    with one pump per row; every reduction runs along the last axis,
    per polarisation block, and the block results are then combined.
    That makes every solver step exactly symmetric under relabelling the
    two blocks, and makes each row's arithmetic the same float
    operations whatever the other rows hold.  drift is the one F(N),
    and it carries the convergence norm against abs_tol = TOL_PER_KAPPA
    kappa_min; its users take it whole, so a candidate state is
    evaluated once.

    The constructor precomputes what h(u) reads, per mode:
    m1 = M ((dn_w - dn) - (up - up_w)) and m0 = M (up - up_w)
    + (kap - kap_w), the margin's coefficients against the winner w;
    Mdn = M dn; and the weights wu = g up and wd = g dn, the two rows of
    w_ud, with gd0 = gamma_dn + sum g dn, so that Gamma_up = pump
    + sum wu N and Gamma_dn = gd0 + sum wd N.  blockdot takes those sums
    with row_dot, so a row's totals do not depend on its neighbours.
    It also takes, once, the pump-free terms of root_ceiling: c_pump,
    c_rest and c_num, from the saturated fractions x_nu that pick the
    winner, wd and kap (one pass over the losers, no pump).
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
        self.kappa_min = float(np.min(self.kap))
        self.abs_tol = TOL_PER_KAPPA * self.kappa_min
        if self.M > 0.0:
            # mode with the smallest saturated molecular fraction wins
            s = self.up + self.dn
            xnu = (self.kap / self.M + self.up) / s
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
        # the rows of w_ud, so one matmul per block gives both for a stack
        self.w_ud = np.empty((2, self.n))
        self.wu, self.wd = self.w_ud
        np.multiply(self.deg, self.up, out=self.wu)
        np.multiply(self.deg, self.dn, out=self.wd)
        self.gd0 = self.gamma_dn + (np.add.reduce(self.wd[self.bL])
                                    + np.add.reduce(self.wd[self.bR]))
        # root_ceiling's pump-free terms: a lower bound of A / M is
        # pump c_pump - c_rest, and the ceiling is c_num over it
        # (numpy scalars, so that a float pump never divides by zero)
        self.c_pump, self.c_rest, self.c_num = np.array([0.0, math.inf, 0.0])
        if (self.M > 0.0 and math.isfinite(self.umax)
                and 0.0 < self.x_scale < math.inf):
            x_hi = xnu[w] * (1.0 + BOUND_SLACK)
            with np.errstate(all="ignore"):
                gap = xnu * (1.0 - BOUND_SLACK)     # each loser's x_nu - x_max
                gap -= x_hi
                gap[w] = math.inf                   # the winner is no loser
                if np.minimum.reduce(gap) > 0.0:
                    gap *= s
                    loss = x_hi * self.blockdot(np.divide(self.wd, gap,
                                                          out=gap), self.kap)
                    self.c_pump = (1.0 - x_hi) * (1.0 - BOUND_SLACK)
                    self.c_rest = ((self.gamma_dn * x_hi + loss / self.M)
                                   * (1.0 + BOUND_SLACK))
                    self.c_num = (2.0 * self.dn[w] * self.deg[w]
                                  * self.kap[w] * x_hi)

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
        if N.ndim == 1:     # a lone row: one blockdot per weight
            return (pump + self.blockdot(N, self.wu),
                    self.gd0 + self.blockdot(N, self.wd))
        t = self.blockdot(N[..., None, :], self.w_ud)
        return pump + t[..., 0], self.gd0 + t[..., 1]

    def drift(self, N, pump):
        """The one slaved drift F(N) and its convergence norm, per row.

        Returns (F, b, norm, Gu, Gd): F = b N + S, b = r (dn Gu - up Gd)
        - kap, S = r dn Gu, r = M / (Gu + Gd); Gu, Gd are the totals.
        The norm measures F against the balance-scaled floor abs_tol
        + BALANCE_FTOL (S + |b N|) + CANCEL_EPS gross, where gross = kap N
        + r (dn (N + 1) Gu + up N Gd) is the gross one-way flux:
        max |F| / floor times abs_tol, so norm <= abs_tol means converged.
        Built in place: few (rows, modes) temporaries.
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
        floor = np.multiply(b, N, out=t)    # b N, then the floor
        F = floor + S
        np.abs(floor, out=floor)
        floor += S
        floor *= BALANCE_FTOL
        floor += self.abs_tol
        gross *= CANCEL_EPS
        floor += gross
        f = np.abs(F, out=gross)
        f /= floor
        norm = np.maximum.reduce(f, axis=-1) * self.abs_tol
        return F, b, norm, Gu, Gd

    # --- exact one-variable reduction (the fixed_point route) ---

    def occ_at_u(self, u):
        """Occupations at the winning mode's margins u, one row per margin.

        Returns (N, x, bad): x is each row's saturated molecular fraction
        and bad flags rows outside the physical range (some mode margin
        or x not positive), whose N is meaningless.  A float u is one row:
        a 1-D N, a float x and a bool bad, with the bits of that row of
        a 1-D u.  umax and x_scale are numpy scalars, so x never raises.
        """
        x = (self.umax - u) / self.x_scale
        xc, uc = (x, u) if x.ndim == 0 else (x[:, None], u[:, None])
        N = self.m1 * xc             # the margins, then N = Mdn x / margin
        N += self.m0
        N += uc
        bad = (np.minimum.reduce(N, axis=-1) <= 0.0) | (x <= 0.0)
        np.divide(self.Mdn, N, out=N)
        N *= xc
        return N, x, bad

    def h_of_u(self, u, pump):
        """Excitation-balance mismatch per row; root at the steady state.
        A float u and pump are one row, whose h is a float."""
        N, x, bad = self.occ_at_u(u)
        Gu, Gd = self.totals(N, pump)
        if N.ndim == 1:
            return math.inf if bad else float(x * (Gu + Gd) - Gu)
        return np.where(bad, np.inf, x * (Gu + Gd) - Gu)

    def root_floor(self, pumps):
        """Lower bound of the root u of h, one per pump: the larger of two.

        Summed over the modes with their degeneracies, the photon
        balances give the cavity's loss: at the steady state
        sum_nu g_nu kap_nu N_nu = M (pump (1 - x) - gamma_dn x), x = p_e,
        because x Gamma_dn = (1 - x) Gamma_up there.
        - Photon number: that loss is at most M pump, so the winner holds
          N_w <= M pump / (g_w kap_w).  With N_w = M dn_w x / u and
          x = (umax - u) / x_scale this gives u >= c (umax - u),
          c = dn_w g_w kap_w / (pump x_scale), so u >= c umax / (1 + c).
          It is tight above the knee.
        - Molecular balance: that loss is not negative, so
          x <= pump / (pump + gamma_dn) and u >= umax - x_scale pump
          / (pump + gamma_dn).  It is tight below the knee, where most
          pumped excitation leaves by gamma_dn, not through the cavity.
        Rounding: the computed umax - x_scale q, q = pump / (pump
        + gamma_dn), errs by at most 4 ulps of umax wherever it is
        positive (q and the product carry 3 roundings, the difference 1),
        and umax is first lowered by BOUND_SLACK of itself, far more than
        that.  The larger bound is then halved, which covers the few ulps
        of the photon-number bound, keeps the bound below the root of the
        computed h, and keeps the search's first geometric steps from
        crowding the root from above.  A bound that is NaN (an overflowed
        system) gives way to the other one.
        """
        w = self.w
        c = self.dn[w] * self.deg[w] * self.kap[w] / (pumps * self.x_scale)
        photon = c * self.umax / (1.0 + c)
        molecular = (self.umax * (1.0 - BOUND_SLACK)
                     - self.x_scale * (pumps / (pumps + self.gamma_dn)))
        return 0.5 * np.fmax(photon, molecular)

    def root_ceiling(self, pumps):
        """Upper bound of the root u of h, one per pump; umax where no
        bound exists.

        Each loser's occupation at molecular fraction x is
        N_nu = dn_nu x / ((up_nu + dn_nu) (x_nu - x)), where x_nu is its
        saturated fraction, so it grows with x.  At the root u > 0, so
        x < x_max = x_w = umax / x_scale, and the losers lose at most
        T = sum_{nu != w} g_nu kap_nu N_nu(x_max), which the constructor
        takes once, pump-free.  The cavity's loss is M (pump (1 - x)
        - gamma_dn x) (root_floor), which falls with x, so
        g_w kap_w N_w >= A = M (pump (1 - x_max) - gamma_dn x_max) - T.
        Where A > 0 this bounds the winner from below, and
        u = M dn_w x / N_w <= M dn_w x_max g_w kap_w / A.  It is tight
        above the knee.  A loser nearly degenerate with the winner at
        x_max makes T huge, and there the ceiling stays at umax.
        Rounding: the constructor raises x_max by BOUND_SLACK of itself,
        lowers each loser's x_nu likewise (a loser whose gap x_nu - x_max
        does not survive that counts as degenerate: T = inf), and moves
        each term of A / M by BOUND_SLACK of itself in the direction that
        lowers it.  Every computed x_nu is within 4 ulps of itself, and T
        a sum of n + 1 positive terms, so for fewer than 2**22 modes each
        slack exceeds the rounding it covers, and the computed A / M is at
        most the exact one plus an ulp.  The ceiling is then doubled: that
        covers the last roundings, keeps it above the root of the computed
        h, and lets the search's geometric steps land on both sides of the
        root.  A ceiling below the root would return a bracket whose upper
        end h never saw negative; the read-off would be wrong and its
        drift's norm would report the row unconverged.
        """
        a = pumps * self.c_pump - self.c_rest       # at most A / M
        return np.where(a > 0.0, np.fmin(self.c_num / a, self.umax),
                        self.umax)

    def solve(self, pump):
        """Exact occupations via a bracketing root search on the margin.

        `pump` is one pump or a 1-D array of them, one row each.  Every
        row runs its own _root_search of h(u) = 0 between its root_floor
        and its root_ceiling, and all rows advance in lock step: each step
        evaluates h at every live row's candidate in one batched call, and
        a finished row drops out and reports its bracket.  A lone live row
        is not batched: its search is sent h of its float margin, and its
        occupations are read off its float bracket end, the same bits.
        Returns (N, steps): N of shape (rows, modes), steps the number of
        h(u) evaluations of each row.
        The temporaries are (rows, modes) arrays; the exact route hands
        this at most CHUNK_ELEMENTS occupations at a time.
        """
        pumps = np.asarray(pump, dtype=float).reshape(-1)
        steps = np.zeros(pumps.size, dtype=int)
        live = (np.flatnonzero(~(pumps <= 0.0)) if self.M != 0.0
                else np.zeros(0, dtype=int))
        p = pumps[live]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if p.size == 1:     # a lone row: h(u) on floats, no batching
                p = float(p[0])
                search = _root_search(float(self.root_ceiling(p)),
                                      float(self.root_floor(p)))
                h = None
                try:
                    while True:
                        h = self.h_of_u(search.send(h), p)
                except StopIteration as end:
                    lo, hi, steps[live[0]] = end.value
                N, _, bad = self.occ_at_u(hi)
                if bad:
                    N = self.occ_at_u(lo)[0]
                N = N[None]
            else:
                searches = list(map(_root_search,
                                    self.root_ceiling(p).tolist(),
                                    self.root_floor(p).tolist()))
                lo_end, hi_end = np.empty((2, p.size))
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


def _root_search(ceiling, floor):
    """Safeguarded superlinear search for the root of h on [0, ceiling].

    A generator: it yields each margin u to evaluate, is sent h(u), and
    returns (lo, hi, evaluations).  h < 0 moves hi and anything else
    (h = +inf where some mode margin is <= 0 included) moves lo.  The
    root may sit many decades below umax.  `ceiling` is an upper bound
    of it (RateSystem.root_ceiling, umax where none is known), where hi
    starts, unevaluated, and `floor` a lower bound (RateSystem.
    root_floor).  Both must hold: with a ceiling below the root, no u
    ever gives h < 0, and hi comes back as the ceiling itself.  While hi
    exceeds 4 max(lo, floor), or an end value is not yet a finite g of
    the right sign, the search steps to the geometric mean of
    max(lo, floor) and hi.
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
    lo, hi = 0.0, ceiling
    g_lo = g_hi = math.nan          # u h(u) at the ends, once evaluated
    w1 = w2 = w3 = math.inf         # bracket widths of the last 3 steps
    moved = 0                       # end moved last: -1 lo, +1 hi
    # the step's own Python is a third of a column's search: builtins as
    # locals, and min and max written as the comparisons they make
    ulp, sqrt, inf = math.ulp, math.sqrt, math.inf
    for evals in range(201):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo, hi, evals
        width = hi - lo
        base = floor if floor > lo else lo      # max(lo, floor)
        illinois = False
        if hi > 4.0 * base or not (0.0 < g_lo < inf and -inf < g_hi < 0.0):
            u = sqrt(base * hi)
        elif width > 0.5 * w1:
            u = mid
        else:
            u = lo - g_lo * width / (g_hi - g_lo)
            illinois = True
        w1, w2, w3 = w2, w3, width
        # keep min(4 ulps, width / 4) clear of each end
        quarter, clear = 0.25 * width, 4.0 * ulp(lo)
        least = lo + (quarter if quarter < clear else clear)
        if least > u:
            u = least
        clear = 4.0 * ulp(hi)
        most = hi - (quarter if quarter < clear else clear)
        if most < u:
            u = most
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

_last_system: dict = {}     # _rate_system's one entry, {key: system}


def _rate_system(rates, ladder, dye) -> RateSystem:
    """RateSystem.from_tables(rates, ladder, dye), kept under a key of all
    it reads: the table and the ladder by identity (their arrays are
    read-only; the key holds both, so no other object can take their
    ids) and the bits of dye.M and dye.gamma_down."""
    key = (rates, ladder, float(dye.M).hex(), float(dye.gamma_down).hex())
    sys_ = _last_system.get(key)
    if sys_ is None:
        sys_ = RateSystem.from_tables(rates, ladder, dye)
        _last_system.clear()
        _last_system[key] = sys_
    return sys_


def occupations(N, ladder: ModeLadder) -> np.ndarray:
    """N as a 1-D float array, one occupation per mode of the ladder."""
    N = np.asarray(N, dtype=float)
    if N.shape != (ladder.size,):
        raise ValueError(f"state of shape {N.shape} holds {N.size} "
                         f"occupations for {ladder.size} modes; a state "
                         f"is one vector, one entry per mode")
    return N


def total_rates(N, rates: RateTable, ladder: ModeLadder,
                dye: DyeParams) -> tuple[float, float]:
    """Collective molecular rates (Gamma_up, Gamma_dn) at occupations N."""
    N = occupations(N, ladder)
    sys_ = _rate_system(rates, ladder, dye)
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
    sys_ = _rate_system(rates, ladder, dye)
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
    return _rate_system(rates, ladder, dye).drift(N, dye.gamma_up_pump)[0]


# --- steady-state solvers ------------------------------------------------


def _pt_step(sys_: RateSystem, N, drift, h):
    """One linearly implicit pseudo-time step from N, solved in O(n).

    `drift` is sys_.drift(N, pump).  The Jacobian of F is diagonal (the
    net rates b) plus rank one, w c^T with w = M (dn (N + 1) + up N) and
    c = deg (up Gd - dn Gu) / (Gu + Gd)**2, so (I/h - J) inverts by the
    Sherman-Morrison identity, in place and in the float order of those
    formulas.  h is capped at 0.7 / max(b > 0), fmax skipping a NaN, so
    that no locally growing direction outruns its linear-regime horizon.
    """
    F, b, _, Gu, Gd = drift
    bmax = np.fmax.reduce(b)
    if bmax > 0.0:
        h = min(h, 0.7 / float(bmax))
    c = np.multiply(sys_.up, Gd)
    w = np.multiply(sys_.dn, Gu)
    c -= w
    c *= sys_.deg
    c /= (Gu + Gd)**2
    d = np.multiply(sys_.up, N)
    np.add(N, 1.0, out=w)
    w *= sys_.dn
    w += d
    w *= sys_.M
    np.subtract(1.0 / h, b, out=d)      # d = 1/h - b
    w /= d                              # w / d
    y = np.divide(F, d, out=d)
    denom = 1.0 - sys_.blockdot(c, w)
    if denom <= 0.0:
        return np.add(N, y, out=y)
    w *= sys_.blockdot(c, y) / denom
    np.add(N, y, out=y)
    return np.add(y, w, out=y)


def _semi_dynamical(sys_: RateSystem, pump: float, N0):
    # returns the one-row record (N, steps, norm, Gamma_up, Gamma_dn), the
    # norm and the totals those of the last accepted state's drift.
    # N0 is None (the empty cavity) or a float array, never written to.
    # A cold start grows h from 0.1 / kappa_min.  A seed starts at h_max,
    # Newton scale, and a rejection shrinks h as in any solve; a seeded
    # solve still unconverged after SEEDED_STEPS steps drops to the cold
    # step size and carries on from the state it has reached.
    N = np.zeros(sys_.n) if N0 is None else N0
    h_cold = 0.1 / sys_.kappa_min
    h_min = 1e-3 / sys_.kappa_min
    h_max = 1e12 / sys_.kappa_min
    h = h_cold if N0 is None else h_max
    it = 0
    drift = sys_.drift(N, pump)
    while it < MAX_STEPS and drift[2] > sys_.abs_tol:
        if it == SEEDED_STEPS and N0 is not None:
            h = h_cold
        raw = _pt_step(sys_, N, drift, h)
        it += 1
        if np.minimum.reduce(raw) >= 0.0:
            cand = raw
        elif float(np.min(raw / (N + 1.0))) < -0.1:
            # candidate would drive occupations strongly negative
            h = max(h * 0.25, h_min)
            continue
        else:
            cand = np.maximum(raw, 0.0)
        cand_drift = sys_.drift(cand, pump)
        if cand_drift[2] <= 4.0 * drift[2]:
            N, drift = cand, cand_drift
            h = min(h * 2.0, h_max)
        else:
            h = max(h * 0.25, h_min)
    return (N, it) + drift[2:]


def crosscheck_bound() -> float:
    """Largest relative occupation gap two converged routes may show.

    A route stops once every mode's residual f is below BALANCE_FTOL
    times its gross one-way flux S + |drift|, which is 2 S at balance.
    With the molecular bath held fixed, f = S - L N for the mode's net
    loss rate L, and the exact occupation is N* = S / L, so
    f = S (N* - N) / N*: a converged occupation sits within
    2 * BALANCE_FTOL of the exact one, relatively.  Two routes may land
    on opposite sides of it, hence 4 * BALANCE_FTOL.

    The per-route figure assumes that bath held fixed; in the solves it
    moves with every occupation.  Near the flip the pseudo-transient
    route has been measured at up to 2.1 times 2 * BALANCE_FTOL from
    the exact answer (chi = 1e-10) while reporting converged.  There
    the 4 * BALANCE_FTOL bound holds only because the exact route
    lands much closer than its own 2 * BALANCE_FTOL.
    """
    return 4.0 * BALANCE_FTOL


def _exact(sys_, pumps):
    # record of the exact route, CHUNK_ELEMENTS occupations at a time: each
    # chunk of rows gets its lock-step root search, its drift and its norm,
    # written into the column's record, so no temporary outgrows a chunk;
    # a negative occupation is clamped at zero before the drift, so the
    # norm is that of the row returned (np.maximum keeps a NaN)
    N = np.empty((pumps.size, sys_.n))
    steps = np.empty(pumps.size, dtype=int)
    norm, Gu, Gd = np.empty((3, pumps.size))
    chunk = max(1, CHUNK_ELEMENTS // sys_.n)
    for start in range(0, pumps.size, chunk):
        part = slice(start, start + chunk)
        N[part], steps[part] = sys_.solve(pumps[part])
        rows = 0 if pumps.size == 1 else part   # a lone row drifts 1-D
        np.maximum(N[rows], 0.0, out=N[rows])
        norm[rows], Gu[rows], Gd[rows] = sys_.drift(N[rows], pumps[rows])[2:]
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
    seed = 2.0 * last
    seed -= before
    return np.maximum(seed, 0.0, out=seed)


def _pseudo_transient(sys_, pumps, seed):
    # record of the pseudo-transient route: rows solved in pump order,
    # the first seeded with `seed` and every later one by secant_seed
    # from the rows before it.  N is stacked after the solves: a record
    # allocated first would add a ladder-long array to every solve's peak
    if seed is not None:
        seed = np.asarray(seed, dtype=float)
        if seed.ndim != 1 or seed.size != sys_.n:
            raise ValueError(
                f"seed holds {seed.size} occupations for {sys_.n} modes")
        # a NaN minimum compares False, as an infinite maximum does
        if not (np.minimum.reduce(seed) >= 0.0
                and np.maximum.reduce(seed) < math.inf):
            raise ValueError(
                "seed occupations must be finite and non-negative")
    N = []
    steps = np.empty(pumps.size, dtype=int)
    norm, Gu, Gd = np.empty((3, pumps.size))
    before, end = None, pumps.size - 1
    for k, pump in enumerate(pumps.tolist()):
        last, steps[k], norm[k], Gu[k], Gd[k] = _semi_dynamical(sys_, pump,
                                                                seed)
        N.append(last)
        if k < end:
            seed, before = secant_seed(before, last), last
    return np.array(N).reshape(pumps.size, sys_.n), steps, norm, Gu, Gd


def steady_states(sys_: RateSystem, pumps, config: SolverConfig,
                  seed=None) -> SteadyState:
    """Stationary points of one rate system at every pump of a grid.

    Returns a SteadyState whose fields are row-stacked: N of shape
    (rows, modes), the rest one entry per pump.  fixed_point returns
    the exact route's record and semi_dynamical the pseudo-transient
    one, its first row seeded with `seed` (None for the empty cavity;
    that route checks it) and every later one by secant_seed from its
    own previous rows.  both_crosscheck computes both and raises
    CrosscheckError at the first row where an occupation's gap
    |N - N_pt| / (max(N, N_pt) + 1) exceeds crosscheck_bound() or is NaN
    (a non-finite answer); else it returns the exact record, with both
    routes' steps as iterations.  Each route's record holds the norm and
    totals of one drift of its N: they give residual_norm and p_e, and
    converged is residual_norm <= sys_.abs_tol.
    """
    pumps = np.asarray(pumps, dtype=float).reshape(-1)
    N, iters, norm, Gu, Gd = (
        _pseudo_transient(sys_, pumps, seed)
        if config.mode == "semi_dynamical" else _exact(sys_, pumps))
    if config.mode == "both_crosscheck":
        N_pt, iters_pt = _pseudo_transient(sys_, pumps, seed)[:2]
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

    with np.errstate(divide="ignore", invalid="ignore"):
        # Gd >= gamma_down + sum g dn > 0 on a finite state; NaN stays NaN
        p_e = Gu / (Gu + Gd)
    return SteadyState(N=N, p_e=p_e, residual_norm=norm, iterations=iters,
                       converged=norm <= sys_.abs_tol)


def find_steady_state(rates: RateTable, ladder: ModeLadder, dye: DyeParams,
                      config: SolverConfig = SolverConfig(),
                      seed=None) -> SteadyState:
    """Stationary point of the photon rate equations.

    The pump is dye.gamma_up_pump.  With no pump or no molecules the
    empty cavity (all occupations zero) is returned.  `seed`, one
    occupation per mode, starts the pseudo-transient route, which checks
    it; the exact route ignores it.  One drift of the returned N gives
    residual_norm, p_e and converged.  This is the one-row call of
    steady_states, which documents the routes and the cross-check.  The
    rate system comes from a one-entry memo keyed by `rates`, `ladder`,
    dye.M and dye.gamma_down, not the pump: a pump sweep builds one.
    """
    rows = steady_states(_rate_system(rates, ladder, dye),
                         [dye.gamma_up_pump], config, seed)
    return SteadyState(**{name: value[0].item()
                          for name, value in vars(rows).items()
                          if name != "N"}, N=rows.N[0])
