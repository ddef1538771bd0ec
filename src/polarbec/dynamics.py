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
  bisecting the excitation balance h(u) = 0 gives the whole steady
  state; the reported iteration count is the number of bisection steps.
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
beyond the expected solver agreement.

All block reductions (sums, dot products) are taken per polarisation
block and then combined, so a perfectly achiral system relaxes to a
bitwise symmetric state and relabelling the two blocks swaps the
solution exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cavity import Mode
from .dye import DyeParams, RateTable

# fractional tolerance of the per-mode balance check
BALANCE_FTOL = 1e-5
# float64 cancellation allowance relative to the gross one-way flux
CANCEL_EPS = 1e-15

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

    converged implies residual_norm <= the resolved abs_tol.
    """

    N: np.ndarray
    p_e: float
    residual_norm: float
    iterations: int
    converged: bool


# --- internal rate-system engine ----------------------------------------


class RateSystem:
    """Per-mode rate arrays plus molecule parameters, with L/R block slices.

    Reductions run per polarisation block and are then combined, which
    makes every solver step exactly symmetric under relabelling the two
    blocks.
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

    @classmethod
    def from_tables(cls, rates: RateTable, modes: list[Mode],
                    dye: DyeParams) -> "RateSystem":
        if len(rates) != len(modes):
            raise ValueError("rate table and mode list lengths differ")
        sigmas = [m.sigma for m in modes]
        n_left = sigmas.count("L")
        if sigmas != ["L"] * n_left + ["R"] * (len(modes) - n_left):
            raise ValueError("modes must list the L block before the R block")
        for m, tm in zip(modes, rates.modes):
            if (m.sigma, m.j, m.l) != (tm.sigma, tm.j, tm.l):
                raise ValueError("rate table was built for a different mode list")
        deg = np.array([m.degeneracy for m in modes], dtype=float)
        kap = np.array([m.kappa for m in modes], dtype=float)
        return cls(deg, rates.gamma_up, rates.gamma_down, kap, dye.M,
                   dye.gamma_down, n_left)

    def blocksum(self, arr) -> float:
        return float(np.sum(arr[self.bL])) + float(np.sum(arr[self.bR]))

    def blockdot(self, x, y) -> float:
        return (float(np.dot(x[self.bL], y[self.bL]))
                + float(np.dot(x[self.bR], y[self.bR])))

    def totals(self, N, pump):
        """Collective molecular rates (Gamma_up, Gamma_dn)."""
        gu = pump + self.blocksum(self.deg * N * self.up)
        gd = self.gamma_dn + self.blocksum(self.deg * (N + 1.0) * self.dn)
        return gu, gd

    def parts(self, N, pump):
        """Drift decomposition: (net drift G, source S, gross flux)."""
        Gu, Gd = self.totals(N, pump)
        D = Gu + Gd
        G = (self.M / D) * (self.dn * Gu - self.up * Gd)
        S = (self.M / D) * self.dn * Gu
        gross = self.kap * N + (self.M / D) * (self.dn * (N + 1.0) * Gu
                                               + self.up * N * Gd)
        return G, S, gross

    def scaled_norm(self, N, pump, abs_tol) -> float:
        """Balance-scaled residual norm; <= abs_tol means converged."""
        G, S, gross = self.parts(N, pump)
        drift = N * (G - self.kap)
        f = drift + S
        floor = abs_tol + BALANCE_FTOL * (S + np.abs(drift)) + CANCEL_EPS * gross
        return float(np.max(np.abs(f) / floor)) * abs_tol

    # --- exact one-variable reduction (the fixed_point route) ---

    def occ_at_u(self, u):
        """Occupations as a function of the winning mode's margin u."""
        w = self.w
        kw, dw, uw = self.kap[w], self.dn[w], self.up[w]
        x = (kw + self.M * uw - u) / (self.M * (dw + uw))
        delta = (self.M * ((dw - self.dn) * x + (self.up - uw) * (1.0 - x))
                 + (self.kap - kw))
        margin = u + delta
        if np.any(margin <= 0.0) or x <= 0.0:
            return None, x
        return self.M * self.dn * x / margin, x

    def h_of_u(self, u, pump):
        """Excitation-balance mismatch at margin u; root at the steady state."""
        N, x = self.occ_at_u(u)
        if N is None:
            return np.inf
        Gu, Gd = self.totals(N, pump)
        return x * (Gu + Gd) - Gu

    def solve(self, pump):
        """Exact occupations via bisection on the winner's margin.

        Returns (N, steps), steps being the number of h(u) evaluations.
        """
        if pump <= 0.0 or self.M == 0.0:
            return np.zeros(self.n), 0
        umax = self.kap[self.w] + self.M * self.up[self.w]
        lo, hi = 0.0, umax
        it = 0
        while True:
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi or it > 200:
                break
            if self.h_of_u(mid, pump) < 0.0:
                hi = mid
            else:
                lo = mid
            it += 1
        N, _ = self.occ_at_u(hi)
        if N is None:
            N, _ = self.occ_at_u(lo)
        return N, it


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
    return sys_.totals(state.N, dye.gamma_up_pump)


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
    return dN, dpe


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


def find_steady_state(rates: RateTable, modes: list[Mode], dye: DyeParams,
                      config: SolverConfig | None = None,
                      initial: SystemState | None = None) -> SteadyState:
    """Stationary point of the photon rate equations.

    The pump is dye.gamma_up_pump.  With no pump or no molecules the
    empty cavity (all occupations zero) is returned.  `initial` seeds
    the semi_dynamical route; the exact route needs no seed.  In cross-check
    mode both routes run and a CrosscheckError reports any occupation
    whose relative deviation exceeds the expected solver agreement;
    the fixed-point result is returned on success.
    """
    if config is None:
        config = SolverConfig()
    sys_ = RateSystem.from_tables(rates, modes, dye)
    pump = dye.gamma_up_pump
    kap_min = float(np.min(sys_.kap))
    abs_tol = config.abs_tol if config.abs_tol is not None else 1e-6 * kap_min
    N0 = None if initial is None else initial.N

    def run(route: str):
        if route == "fixed_point":
            N, steps = sys_.solve(pump)
            return N, steps, sys_.scaled_norm(N, pump, abs_tol)
        return _semi_dynamical(sys_, pump, N0, abs_tol, config.max_iters)

    if config.mode == "both_crosscheck":
        N_fp, it_fp, norm_fp = run("fixed_point")
        N_sd, it_sd, norm_sd = run("semi_dynamical")
        # agreement bound: ten times the residual tolerance, made relative
        # against the loss rate that set it
        agree_tol = 10.0 * abs_tol / kap_min
        dev = np.abs(N_fp - N_sd) / (np.maximum(N_fp, N_sd) + 1.0)
        worst = int(np.argmax(dev))
        if float(dev[worst]) > agree_tol:
            raise CrosscheckError(
                f"steady-state routes disagree: mode index {worst} deviates "
                f"by {float(dev[worst]):.3e} (allowed {agree_tol:.3e})")
        N, iters, norm = N_fp, it_fp + it_sd, norm_fp
    else:
        N, iters, norm = run(config.mode)

    converged = norm <= abs_tol
    if np.any(N < 0.0):
        # negative occupations indicate a failed step; clamp and flag
        N = np.maximum(N, 0.0)
        converged = False
    Gu, Gd = sys_.totals(N, pump)
    D = Gu + Gd
    p_e = Gu / D if D > 0.0 else 0.0
    return SteadyState(N=N, p_e=float(p_e), residual_norm=float(norm),
                       iterations=int(iters), converged=bool(converged))
