"""Closed-form single-mode solutions and the frozen-loser approximation.

Keeping only one cavity mode (occupation N, loss kappa, molecular rates
gamma_up_nu / gamma_dn_nu, bare pump gamma_up) the stationary photon
number solves a quadratic.  Two levels of approximation are useful:

* Gain-balance threshold.  Neglecting cavity loss entirely, emission
  overtakes absorption at

      tau = gamma_down * gamma_up_nu / gamma_dn_nu.

* High-quality-cavity law.  For kappa small against the molecular
  rates, N is piecewise linear in the pump: zero below tau and

      N = M (gamma_up gamma_dn_nu - gamma_down gamma_up_nu)
          / (kappa (gamma_up_nu + gamma_dn_nu))

  above, with slope M gamma_dn_nu / (kappa (gamma_up_nu + gamma_dn_nu)).

The exact quadratic keeps every term; its condensation knee is not at
tau but at the loss-shifted effective threshold

      tau_eff = (M gamma_down gamma_up_nu + kappa (gamma_down + gamma_dn_nu))
                / (M gamma_dn_nu - kappa),

the pump at which the linear coefficient of the quadratic changes sign
(and N passes through sqrt(M tau_eff gamma_dn_nu / (kappa (up + dn)))).

The frozen-loser (pinned) approximation treats the two polarisation
ground modes as independent single modes below threshold, each with its
own loss and rates; once the first mode condenses it clamps the
molecular excitation, so the losing mode's occupation stays pinned at
the value it had at the winner's effective-threshold crossing while the
winner keeps growing.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cavity import ModeLadder
from .dye import DyeParams, RateTable

# kappa / min(other rates) ratio beyond which the high-Q law is suspect
HIGHQ_RATIO_MAX = 0.01


@dataclass(frozen=True)
class ThresholdReport:
    """Gain-balance thresholds of the two polarisation ground modes.

    winner is 'L' or 'R' for the lower threshold, 'degenerate' on an
    exact tie.
    """

    tau_L: float
    tau_R: float
    winner: str


def threshold_pump(gamma_down: float, gamma_up_nu: float,
                   gamma_dn_nu: float) -> float:
    """Gain-balance threshold tau = gamma_down * gamma_up_nu / gamma_dn_nu."""
    if not gamma_dn_nu > 0:
        raise ValueError(
            f"gamma_dn_nu must be positive, got {gamma_dn_nu}")
    return gamma_down * gamma_up_nu / gamma_dn_nu


def effective_threshold(kappa: float, gamma_down: float, gamma_up_nu: float,
                        gamma_dn_nu: float, M: float) -> float:
    """Loss-shifted pump at which the exact occupation knee sits."""
    if not M * gamma_dn_nu > kappa:
        raise ValueError(
            "effective threshold needs M * gamma_dn_nu > kappa; "
            f"got {M * gamma_dn_nu} <= {kappa}")
    return (M * gamma_down * gamma_up_nu + kappa * (gamma_down + gamma_dn_nu)) \
        / (M * gamma_dn_nu - kappa)


def single_mode_highQ(pump: float, kappa: float, gamma_down: float,
                      gamma_up_nu: float, gamma_dn_nu: float,
                      M: float) -> float:
    """Piecewise-linear occupation of one mode in a high-quality cavity."""
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    others = [gamma_down, gamma_up_nu, gamma_dn_nu]
    if pump > 0:
        others.append(pump)
    smallest = min(r for r in others if r > 0)
    if kappa >= HIGHQ_RATIO_MAX * smallest:
        warnings.warn(
            f"kappa = {kappa:g} is not small against the slowest rate "
            f"{smallest:g}; the high-quality-cavity law degrades here",
            stacklevel=2)
    tau = threshold_pump(gamma_down, gamma_up_nu, gamma_dn_nu)
    if pump <= tau:
        return 0.0
    return M * (pump * gamma_dn_nu - gamma_down * gamma_up_nu) / (
        kappa * (gamma_up_nu + gamma_dn_nu))


def single_mode_exact(pump: float, kappa: float, gamma_down: float,
                      gamma_up_nu: float, gamma_dn_nu: float,
                      M: float) -> float:
    """Exact stationary occupation of one mode (positive quadratic root).

    Evaluated in the cancellation-safe form on both sides of the knee.
    """
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    a = kappa * (gamma_up_nu + gamma_dn_nu)
    b = kappa * (pump + gamma_down + gamma_dn_nu) - M * (
        pump * gamma_dn_nu - gamma_down * gamma_up_nu)
    c = -M * pump * gamma_dn_nu
    disc = math.sqrt(b * b - 4.0 * a * c)
    if b >= 0.0:
        if b + disc == 0.0:
            return 0.0
        return 2.0 * c / (-b - disc)
    return (-b + disc) / (2.0 * a)


def ground_thresholds(rates: RateTable, ladder: ModeLadder,
                      dye: DyeParams) -> ThresholdReport:
    """Gain-balance thresholds of each block's ModeLadder.ground() mode."""
    taus = {}
    for sigma, i in zip(("L", "R"), rates.ladder_for(ladder).ground()):
        if i is None:
            raise ValueError(f"expected exactly one {sigma} ground mode, "
                             "found 0")
        taus[sigma] = threshold_pump(dye.gamma_down,
                                     float(rates.gamma_up[i]),
                                     float(rates.gamma_down[i]))
    if taus["L"] == taus["R"]:
        winner = "degenerate"
    else:
        winner = "L" if taus["L"] < taus["R"] else "R"
    return ThresholdReport(tau_L=taus["L"], tau_R=taus["R"], winner=winner)


def pinned_pair(pumps, gamma_down: float, M: float, ground_L, ground_R):
    """Frozen-loser occupations of the two ground modes over a pump grid.

    ground_L and ground_R are each mode's own (kappa, gamma_up_nu,
    gamma_dn_nu).  Below the smaller effective threshold both modes
    follow their exact single-mode law independently; above it the
    winner keeps following its law while the loser stays pinned at its
    value at the winner's crossing.  An exact tie leaves both modes
    evolving.  A mode whose gain M * gamma_dn_nu never exceeds its kappa
    has no knee (its threshold is taken as +inf), so it never wins: if
    neither mode can condense, both follow their single-mode laws at
    every pump.  Returns (N_L, N_R, S3) arrays; S3 is zero where both
    occupations vanish.
    """
    pumps = np.asarray(pumps, dtype=float)

    def law(pump: float, kappa: float, up: float, dn: float) -> float:
        return single_mode_exact(pump, kappa, gamma_down, up, dn, M)

    def knee(kappa: float, up: float, dn: float) -> float:
        if not M * dn > kappa:
            return math.inf
        return effective_threshold(kappa, gamma_down, up, dn, M)

    teff_L, teff_R = knee(*ground_L), knee(*ground_R)
    N_L = np.array([law(p, *ground_L) for p in pumps])
    N_R = np.array([law(p, *ground_R) for p in pumps])
    if teff_L != teff_R:
        t_win = min(teff_L, teff_R)
        N_lose, lose = (N_R, ground_R) if teff_L < teff_R else (N_L, ground_L)
        N_lose[pumps > t_win] = law(t_win, *lose)
    total = N_R + N_L
    s3 = np.where(total > 0.0, (N_R - N_L) / np.where(total > 0, total, 1.0),
                  0.0)
    return N_L, N_R, s3
