"""Shared builders for the reference configuration used across the suite.

The reference experiment: a 1.46 um microcavity at the 7th longitudinal
order between 1 m mirrors, a measured photon loss of 1e8 1/s, and a dye
bath of 1e9 molecules with 50 THz-wide emission/absorption profiles
offset +-4.18 THz from the 3456 THz electronic resonance.  The polarised
pump sweep probes the index pair (1.3435, 1.3395); most closed-form
reference values are frozen at those two indices.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from polarbec import (
    CavityParams,
    DyeParams,
    MediumIndices,
    ModeLadder,
    build_mode_set,
    build_rate_table,
    cutoff_frequency,
)

# --- reference configuration ----------------------------------------------

KAPPA = 1e8
BASE_INDEX = 1.34
SWEEP_INDICES = MediumIndices(n_L=1.3435, n_R=1.3395)


def make_cavity(mirror_loss: float = 0.01) -> CavityParams:
    return CavityParams(mirror_radius=1.0, mirror_separation=1.46e-6,
                        longitudinal_index=7, mirror_loss=mirror_loss)


def make_dye(pump: float = 0.0, **overrides) -> DyeParams:
    fields = dict(Omega0=3456e12, DeltaOmega=4.18e12, linewidth=50e12,
                  gamma_down0=10.0, gamma_up0=10.0, gamma_down=1e9,
                  gamma_up_pump=pump, M=1e9)
    fields.update(overrides)
    return DyeParams(**fields)


def single_mode_problem(pump: float, kappa: float = KAPPA,
                        index: float = 1.3435, **dye_overrides):
    """One L-polarised ground mode with its rate table and dye bath."""
    ladder = ModeLadder(l=np.zeros(1, dtype=int),
                        omega=np.array([cutoff_frequency(make_cavity(),
                                                         index)]),
                        kappa=np.array([kappa]), n_left=1)
    dye = make_dye(pump, **dye_overrides)
    return ladder, build_rate_table(dye, ladder), dye


def two_order_modes() -> ModeLadder:
    """The j = 7 and j = 8 ladders (l <= 1) merged: two l = 0 modes a block."""
    a, b = (build_mode_set(replace(make_cavity(), longitudinal_index=j),
                           SWEEP_INDICES, 1, kappa_override=KAPPA)
            for j in (7, 8))

    def merged(name):
        x, y = getattr(a, name), getattr(b, name)
        return np.concatenate([x[:2], y[:2], x[2:], y[2:]])

    return ModeLadder(l=merged("l"), omega=merged("omega"),
                      kappa=merged("kappa"), n_left=4)


def with_pump(dye: DyeParams, pump: float) -> DyeParams:
    return replace(dye, gamma_up_pump=pump)


def bisect_single_mode(pump: float, kappa: float, gamma_down: float,
                       up: float, dn: float, M: float) -> float:
    """Single-mode stationary occupation by sign bisection of the balance.

    Deliberately independent of the package's closed-form root: brackets
    the zero of the slaved photon drift
        f(N) = -kappa N + (M / D) (dn (N+1) Gu - up N Gd)
    with Gu = pump + N up, Gd = gamma_down + (N+1) dn, D = Gu + Gd,
    and halves the bracket until it collapses in float64.  f(0) >= 0 and
    f is eventually decay-dominated, so the root is unique.
    """
    def f(N: float) -> float:
        Gu = pump + N * up
        Gd = gamma_down + (N + 1.0) * dn
        return (-kappa * N
                + (M / (Gu + Gd)) * (dn * (N + 1.0) * Gu - up * N * Gd))

    lo, hi = 0.0, 1.0
    while f(hi) > 0.0:
        hi *= 2.0
        if hi > 1e300:
            raise RuntimeError("balance never turns decay-dominated")
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def bisect_margin_roots(sys_, pumps):
    """Exact occupations of a rate system by plain lock-step bisection.

    The oracle for RateSystem.solve: halves the bracket [0, umax] of the
    excitation balance h(u) (h < 0 moves hi, anything else moves lo)
    until it is float-adjacent or 201 steps are spent, then reads the
    occupations off at hi, or at lo for rows where hi is unphysical.
    Returns (N, steps), one row per pump; every pump must be positive.
    """
    pumps = np.asarray(pumps, dtype=float)
    lo_end = np.zeros(pumps.size)
    hi_end = np.full(pumps.size, sys_.umax)
    steps = np.zeros(pumps.size, dtype=int)
    rows = np.arange(pumps.size)
    lo, hi = lo_end.copy(), hi_end.copy()
    step = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            mid = 0.5 * (lo + hi)
            go = (mid > lo) & (mid < hi) & (step <= 200)
            if not go.all():
                done = rows[~go]
                lo_end[done], hi_end[done], steps[done] = (lo[~go], hi[~go],
                                                           step)
                rows, lo, hi, mid, pumps = (rows[go], lo[go], hi[go],
                                            mid[go], pumps[go])
                if not rows.size:
                    break
            below = sys_.h_of_u(mid, pumps) < 0.0
            hi = np.where(below, mid, hi)
            lo = np.where(below, lo, mid)
            step += 1
        N, _, bad = sys_.occ_at_u(hi_end)
        if bad.any():
            N[bad] = sys_.occ_at_u(lo_end[bad])[0]
    return N, steps


def direct_occ_at_u(sys_, u):
    """RateSystem.occ_at_u by the direct formula of the exact reduction.

    The oracle for the precomputed-coefficient kernel: each mode's
    margin is M (dn_gap x + up_gap (1 - x)) + kap_gap + u, with the gaps
    taken against the winner w, and N = M dn x / margin.  Also returns
    each margin's cancellation condition number, the sum of the
    magnitudes of its terms over the margin: two kernels that round the
    same margin differently may differ relatively by a few ulps times it.
    """
    w = sys_.w
    x = (sys_.umax - u) / sys_.x_scale
    xc = x[:, None]
    dn_gap, up_gap = sys_.dn[w] - sys_.dn, sys_.up - sys_.up[w]
    kap_gap = sys_.kap - sys_.kap[w]
    margin = (sys_.M * (dn_gap * xc + up_gap * (1.0 - xc)) + kap_gap
              + u[:, None])
    terms = (sys_.M * (np.abs(dn_gap * xc) + np.abs(up_gap * (1.0 - xc)))
             + np.abs(kap_gap) + np.abs(u[:, None]))
    bad = (np.min(margin, axis=-1) <= 0.0) | (x <= 0.0)
    return sys_.M * sys_.dn * xc / margin, x, bad, terms / np.abs(margin)


def direct_totals(sys_, N, pump):
    """RateSystem.totals by the direct sums of its definition."""
    return (pump + np.sum(sys_.deg * N * sys_.up, axis=-1),
            sys_.gamma_dn + np.sum(sys_.deg * (N + 1.0) * sys_.dn, axis=-1))


# --- closed-form reference values, frozen from a 50-digit evaluation -------
# (mpmath oracle, independent of the package arithmetic)

LATERAL_134 = 185156719104.01349          # rad/s at n = 1.34
CUTOFF_134 = 3370038195760704.1           # rad/s at n = 1.34
MASS_134 = 7.0999503739283925e-36         # kg at n = 1.34
DECAY_134 = 3064735820895.5224            # 1/s at n = 1.34, delta = 0.01

DN_L0 = 2.4014433045184345                # emission rate, ground mode, n=1.3435
UP_L0 = 2.8324333455463544                # absorption rate, same mode
DN_R0 = 2.9324342980384228                # emission rate, ground mode, n=1.3395
UP_R0 = 3.5166236526839583                # absorption rate, same mode

TAU_L0 = 1179471253.898433                # gamma_down * up / dn at n=1.3435
TAU_R0 = 1199216519.543614                # same at n = 1.3395
TEFF_L0 = 1274171447.1215687              # finite-loss knee, kappa = 1e8
TEFF_R0 = 1276860563.1847709

THETA_GLUCOSE = 0.176                     # net rotatory strength, eps = 1
CHI_FULL_EPS1 = 2.7200003369996938e-5     # full chain, glucose/methanol
CHI_PREFACTOR = 2.1464649124050614e-8     # chi / (theta * m_u * eps * alpha^2)
CHI_QUICK_EPS1 = 2.711808e-5              # one-line estimate at eps = 1
CHI_QUICK_EPS05 = 1.355904e-5

N_EXACT_2TAU = 4769961660.6043477         # exact root, pump = 2*TAU_L0, kappa=1e8
N_HIGHQ_2TAU = 5411731179.2422399         # lossless-limit branch, same drive
