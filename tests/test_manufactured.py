"""Manufactured steady states: configs whose exact answer is known first.

Any margin u of the winning mode on the physical branch gives, through
the exact reduction, occupations N(u), a molecular fraction x(u) and the
pump P(u) that keeps them steady (conftest.manufactured_state), with no
root search.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from polarbec import (
    build_rate_table,
    full_derivatives,
    mode_ladder,
    refractive_indices,
)
from polarbec.dynamics import RateSystem

from conftest import (
    BASE_INDEX,
    KAPPA,
    make_cavity,
    make_dye,
    manufactured_state,
)

EPS = np.finfo(float).eps
L_MAX = [30, 200, 2000]
CHI = [0.0, 1e-10, -1e-10, 1e-7, 3e-5, -3e-5]


def gamma(k):
    """Higham's gamma_k: relative error bound of k chained roundings."""
    return k * EPS / (1.0 - k * EPS)


def manufactured_problem(l_max, chi):
    """Ladder, table, pump-free dye and rate system at splitting chi, with
    margins from umax / 10 down fourteen decades, all on the physical
    branch."""
    ladder = mode_ladder(make_cavity(), refractive_indices(BASE_INDEX, chi),
                         l_max, KAPPA)
    dye = make_dye(0.0)
    rates = build_rate_table(dye, ladder)
    sys_ = RateSystem.from_tables(rates, ladder, dye)
    u = sys_.umax * np.logspace(-15, -1, 43)
    return ladder, rates, dye, sys_, u


@pytest.mark.parametrize("chi", CHI)
@pytest.mark.parametrize("l_max", L_MAX)
def test_a_manufactured_state_zeroes_the_written_out_equations(l_max, chi):
    # full_derivatives writes the photon and molecule equations out with
    # p_e free, so it checks the reduction's precomputed coefficients (m1,
    # m0, Mdn) and P(u) against the equations themselves.
    # dN: N = Mdn x / margin and margin = kap + M up (1 - x) - M dn x,
    # so dN = 0 exactly.  occ_at_u takes the margin as m1 x + m0 + u from
    # the terms M (dn_w + up_w + dn + up) x, M (up + up_w), kap, kap_w and
    # u, whose magnitudes sum to sigma; x = (umax - u) / x_scale rounds
    # four times, m1 x + m0 + u six more along its longest chain, so the
    # margin is off by at most gamma_10 sigma, and dN by N times that.
    # N's own three roundings and the six along full_derivatives' longest
    # term add gamma_9 of the mode's gross flux.
    # dp_e: P rounds four times, Gu = P + T_up once more (T_up is the same
    # dot products in both), and the balance three times, against
    # x (Gu + Gd) + Gu.
    ladder, rates, dye, sys_, u = manufactured_problem(l_max, chi)
    N, x, P, bad = manufactured_state(sys_, u)
    assert not bad.any() and np.all((0.0 < x) & (x < 1.0)) and np.all(P > 0)
    M, up, dn, kap, w = sys_.M, sys_.up, sys_.dn, sys_.kap, sys_.w
    for n, xk, pump, uk in zip(N, x, P, u):
        dN, dpe = full_derivatives(n, xk, rates, ladder,
                                   replace(dye, gamma_up_pump=pump))
        gross = kap * n + M * up * n * (1.0 - xk) + M * dn * (n + 1.0) * xk
        sigma = (M * (dn[w] + up[w] + dn + up) * xk + M * (up + up[w])
                 + kap + kap[w] + uk)
        assert np.all(np.abs(dN) <= gamma(10) * n * sigma
                      + gamma(9) * gross), (pump, uk)
        Gu, Gd = sys_.totals(n, pump)
        assert abs(dpe) <= gamma(8) * (xk * (Gu + Gd) + Gu), (pump, uk)


@pytest.mark.parametrize("chi", [c for c in CHI if c >= 0.0])
@pytest.mark.parametrize("l_max", L_MAX)
def test_mirroring_the_splitting_swaps_the_manufactured_state(l_max, chi):
    # chi -> -chi relabels the two polarisation blocks: N(u) swaps its
    # blocks and x(u), P(u) keep every bit
    *_, sys_, u = manufactured_problem(l_max, chi)
    *_, mirror, u_mirror = manufactured_problem(l_max, -chi)
    assert np.array_equal(u, u_mirror)
    N, x, P, bad = manufactured_state(sys_, u)
    N_m, x_m, P_m, bad_m = manufactured_state(mirror, u)
    half = sys_.n // 2
    assert np.array_equal(N_m[:, :half], N[:, half:])
    assert np.array_equal(N_m[:, half:], N[:, :half])
    assert np.array_equal(x_m, x) and np.array_equal(P_m, P)
    assert np.array_equal(bad_m, bad)
