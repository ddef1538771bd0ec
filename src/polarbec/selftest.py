"""Built-in consistency checks runnable from the command line.

Each suite exercises one load-bearing property of the simulator with
hand-checkable numbers: the mode ladder and its rest-energy identity,
the shape of the dye rate profiles, the chirality chain, agreement of
both steady-state routes with the exact single-mode solution, exact
polarisation symmetry of the achiral system, and the equivalence of the
full and adiabatic derivatives at a slaved molecular fraction.  These
run in well under a second and catch most wiring mistakes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .analytic import single_mode_exact, threshold_pump
from .cavity import (CavityParams, MediumIndices, ModeLadder, mode_ladder,
                     cutoff_frequency, effective_mass, lateral_frequency)
from .chiral import ChiralSample, SolventParams, chi_from_sample, chi_quick
from .constants import C_LIGHT, HBAR
from .dye import DyeParams, build_rate_table
from .dynamics import (SolverConfig, adiabatic_derivative, find_steady_state,
                       full_derivatives, total_rates)
from .sweeps import stokes_s3

_CAVITY = CavityParams(mirror_radius=1.0, mirror_separation=1.46e-6,
                       longitudinal_index=7, mirror_loss=0.01)
_DYE = DyeParams(Omega0=3456e12, DeltaOmega=4.18e12, linewidth=50e12,
                 gamma_down0=10.0, gamma_up0=10.0, gamma_down=1e9,
                 gamma_up_pump=5e9, M=1e9)
_KAPPA = 1e8


def _one_mode(omega: float) -> ModeLadder:
    """A ladder of one L-polarised ground mode at omega, loss _KAPPA."""
    return ModeLadder(l=np.zeros(1, dtype=int), omega=np.array([omega]),
                      kappa=np.array([_KAPPA]), n_left=1)


def check_mode_ladder():
    medium = MediumIndices(n_L=1.34, n_R=1.34)
    ladder = mode_ladder(_CAVITY, medium, 100, kappa_override=_KAPPA)
    if len(ladder) != 202:
        return False, f"expected 202 modes, built {len(ladder)}"
    lat = lateral_frequency(_CAVITY, 1.34)
    gaps = np.diff(ladder.omega[101:])
    worst = float(np.max(np.abs(gaps - lat) / lat))
    if worst > 1e-9:
        return False, f"ladder spacing deviates by {worst:.2e} (rel)"
    c_sigma = C_LIGHT / 1.34
    mass = effective_mass(_CAVITY, 1.34)
    resid = abs(mass * c_sigma**2 + HBAR * lat
                - HBAR * cutoff_frequency(_CAVITY, 1.34))
    if resid > 1e-12 * HBAR * cutoff_frequency(_CAVITY, 1.34):
        return False, f"rest-energy identity off by {resid:.2e}"
    return True, f"202 modes, spacing uniform to {worst:.1e}"


def check_rate_profiles():
    table = build_rate_table(_DYE, _one_mode(_DYE.Omega0 + _DYE.DeltaOmega))
    dn_peak = float(table.gamma_down[0])
    if abs(dn_peak - 4.0 * _DYE.gamma_down0) > 1e-9 * dn_peak:
        return False, f"emission peak {dn_peak} != 4 * gamma_down0"
    medium = MediumIndices(n_L=1.3435, n_R=1.3395)
    ladder = mode_ladder(_CAVITY, medium, 200, kappa_override=_KAPPA)
    table = build_rate_table(_DYE, ladder)
    order = np.argsort(ladder.omega)
    ratio = (np.asarray(table.gamma_down) / np.asarray(table.gamma_up))[order]
    if not np.all(np.diff(ratio) < 0):
        return False, "gamma_down/gamma_up is not strictly decreasing"
    return True, "peak value and ratio ordering verified"


def check_chirality_chain():
    sample = ChiralSample(theta_deg=44.0, molar_mass_u=180.0, alpha=0.4,
                          epsilon=1.0, dominant="R")
    solvent = SolventParams(number_density=1.488e28, base_index=1.34,
                            wavelength=546e-9)
    full = chi_from_sample(sample, solvent)
    quick = chi_quick(44.0, 180.0, 1.0, 0.4)
    rel = abs(full - quick) / full
    if rel > 5e-3:
        return False, f"quick chi deviates from full by {rel:.2e}"
    return True, f"chi = {full:.4e}, quick estimate within {rel:.1e}"


def check_single_mode_oracle():
    # the mode's rates do not depend on the pump
    ladder = _one_mode(cutoff_frequency(_CAVITY, 1.3435))
    rates = build_rate_table(_DYE, ladder)
    up = float(rates.gamma_up[0])
    dn = float(rates.gamma_down[0])
    tau = threshold_pump(_DYE.gamma_down, up, dn)
    results = []
    for frac in (0.4, 2.0):
        dye = replace(_DYE, gamma_up_pump=frac * tau)
        exact = single_mode_exact(frac * tau, _KAPPA, dye.gamma_down, up, dn,
                                  dye.M)
        # the exact route, which reads no seed, lands on the root; the
        # dynamical route only promises the cross-check agreement bound
        for route, gate in (("fixed_point", 1e-9), ("semi_dynamical", 1e-5)):
            steady = find_steady_state(rates, ladder, dye,
                                       SolverConfig(mode=route))
            if not steady.converged:
                return False, f"{route} did not converge at {frac} tau"
            rel = abs(float(steady.N[0]) - exact) / (exact + 1.0)
            results.append(rel)
            if rel > gate:
                return False, (f"{route} deviates from the exact single-mode "
                               f"occupation by {rel:.2e} at {frac} tau")
        if frac < 1 and exact >= 1:
            return False, "below-threshold occupation is not small"
    return True, f"both routes within {max(results):.1e} of exact"


def check_polarisation_symmetry():
    medium = MediumIndices(n_L=1.34, n_R=1.34)
    ladder = mode_ladder(_CAVITY, medium, 60, kappa_override=_KAPPA)
    rates = build_rate_table(_DYE, ladder)
    for route in ("fixed_point", "semi_dynamical"):
        steady = find_steady_state(rates, ladder, _DYE,
                                   SolverConfig(mode=route))
        n = len(ladder) // 2
        if not np.array_equal(steady.N[:n], steady.N[n:]):
            return False, f"achiral blocks differ bitwise ({route})"
        obs = stokes_s3(steady, ladder)
        if obs.S3 != 0.0:
            return False, f"achiral S3 = {obs.S3} != 0 ({route})"
    # relabelling the blocks must swap the solution exactly
    chi = 2e-3
    med_a = MediumIndices(n_L=1.3415 + chi, n_R=1.3415 - chi)
    med_b = MediumIndices(n_L=1.3415 - chi, n_R=1.3415 + chi)
    out = []
    for med in (med_a, med_b):
        ladder = mode_ladder(_CAVITY, med, 60, kappa_override=_KAPPA)
        rates = build_rate_table(_DYE, ladder)
        steady = find_steady_state(rates, ladder, _DYE, SolverConfig())
        out.append((steady.N, stokes_s3(steady, ladder).S3))
    n = len(out[0][0]) // 2
    if not (np.array_equal(out[0][0][:n], out[1][0][n:])
            and np.array_equal(out[0][0][n:], out[1][0][:n])):
        return False, "relabelled blocks are not a bitwise swap"
    if out[0][1] != -out[1][1]:
        return False, "S3 does not flip sign exactly under relabelling"
    return True, "achiral ties, relabel swap and sign flip all exact"


def check_adiabatic_identity():
    medium = MediumIndices(n_L=1.3435, n_R=1.3395)
    ladder = mode_ladder(_CAVITY, medium, 60, kappa_override=_KAPPA)
    rates = build_rate_table(_DYE, ladder)
    steady = find_steady_state(rates, ladder, _DYE, SolverConfig())
    Gu, Gd = total_rates(steady.N, rates, ladder, _DYE)
    p_slaved = Gu / (Gu + Gd)
    dN_full, _ = full_derivatives(steady.N, p_slaved, rates, ladder, _DYE)
    dN_adia = adiabatic_derivative(steady.N, rates, ladder, _DYE)
    scale = np.maximum(np.abs(dN_adia), ladder.kappa * (steady.N + 1.0))
    worst = float(np.max(np.abs(dN_full - dN_adia) / scale))
    if worst > 1e-10:
        return False, f"full vs adiabatic drift deviates by {worst:.2e}"
    return True, f"drift identity holds to {worst:.1e}"


SUITES = [
    ("mode-ladder", check_mode_ladder),
    ("rate-profiles", check_rate_profiles),
    ("chirality-chain", check_chirality_chain),
    ("single-mode-oracle", check_single_mode_oracle),
    ("polarisation-symmetry", check_polarisation_symmetry),
    ("adiabatic-identity", check_adiabatic_identity),
]


def run_all():
    """Run every suite; returns a list of (name, passed, detail)."""
    results = []
    for name, fn in SUITES:
        try:
            passed, detail = fn()
        except Exception as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, passed, detail))
    return results
