"""Frequency-resolved emission and absorption rates of the dye bath.

The dye molecules exchange photons with each cavity mode at rates set by
two mirror-image Lorentzian profiles.  Measuring frequency from the
dye's electronic resonance Omega0, the emission profile peaks a
rovibrational offset DeltaOmega above the resonance and the absorption
profile the same offset below:

    delta_nu     = omega_nu - Omega0
    gamma_dn(nu) = linewidth**2 * gamma_down0
                   / (linewidth**2 / 4 + (delta_nu - DeltaOmega)**2)
    gamma_up(nu) = linewidth**2 * gamma_up0
                   / (linewidth**2 / 4 + (delta_nu + DeltaOmega)**2)

Both profiles are positive and unimodal with maxima separated by
2 * DeltaOmega; at the peak the rate equals 4 * gamma0.  The microscopic
Hamiltonian behind these profiles (electronic and rovibrational
frequencies, Huang-Rhys factor, mode couplings) never enters: the two
fitted Lorentzians carry all of the physics the rate equations need.

What drives mode competition is the saturated molecular fraction
(kappa_nu / M + gamma_up_nu) / (gamma_up_nu + gamma_dn_nu): the mode
with the smallest one condenses.  At a given gamma_up it falls as the
ratio gamma_dn / gamma_up rises, and that ratio is not monotone.  With
s = sqrt(linewidth**2 / 4 + DeltaOmega**2) it has a minimum at detuning
-s and a maximum at +s (0.717 at -25.3e12 rad/s and 1.395 at
+25.3e12 rad/s for the default dye), and it decreases strictly with
frequency only below -s and above +s.  The default ladder (l_max = 200,
detunings -86e12 to -49e12 rad/s) lies below -s, so its lowest-frequency
modes enjoy the most favourable balance and a ground mode wins.  A
longer ladder reaches past -s, where an excited mode can win: with the
default cavity and dye, the ladder's top mode from l_max = 407 on
(its larger absorption outweighs its smaller ratio), and the R mode
with l = 597, next to the ratio's maximum, from about l_max = 600 on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cavity import Mode, ModeLadder


@dataclass(frozen=True)
class DyeParams:
    """Dye bath and drive parameters.

    Omega0:        electronic resonance (profile centre), rad/s
    DeltaOmega:    rovibrational offset between the two peaks' centres
                   and the resonance, rad/s
    linewidth:     full Lorentzian width parameter of both profiles, rad/s
    gamma_down0:   emission peak scale (peak rate = 4 * gamma_down0), 1/s
    gamma_up0:     absorption peak scale, 1/s
    gamma_down:    bare molecular de-excitation rate, 1/s
    gamma_up_pump: bare molecular excitation (pump) rate, 1/s
    M:             number of dye molecules (0 allowed as the undoped limit)
    """

    Omega0: float
    DeltaOmega: float
    linewidth: float
    gamma_down0: float
    gamma_up0: float
    gamma_down: float
    gamma_up_pump: float
    M: float

    def __post_init__(self):
        if not self.Omega0 > 0:
            raise ValueError(f"Omega0 must be positive, got {self.Omega0}")
        if not self.DeltaOmega >= 0:
            raise ValueError(f"DeltaOmega must be >= 0, got {self.DeltaOmega}")
        if not self.linewidth > 0:
            raise ValueError(f"linewidth must be positive, got {self.linewidth}")
        if not self.gamma_down0 > 0:
            raise ValueError(f"gamma_down0 must be positive, got {self.gamma_down0}")
        if not self.gamma_up0 > 0:
            raise ValueError(f"gamma_up0 must be positive, got {self.gamma_up0}")
        if not self.gamma_down >= 0:
            raise ValueError(f"gamma_down must be >= 0, got {self.gamma_down}")
        if not self.gamma_up_pump >= 0:
            raise ValueError(
                f"gamma_up_pump must be >= 0, got {self.gamma_up_pump}")
        if not self.M >= 0:
            raise ValueError(f"M must be >= 0, got {self.M}")


@dataclass(frozen=True)
class RateTable:
    """Per-mode emission and absorption rates, aligned with a mode list.

    gamma_down[i] and gamma_up[i] belong to modes[i].  Entries are
    strictly positive and finite; an empty mode list is rejected.
    """

    modes: tuple[Mode, ...]
    gamma_down: np.ndarray
    gamma_up: np.ndarray

    def __post_init__(self):
        if len(self.modes) == 0:
            raise ValueError("RateTable needs at least one mode")
        if (len(self.gamma_down) != len(self.modes)
                or len(self.gamma_up) != len(self.modes)):
            raise ValueError("rate arrays must align with the mode list")
        for name, arr in (("gamma_down", self.gamma_down),
                          ("gamma_up", self.gamma_up)):
            a = np.asarray(arr, dtype=float)
            if not np.all(np.isfinite(a)) or not np.all(a > 0):
                raise ValueError(f"{name} entries must be positive and finite")

    def __len__(self) -> int:
        return len(self.modes)

    @cached_property
    def ladder(self) -> ModeLadder:
        """Array form of the mode list, built once per table."""
        return ModeLadder.from_modes(list(self.modes))

    def ladder_for(self, modes: list[Mode]) -> ModeLadder:
        """The ladder, once `modes` is checked to be the table's mode list."""
        if tuple(modes) != self.modes:
            # the rates were evaluated at the table's own omegas
            raise ValueError("rate table was built for a different mode list")
        return self.ladder


def emission_rate(dye: DyeParams, omega):
    """Dye emission rate into a mode at angular frequency omega, 1/s.

    Accepts a scalar or an array of frequencies.
    """
    detuning = np.asarray(omega, dtype=float) - dye.Omega0
    width2 = dye.linewidth ** 2
    out = width2 * dye.gamma_down0 / (
        width2 / 4.0 + (detuning - dye.DeltaOmega) ** 2)
    return float(out) if np.isscalar(omega) else out


def absorption_rate(dye: DyeParams, omega):
    """Dye absorption rate out of a mode at angular frequency omega, 1/s."""
    detuning = np.asarray(omega, dtype=float) - dye.Omega0
    width2 = dye.linewidth ** 2
    out = width2 * dye.gamma_up0 / (
        width2 / 4.0 + (detuning + dye.DeltaOmega) ** 2)
    return float(out) if np.isscalar(omega) else out


def build_rate_table(dye: DyeParams, modes: list[Mode]) -> RateTable:
    """Evaluate both rate profiles at every mode frequency."""
    omegas = np.array([m.omega for m in modes], dtype=float)
    return RateTable(
        modes=tuple(modes),
        gamma_down=emission_rate(dye, omegas),
        gamma_up=absorption_rate(dye, omegas),
    )
