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
2 * DeltaOmega; at the peak the rate equals 4 * gamma0.  Both forms
multiply linewidth**2 by gamma0 before dividing, so DyeParams rejects a
pair whose product overflows a float.  The microscopic Hamiltonian
behind these profiles (electronic and rovibrational frequencies,
Huang-Rhys factor, mode couplings) never enters: the two fitted
Lorentzians carry all of the physics the rate equations need.
build_rate_table evaluates both profiles on a ModeLadder's omega array.
The RateTable keeps that ladder beside the rates, refuses a rate that
rounds to zero (far from both peaks) or is not finite, and pairs the
rates with no other ladder.

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

import math
from dataclasses import dataclass

import numpy as np

from .cavity import ModeLadder


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
        for name in ("gamma_down0", "gamma_up0"):
            if not math.isfinite(self.linewidth * self.linewidth
                                 * getattr(self, name)):
                raise ValueError(f"linewidth**2 * {name} overflows a float")


@dataclass(frozen=True, eq=False)
class RateTable:
    """Per-mode emission and absorption rates on one mode ladder.

    gamma_down[i] and gamma_up[i] belong to mode i of `ladder`.  Entries
    are strictly positive and finite; an empty ladder is rejected.  Both
    are read-only float copies, so an in-place write raises ValueError;
    like a ModeLadder, a table compares and hashes by identity.
    """

    ladder: ModeLadder
    gamma_down: np.ndarray
    gamma_up: np.ndarray

    def __post_init__(self):
        if self.ladder.size == 0:
            raise ValueError("RateTable needs at least one mode")
        if (len(self.gamma_down) != self.ladder.size
                or len(self.gamma_up) != self.ladder.size):
            raise ValueError("rate arrays must align with the mode ladder")
        check_rates(self.gamma_down, self.gamma_up)
        for name in ("gamma_down", "gamma_up"):
            object.__setattr__(self, name, np.array(getattr(self, name), float))
            getattr(self, name).setflags(write=False)

    def __len__(self) -> int:
        return self.ladder.size

    def ladder_for(self, ladder: ModeLadder) -> ModeLadder:
        """`ladder`, once checked to be the table's own or equal to it in
        n_left, l, omega and kappa; the rates belong to those omegas."""
        own = self.ladder
        if ladder is not own and not (
                ladder.n_left == own.n_left
                and all(np.array_equal(getattr(ladder, name),
                                       getattr(own, name))
                        for name in ("l", "omega", "kappa"))):
            raise ValueError("rate table was built for a different mode ladder")
        return ladder


def check_rates(gamma_down, gamma_up) -> None:
    """ValueError naming the first rate that is not positive and finite."""
    for name, arr in (("gamma_down", gamma_down), ("gamma_up", gamma_up)):
        a = np.asarray(arr, dtype=float)
        bad = ~((a > 0.0) & (a < math.inf))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"{name} of mode {i} is {float(a[i])!r}; every "
                             "rate must be positive and finite")


def _lorentzian(dye: DyeParams, gamma0: float, centre: float, omega):
    # the profile of gamma0 peaked at detuning `centre` from Omega0
    detuning = np.asarray(omega, dtype=float) - dye.Omega0
    width2 = dye.linewidth ** 2
    out = width2 * gamma0 / (width2 / 4.0 + (detuning - centre) ** 2)
    return float(out) if np.isscalar(omega) else out


def emission_rate(dye: DyeParams, omega):
    """Dye emission rate into a mode at angular frequency omega (a scalar
    or an array), 1/s."""
    return _lorentzian(dye, dye.gamma_down0, dye.DeltaOmega, omega)


def absorption_rate(dye: DyeParams, omega):
    """Dye absorption rate out of a mode at angular frequency omega, 1/s."""
    # detuning - (-DeltaOmega) rounds exactly as detuning + DeltaOmega
    return _lorentzian(dye, dye.gamma_up0, -dye.DeltaOmega, omega)


def build_rate_table(dye: DyeParams, ladder: ModeLadder) -> RateTable:
    """Evaluate both rate profiles at every mode frequency of a ladder."""
    return RateTable(ladder=ladder,
                     gamma_down=emission_rate(dye, ladder.omega),
                     gamma_up=absorption_rate(dye, ladder.omega))
