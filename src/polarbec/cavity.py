"""Polarised mode structure of a plano-concave dye microcavity.

A short mirror separation L0 against a large mirror curvature radius R
quantises the longitudinal wavenumber (index j) and leaves a ladder of
transverse modes spaced by a single lateral frequency.  Inside a medium
of refractive index n_sigma the light of circular polarisation sigma
propagates at c_sigma = c / n_sigma, so a small circular birefringence
splits every quantity below between the L and R blocks:

    omega_lateral(sigma) = c_sigma / sqrt(L0 * R)
    omega_cutoff(sigma)  = pi * c_sigma * j / L0 + omega_lateral(sigma)
    omega(j, l, sigma)   = omega_cutoff(sigma) + l * omega_lateral(sigma)
    degeneracy(l)        = l + 1
    m_eff(sigma)         = pi * hbar * j / (c_sigma * L0)
    kappa(sigma)         = 2 * delta_mirror * c_sigma / L0

All frequencies are angular (rad/s), losses are rates (1/s), lengths are
metres.  The photon dispersion is that of a massive 2D particle: the
rest-energy identity m_eff * c_sigma**2 + hbar * omega_lateral =
hbar * omega_cutoff holds to machine precision and is used as a
self-check.  A larger index always lowers the ladder, so with n_L > n_R
every L mode sits below its R partner.

The ladder is held only as arrays, in a ModeLadder that mode_ladder
builds (build_mode_set is the same function under its public name).
Tables, rate tables, solvers and sweeps all read those arrays.  The
degeneracy is not stored: it is derived from l, as the 2D harmonic trap
fixes it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import C_LIGHT, HBAR

POLARISATIONS = ("L", "R")

# ratio L0/R beyond which the paraxial mode description degrades
PARAXIAL_RATIO_MAX = 1e-3


# --- parameter bundles -------------------------------------------------


@dataclass(frozen=True)
class CavityParams:
    """Geometry and mirror quality of the microcavity.

    mirror_radius:      curvature radius R of the concave mirror, m
    mirror_separation:  on-axis mirror distance L0, m
    longitudinal_index: fixed longitudinal order j (integer >= 1)
    mirror_loss:        fractional field loss per round trip delta_mirror;
                        must sit well below 1/2; zero, the lossless
                        limit, gives a ladder only with a kappa_override
    """

    mirror_radius: float
    mirror_separation: float
    longitudinal_index: int
    mirror_loss: float

    def __post_init__(self):
        if not self.mirror_radius > 0:
            raise ValueError(f"mirror_radius must be positive, got {self.mirror_radius}")
        if not self.mirror_separation > 0:
            raise ValueError(
                f"mirror_separation must be positive, got {self.mirror_separation}")
        j = self.longitudinal_index
        if not (isinstance(j, int) and not isinstance(j, bool)) or j < 1:
            raise ValueError(f"longitudinal_index must be an integer >= 1, got {j!r}")
        if not 0 <= self.mirror_loss < 0.5:
            raise ValueError(
                f"mirror_loss must lie in [0, 0.5), got {self.mirror_loss}")
        ratio = self.mirror_separation / self.mirror_radius
        if ratio > PARAXIAL_RATIO_MAX:
            warnings.warn(
                f"mirror_separation/mirror_radius = {ratio:.3g} exceeds "
                f"{PARAXIAL_RATIO_MAX:g}; the paraxial mode ladder is "
                "unreliable for such short cavities",
                stacklevel=2)


@dataclass(frozen=True)
class MediumIndices:
    """Refractive indices seen by the two circular polarisations."""

    n_L: float
    n_R: float

    def __post_init__(self):
        for name, n in (("n_L", self.n_L), ("n_R", self.n_R)):
            if not n > 1:
                raise ValueError(f"{name} must exceed 1 (condensed medium), got {n}")
        if not abs(self.n_L - self.n_R) < 0.1:
            raise ValueError(
                "index splitting |n_L - n_R| must stay below 0.1, got "
                f"{abs(self.n_L - self.n_R)}")

    def index(self, sigma: str) -> float:
        if sigma == "L":
            return self.n_L
        if sigma == "R":
            return self.n_R
        raise ValueError(f"polarisation must be 'L' or 'R', got {sigma!r}")


# --- mode-structure formulas -------------------------------------------


def _check_index(n_sigma: float):
    if not n_sigma > 1:
        raise ValueError(f"refractive index must exceed 1, got {n_sigma}")


def lateral_frequency(cavity: CavityParams, n_sigma: float) -> float:
    """Transverse level spacing c_sigma / sqrt(L0 * R), rad/s."""
    _check_index(n_sigma)
    return (C_LIGHT / n_sigma) / math.sqrt(
        cavity.mirror_separation * cavity.mirror_radius)


def cutoff_frequency(cavity: CavityParams, n_sigma: float) -> float:
    """Ground-mode frequency pi * c_sigma * j / L0 + lateral, rad/s."""
    _check_index(n_sigma)
    c_sigma = C_LIGHT / n_sigma
    return (math.pi * c_sigma * cavity.longitudinal_index
            / cavity.mirror_separation) + lateral_frequency(cavity, n_sigma)


def effective_mass(cavity: CavityParams, n_sigma: float) -> float:
    """Effective 2D photon mass pi * hbar * j / (c_sigma * L0), kg."""
    _check_index(n_sigma)
    c_sigma = C_LIGHT / n_sigma
    return math.pi * HBAR * cavity.longitudinal_index / (
        c_sigma * cavity.mirror_separation)


def cavity_decay(cavity: CavityParams, n_sigma: float) -> float:
    """Mirror-loss photon decay rate 2 * delta_mirror * c_sigma / L0, 1/s."""
    _check_index(n_sigma)
    c_sigma = C_LIGHT / n_sigma
    return 2.0 * cavity.mirror_loss * c_sigma / cavity.mirror_separation


@dataclass(frozen=True, eq=False)
class ModeLadder:
    """Polarised mode ladder held as arrays, L block first then R block.

    l:          transverse ladder index per mode
    omega:      angular frequency per mode, rad/s
    kappa:      photon loss rate per mode, 1/s
    n_left:     modes [0, n_left) are L-polarised, the rest R
    degeneracy: l + 1.0 per mode, derived from l on first use, then cached

    l, omega and kappa are read-only copies (l integer, the others float)
    and degeneracy is read-only: an in-place write raises ValueError, so a
    built ladder never changes, nor a rate system holding its arrays.
    """

    l: np.ndarray
    omega: np.ndarray
    kappa: np.ndarray
    n_left: int

    def __post_init__(self):
        for name, dtype in (("l", None), ("omega", float), ("kappa", float)):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype))
            getattr(self, name).setflags(write=False)
        n = self.l.size
        if not self.omega.size == self.kappa.size == n:
            raise ValueError("ladder arrays must have one entry per mode")
        if not 0 <= self.n_left <= n:
            raise ValueError(f"n_left must lie in [0, {n}], got {self.n_left}")
        if np.any(self.l < 0):
            raise ValueError(f"l must be >= 0, got {int(np.min(self.l))}")
        for name, arr in (("omega", self.omega), ("kappa", self.kappa)):
            bad = ~(arr > 0)
            if np.any(bad):
                raise ValueError(
                    f"{name} must be positive, got {arr[np.argmax(bad)]}")

    @property
    def size(self) -> int:
        return self.l.size

    def __len__(self) -> int:
        return self.l.size

    @cached_property
    def degeneracy(self) -> np.ndarray:
        deg = self.l + 1.0
        deg.setflags(write=False)
        return deg

    def ground(self) -> tuple[int | None, int | None]:
        """Indices of the l = 0 mode of the L and of the R block.

        Every ground-mode lookup goes through here, and the answer is
        cached on first use.  None for a block without one; ValueError,
        at every call, for a block with several.
        """
        return self._ground

    @cached_property
    def _ground(self) -> tuple[int | None, int | None]:
        blocks = (slice(0, self.n_left), slice(self.n_left, self.size))
        out = []
        for sigma, block in zip(POLARISATIONS, blocks):
            zeros = np.flatnonzero(self.l[block] == 0)
            if zeros.size > 1:
                raise ValueError(f"{sigma} block holds {zeros.size} l = 0 modes")
            out.append(None if zeros.size == 0
                       else block.start + int(zeros[0]))
        return out[0], out[1]


def ladder_frequencies(cavity: CavityParams, medium: MediumIndices, l_max: int,
                       kappa_override: float | None = None):
    """(omega, kappa) of every ladder mode, L block (l = 0 .. l_max) then R.

    The one pass that decides a ladder.  Block sigma sits at
    omega_cutoff(sigma) + l * omega_lateral(sigma) and decays at
    cavity_decay(sigma), or at kappa_override, one measured loss rate
    for every mode, when given.  ValueError for l_max < 0, a
    kappa_override that is not positive, or a block loss that is not:
    mirror_loss = 0, or a mirror-loss rate that underflows to zero.
    """
    if l_max < 0:
        raise ValueError(f"l_max must be >= 0, got {l_max}")
    if kappa_override is not None and not kappa_override > 0:
        raise ValueError(f"kappa_override must be positive, got {kappa_override}")
    l = np.arange(l_max + 1)
    omega, kappa = [], []
    for sigma in POLARISATIONS:
        n = medium.index(sigma)
        k = cavity_decay(cavity, n) if kappa_override is None else kappa_override
        if not k > 0:
            raise ValueError(
                f"kappa must be positive, got {k} in the {sigma} block, "
                f"where mirror_loss = {cavity.mirror_loss!r} gives the modes "
                "no decay rate; set kappa_override")
        omega.append(cutoff_frequency(cavity, n) + l * lateral_frequency(cavity, n))
        kappa.append(np.full(l.size, k))
    return np.concatenate(omega), np.concatenate(kappa)


def mode_ladder(cavity: CavityParams, medium: MediumIndices, l_max: int,
                kappa_override: float | None = None) -> ModeLadder:
    """The full polarised ladder as arrays, L block first then R block.

    ladder_frequencies decides every argument and gives the omega and
    kappa; each block carries l = 0 .. l_max, degeneracy l + 1.
    """
    omega, kappa = ladder_frequencies(cavity, medium, l_max, kappa_override)
    l = np.arange(l_max + 1)
    return ModeLadder(l=np.tile(l, 2), omega=omega, kappa=kappa, n_left=l.size)


# the public name of mode_ladder, kept for callers that import it
build_mode_set = mode_ladder
