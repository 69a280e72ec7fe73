"""Frenkel-exciton states of a linear molecular aggregate.

A chain of n identical two-level molecules with nearest-neighbour
coupling J has single-exciton energies

    lambda_m = E_mol - 2 J cos(m pi / (n + 1)),    m = 1..n,

with eigenstate coefficients proportional to sin(j m pi / (n + 1)).
Summing the molecular transition dipoles over an eigenstate gives the
collective mode dipole, which vanishes for even m and concentrates the
oscillator strength in the lowest odd mode (the J-band).  An
orientational average reduces the on-axis dipole to the value effective
for an isotropic ensemble in 2 or 3 dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import at_least_one, check, non_negative


class ModeOutOfRange(ValueError):
    """Requested exciton mode index outside 1..n."""


class BadDimension(ValueError):
    """Orientational average defined for dimensionality 2 or 3 only."""


@dataclass(frozen=True)
class AggregateChain:
    """Linear chain of coupled two-level molecules.

    Parameters
    ----------
    n_molecules : number of molecules in the chain
    monomer_energy : intramolecular transition energy (eV)
    coupling : nearest-neighbour transfer integral J (eV); positive J
        puts the bright state at the red end of the band
    monomer_dipole : molecular transition dipole (debye)
    """

    n_molecules: int
    monomer_energy: float
    coupling: float
    monomer_dipole: float

    def __post_init__(self):
        check(self.n_molecules, at_least_one, "n_molecules must be finite and >= 1")
        check(self.monomer_energy, np.isfinite, "monomer_energy must be finite")
        check(self.coupling, np.isfinite, "coupling must be finite")
        check(self.monomer_dipole, non_negative, "monomer_dipole must be finite and >= 0")


@dataclass(frozen=True)
class BrightState:
    """Energy (eV) and collective dipole (debye) of the dominant mode."""

    mode: int
    energy: float
    dipole: float


def eigenvalues(chain: AggregateChain) -> np.ndarray:
    """Single-exciton energies lambda_m (eV) for m = 1..n, ascending in m."""
    n = chain.n_molecules
    m = np.arange(1, n + 1)
    return chain.monomer_energy - 2.0 * chain.coupling * np.cos(m * np.pi / (n + 1))


def eigenstate(chain: AggregateChain, mode: int) -> np.ndarray:
    """Site coefficients of exciton mode m, normalized to unit norm."""
    n = chain.n_molecules
    if not 1 <= mode <= n:
        raise ModeOutOfRange(f"mode {mode} outside 1..{n}")
    j = np.arange(1, n + 1)
    return np.sqrt(2.0 / (n + 1)) * np.sin(j * mode * np.pi / (n + 1))


def mode_dipole(chain: AggregateChain, mode: int) -> float:
    """Magnitude of the collective transition dipole of mode m (debye).

    Closed form of the coefficient sum: even modes are dark, odd modes
    carry mu * sqrt(2/(n+1)) * cot(m pi / (2(n+1))).
    """
    n = chain.n_molecules
    if not 1 <= mode <= n:
        raise ModeOutOfRange(f"mode {mode} outside 1..{n}")
    parity = 1.0 - (-1.0) ** mode  # 2 for odd m, 0 for even m
    if parity == 0.0:
        return 0.0
    angle = mode * np.pi / (2.0 * (n + 1))
    return chain.monomer_dipole * np.sqrt(parity / (n + 1)) / np.tan(angle)


def bright_state(chain: AggregateChain) -> BrightState:
    """The m = 1 exciton: band-edge energy and the largest mode dipole."""
    energy = float(eigenvalues(chain)[0])
    return BrightState(mode=1, energy=energy, dipole=mode_dipole(chain, 1))


def orientational_average(dipole: float, dimensionality: int) -> float:
    """Effective dipole of an isotropically oriented ensemble.

    The on-axis dipole divided by the dimensionality of the disorder:
    2 for dipoles random in a plane, 3 for random in space.
    """
    check(dipole, non_negative, "dipole must be finite and >= 0")
    if dimensionality not in (2, 3):
        raise BadDimension(f"dimensionality must be 2 or 3, got {dimensionality}")
    return dipole / dimensionality
