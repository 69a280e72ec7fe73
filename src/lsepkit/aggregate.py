"""Frenkel-exciton states of a linear molecular aggregate.

A chain of n identical two-level molecules with nearest-neighbour
coupling J has single-exciton energies

    lambda_m = E_mol - 2 J cos(m pi / (n + 1)),    m = 1..n,

with eigenstate coefficients proportional to sin(j m pi / (n + 1)).
Summing the molecular transition dipoles over an eigenstate gives the
collective mode dipole, which vanishes for even m and concentrates the
oscillator strength in the lowest odd mode (the J-band).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import check, non_negative, positive_integer


class ModeOutOfRange(ValueError):
    """Requested exciton mode index not a whole number in 1..n."""


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
        check(self.n_molecules, positive_integer, "n_molecules must be an integer >= 1")
        check(self.monomer_energy, np.isfinite, "monomer_energy must be finite")
        check(self.coupling, np.isfinite, "coupling must be finite")
        check(self.monomer_dipole, non_negative, "monomer_dipole must be finite and >= 0")


def eigenvalues(chain: AggregateChain) -> np.ndarray:
    """Single-exciton energies lambda_m (eV) for m = 1..n, ascending in m."""
    n = chain.n_molecules
    m = np.arange(1, n + 1)
    return chain.monomer_energy - 2.0 * chain.coupling * np.cos(m * np.pi / (n + 1))


def eigenstate(chain: AggregateChain, mode: int) -> np.ndarray:
    """Site coefficients of exciton mode m, normalized to unit norm."""
    n = chain.n_molecules
    if not (positive_integer(mode) and mode <= n):
        raise ModeOutOfRange(f"mode must be an integer in 1..{n}, got {mode}")
    j = np.arange(1, n + 1)
    return np.sqrt(2.0 / (n + 1)) * np.sin(j * mode * np.pi / (n + 1))


def mode_dipole(chain: AggregateChain, mode: int) -> float:
    """Magnitude of the collective transition dipole of mode m (debye).

    Closed form of the coefficient sum: even modes are dark, odd modes
    carry mu * sqrt(2/(n+1)) * cot(m pi / (2(n+1))).
    """
    n = chain.n_molecules
    if not (positive_integer(mode) and mode <= n):
        raise ModeOutOfRange(f"mode must be an integer in 1..{n}, got {mode}")
    parity = 1.0 - (-1.0) ** mode  # 2 for odd m, 0 for even m
    if parity == 0.0:
        return 0.0
    angle = mode * np.pi / (2.0 * (n + 1))
    return chain.monomer_dipole * np.sqrt(parity / (n + 1)) / np.tan(angle)
