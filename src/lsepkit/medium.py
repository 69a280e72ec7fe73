"""Effective permittivity of a dilute layer of two-level emitters.

The polarization of N identical emitters per unit volume, each carrying
the same weak-field coherence, adds a resonant term to the host
permittivity: eps = eps_b + (2 N d / (eps0 E0)) rho01~.  Steady state
uses the analytic linear coherence; transients reuse the rotating-frame
propagator so the spectrum can be sampled on femtosecond slices, and at
zero field take the linear coherence per unit field switched on.  A
single-oscillator Lorentz model and a fit of dipole and dephasing
against measured spectra round out the module: eps - eps_b is d^2 times
the response of a 1 D dipole, so the fit solves d^2 in closed form and
searches the dephasing alone.  Spectra are read and written as
lsepkit.table tables, written from their energy, permittivity and time
arrays as whole columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import NumericalFailure, at_least_one, check, non_negative, positive, table
from .bloch import (
    DensityMatrix,
    DriveField,
    TwoLevelParams,
    detuning_rate,
    evolve_rwa,
    linear_coherence_per_field,
)
from .constants import EPS0, EV_TO_RADS, HBAR
from .numerics import nelder_mead

# Iteration cap of the fit's simplex search; reaching it means the search
# did not converge.
FIT_MAXITER = 4000
# Largest dipole (Debye): the fit clips its projected d^2 to the square.
MAX_DIPOLE_DEBYE = 1e6


class FitDiverged(NumericalFailure):
    """Least-squares search failed to improve on its starting point."""


@dataclass(frozen=True)
class MaterialParams:
    """Doped-host description: emitter density plus the host background.

    number_density is the density of emitter sites in 1/m^3 and
    background_permittivity the real host value the resonance sits on.
    """

    number_density: float
    background_permittivity: float
    two_level: TwoLevelParams

    def __post_init__(self):
        check(self.number_density, positive, "number_density must be finite and > 0")
        check(self.background_permittivity, at_least_one,
              "background_permittivity must be finite and >= 1")

    @property
    def coupling_strength(self) -> float:
        """Resonant prefactor N d^2 / (eps0 hbar) in rad/s."""
        d = self.two_level.dipole_si
        return self.number_density * d * d / (EPS0 * HBAR)


@dataclass(frozen=True)
class PermittivitySpectrum:
    """Complex permittivity samples, optionally tagged with a time slice.

    energies must be non-decreasing; time, when present, matches the
    sample count (used for fixed-frequency transients where every row
    shares one photon energy).
    """

    energies: np.ndarray
    epsilon: np.ndarray
    time: np.ndarray | None = None

    def __post_init__(self):
        energies = np.asarray(self.energies, dtype=float)
        epsilon = np.asarray(self.epsilon, dtype=complex)
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "epsilon", epsilon)
        if energies.ndim != 1 or epsilon.shape != energies.shape:
            raise ValueError("energies and epsilon must be matching 1-d arrays")
        if energies.size == 0:
            raise ValueError("empty spectrum")
        check(energies, np.isfinite, "energies must be finite")
        check(epsilon, np.isfinite, "epsilon must be finite")
        if np.any(np.diff(energies) < 0.0):
            raise ValueError("energies must be non-decreasing")
        if self.time is not None:
            time = np.asarray(self.time, dtype=float)
            object.__setattr__(self, "time", time)
            if time.shape != energies.shape:
                raise ValueError("time must match the sample count")
            check(time, np.isfinite, "time must be finite")


@dataclass(frozen=True)
class LorentzParams:
    """Single classical oscillator: eps_background, strength, center, width (eV)."""

    eps_background: float
    oscillator_strength: float
    resonance: float
    damping: float

    def __post_init__(self):
        for name in ("eps_background", "oscillator_strength", "resonance"):
            check(getattr(self, name), non_negative, f"{name} must be finite and >= 0")
        # zero damping puts the pole on the real energy axis
        check(self.damping, positive, "damping must be finite and > 0")


@dataclass(frozen=True)
class FitReport:
    """Outcome of fit_material: recovered parameters plus diagnostics."""

    params: MaterialParams
    residual: float
    initial_residual: float
    n_evaluations: int
    degenerate: bool


def _prefactor(material: MaterialParams, field: float = 1.0) -> float:
    """The polarization prefactor 2 N d / (eps0 E0), rejected if it overflowed."""
    prefactor = 2.0 * material.number_density * material.two_level.dipole_si / (EPS0 * field)
    check(prefactor, np.isfinite,
          f"number_density {material.number_density:g} overflows the permittivity prefactor")
    return prefactor


def epsilon_steady(material: MaterialParams, energies) -> PermittivitySpectrum:
    """Weak-field stationary permittivity over a photon-energy grid.

    Uses the analytic coherence-per-field ratio, so the result carries
    no finite drive amplitude: eps = eps_b + A (delta + i Gamma) /
    (delta^2 + Gamma^2) with A = N d^2 / (eps0 hbar).
    """
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    ratio = linear_coherence_per_field(material.two_level, energies)
    eps = material.background_permittivity + _prefactor(material) * ratio
    return PermittivitySpectrum(energies=energies, epsilon=eps)


def epsilon_transient(
    material: MaterialParams, drive: DriveField, sample_times
) -> PermittivitySpectrum:
    """Permittivity slices at one illumination energy after a sudden start.

    Evolves the ensemble coherence from the ground state under the given
    drive and converts each rotating-frame sample to eps(t).  Rows share
    the drive photon energy; the time axis tags each slice.  At zero
    amplitude eps(t) is the weak-field limit, the linear coherence per
    unit field switched on at t = 0, which settles to epsilon_steady.
    """
    times = np.atleast_1d(np.asarray(sample_times, dtype=float))
    p = material.two_level
    # rho01~ grows linearly with E0, so a zero field takes it per unit field
    prefactor = _prefactor(material, drive.amplitude or 1.0)
    if drive.amplitude == 0.0:
        rate = p.total_dephasing_rate + 1j * detuning_rate(p, drive)
        coherence = linear_coherence_per_field(p, drive.photon_energy) * -np.expm1(-rate * times)
    else:
        coherence = evolve_rwa(p, drive, DensityMatrix.ground(), times).rho01
    eps = material.background_permittivity + prefactor * coherence
    energies = np.full(times.shape, drive.photon_energy)
    return PermittivitySpectrum(energies=energies, epsilon=eps, time=times)


def lorentz_epsilon(params: LorentzParams, energies) -> PermittivitySpectrum:
    """Classical single-oscillator permittivity on a photon-energy grid."""
    e = np.atleast_1d(np.asarray(energies, dtype=float))
    w0 = params.resonance
    eps = params.eps_background + params.oscillator_strength * w0 * w0 / (
        w0 * w0 - e * e - 1j * e * params.damping
    )
    return PermittivitySpectrum(energies=e, epsilon=eps)


def refractive_index(spectrum: PermittivitySpectrum) -> np.ndarray:
    """Complex index sqrt(eps) on the branch with non-negative imag part."""
    root = np.sqrt(spectrum.epsilon.astype(complex))
    return np.where(root.imag < 0.0, -root, root)


def _spectrum_residual(model: PermittivitySpectrum, target: PermittivitySpectrum) -> float:
    return float(np.sum(np.abs(model.epsilon - target.epsilon) ** 2))


def fit_material(target: PermittivitySpectrum, fixed: MaterialParams) -> FitReport:
    """Least-squares fit of dipole and pure dephasing.

    Holds density, background, transition energy and decay fixed (taken
    from `fixed`) and adjusts the effective dipole moment and the pure
    dephasing rate to minimize the summed squared permittivity misfit on
    the target grid.  At a fixed dephasing eps - eps_b is d^2 times the
    response of a 1 D dipole, so d^2 is solved in closed form (variable
    projection: Golub & Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)) and
    the bounded simplex (numerics.simplex.nelder_mead) searches the pure
    dephasing alone, from that of `fixed`.  initial_residual is the
    misfit of `fixed`, n_evaluations counts the projected misfits.

    Raises FitDiverged when the search reaches FIT_MAXITER iterations or
    cannot improve on its start, or when the target needs a dipole above
    MAX_DIPOLE_DEBYE.  A target with no resonant feature drives
    the dipole toward zero; the report flags that case as degenerate
    rather than failing.
    """
    p0, background = fixed.two_level, fixed.background_permittivity
    excess = target.epsilon - background

    def build(dipole: float, dephasing: float) -> MaterialParams:
        return replace(fixed, two_level=replace(p0, dipole=dipole, pure_dephasing=dephasing))

    def project(dephasing: float) -> tuple[float, float]:
        """The least-squares d^2 at one dephasing, and its misfit."""
        unit = epsilon_steady(build(1.0, dephasing), target.energies).epsilon - background
        norm = np.vdot(unit, unit).real
        # a response that underflows to zero takes no dipole
        d2 = np.clip(np.vdot(unit, excess).real / norm, 0.0, MAX_DIPOLE_DEBYE**2) if norm else 0.0
        return d2, float(np.sum(np.abs(d2 * unit - excess) ** 2))

    initial = _spectrum_residual(epsilon_steady(fixed, target.energies), target)
    scale = max(initial, np.sum(np.abs(target.epsilon) ** 2), 1e-30)
    # the projected dipole follows the dephasing: an xatol of 1e-9 eV left
    # it up to 7e-8 relative off on exact targets, 1e-11 eV within 5e-10
    result = nelder_mead(
        lambda points, rows: np.array([project(x[0])[1] for x in points]),
        np.array([[p0.pure_dephasing]]),
        lower=np.array([0.0]),
        upper=np.array([10.0]),
        xatol=1e-11,
        fatol=1e-8 * scale,
        maxiter=FIT_MAXITER,
    )
    x, fun, nfev, nit, converged = (field[0] for field in result)
    if not converged or fun > initial * (1.0 + 1e-12):
        raise FitDiverged(
            f"simplex search stalled after {nit} iterations at residual {fun:.6g} "
            f"(start {initial:.6g})"
        )
    dephasing = float(x[0])
    d2 = project(dephasing)[0]
    if d2 >= MAX_DIPOLE_DEBYE**2:
        raise FitDiverged(f"the target needs a dipole above {MAX_DIPOLE_DEBYE:g} D")
    dipole = math.sqrt(d2)
    # a flat target pushes the dipole to zero; flag, do not fail
    degenerate = dipole <= 1e-3 * p0.dipole
    return FitReport(
        params=build(dipole, dephasing),
        residual=float(fun),
        initial_residual=initial,
        n_evaluations=int(nfev),
        degenerate=degenerate,
    )


SPECTRUM_HEADER = ("energy_eV", "eps_real", "eps_imag")


def write_spectrum_csv(path, spectrum: PermittivitySpectrum, comments=()) -> None:
    """Write energy_eV, eps_real, eps_imag [, time_fs] rows at full precision."""
    columns = [spectrum.energies, spectrum.epsilon.real, spectrum.epsilon.imag]
    header = SPECTRUM_HEADER
    if spectrum.time is not None:
        columns.append(spectrum.time * 1e15)
        header += ("time_fs",)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(table.render(header, columns, comments))


def read_spectrum_csv(path) -> PermittivitySpectrum:
    """Read a spectrum written by write_spectrum_csv (comments allowed)."""
    data, _ = table.read(path, SPECTRUM_HEADER, SPECTRUM_HEADER + ("time_fs",))
    time = data[:, 3] * 1e-15 if data.shape[1] == 4 else None
    return PermittivitySpectrum(
        energies=data[:, 0], epsilon=data[:, 1] + 1j * data[:, 2], time=time
    )
