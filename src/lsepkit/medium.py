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
finds the dephasing alone by golden section.  A spectrum file is an
lsepkit.table table with the one header SPECTRUM_HEADER, written from
the energy and permittivity arrays as whole columns.
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
    _coherence_per_field,
    detuning_rate,
    evolve_rwa,
)
from .constants import EPS0
from .numerics import checked_times

# Largest dipole (Debye): the fit clips its projected d^2 to the square.
MAX_DIPOLE_DEBYE = 1e6
# Largest |eps| of a spectrum file, of a background or Lorentz strength:
# far above any dielectric host.
MAX_PERMITTIVITY = 1e4


class FitDiverged(NumericalFailure):
    """The fitted target needs a dipole above MAX_DIPOLE_DEBYE."""


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


@dataclass(frozen=True)
class PermittivitySpectrum:
    """Complex permittivity samples on a non-decreasing energy axis.

    A transient's rows share one photon energy; its times are the sample
    times that epsilon_transient was given, row for row.
    """

    energies: np.ndarray
    epsilon: np.ndarray

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
    eps = _steady_response(material, energies)(material.two_level.total_dephasing_rate)
    return PermittivitySpectrum(energies=energies, epsilon=eps)


def _steady_response(material: MaterialParams, energies: np.ndarray):
    """epsilon_steady's values on ``energies`` as a function of the coherence
    damping rate (rad/s); the fit calls it once per dephasing it tries."""
    p = material.two_level
    delta = detuning_rate(p, energies)
    prefactor = _prefactor(material)
    return lambda rate: (material.background_permittivity
                         + prefactor * _coherence_per_field(p.dipole_si, rate, delta))


def epsilon_transient(
    material: MaterialParams, drive: DriveField, sample_times
) -> PermittivitySpectrum:
    """Permittivity slices at one illumination energy after a sudden start.

    Evolves the ensemble coherence from the ground state under the given
    drive and converts each rotating-frame sample to eps(t): row i is the
    slice at sample_times[i] (numerics.checked_times), and every row
    carries the drive photon energy.  At zero amplitude eps(t) is the
    weak-field limit, the linear coherence per unit field switched on at
    t = 0, which settles to epsilon_steady.
    """
    times = checked_times(np.atleast_1d(sample_times))
    p = material.two_level
    # rho01~ grows linearly with E0, so a zero field takes it per unit field
    prefactor = _prefactor(material, drive.amplitude or 1.0)
    if drive.amplitude == 0.0:
        delta = detuning_rate(p, drive.photon_energy)
        rate = p.total_dephasing_rate + 1j * delta
        coherence = (_coherence_per_field(p.dipole_si, p.total_dephasing_rate, delta)
                     * -np.expm1(-rate * times))
    else:
        coherence = evolve_rwa(p, drive, DensityMatrix.ground(), times).rho01
    eps = material.background_permittivity + prefactor * coherence
    energies = np.full(times.shape, drive.photon_energy)
    return PermittivitySpectrum(energies=energies, epsilon=eps)


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
    a golden-section search finds the pure dephasing alone in [0, 10] eV,
    with that response from epsilon_steady's helper, bit for bit and with
    no spectrum per misfit.  The fit reports the better of the search's
    end and `fixed`, whose misfit is initial_residual, so it never ends
    above its start; n_evaluations counts the misfits of both.

    Raises FitDiverged when the target needs a dipole above
    MAX_DIPOLE_DEBYE.  A target with no resonant feature drives the
    dipole toward zero; the report flags that case as degenerate rather
    than failing.
    """
    p0, background = fixed.two_level, fixed.background_permittivity
    excess = target.epsilon - background

    def build(dipole: float, dephasing: float) -> MaterialParams:
        return replace(fixed, two_level=replace(p0, dipole=dipole, pure_dephasing=dephasing))

    response = _steady_response(build(1.0, p0.pure_dephasing), target.energies)

    def project(dephasing: float) -> tuple[float, float]:
        """The least-squares d^2 at one dephasing, and its misfit."""
        unit = response(replace(p0, pure_dephasing=dephasing).total_dephasing_rate) - background
        norm = np.vdot(unit, unit).real
        # a response that underflows to zero takes no dipole
        d2 = np.clip(np.vdot(unit, excess).real / norm, 0.0, MAX_DIPOLE_DEBYE**2) if norm else 0.0
        return d2, float(np.sum(np.abs(d2 * unit - excess) ** 2))

    initial = _spectrum_residual(epsilon_steady(fixed, target.energies), target)
    # the projected dipole follows the dephasing: a bracket of 1e-9 eV left
    # it up to 7e-8 relative off on exact targets, 1e-11 eV within 5e-10
    dephasing, residual, count = _golden_section(lambda x: project(x)[1], 0.0, 10.0, 1e-11)
    if initial < residual:
        dipole, dephasing, residual = p0.dipole, p0.pure_dephasing, initial
    else:
        d2 = project(dephasing)[0]
        if d2 >= MAX_DIPOLE_DEBYE**2:
            raise FitDiverged(f"the target needs a dipole above {MAX_DIPOLE_DEBYE:g} D")
        dipole = math.sqrt(d2)
    # a flat target pushes the dipole to zero; flag, do not fail
    return FitReport(build(dipole, dephasing), residual, initial, count + 1,
                     degenerate=dipole <= 1e-3 * p0.dipole)


def _golden_section(f, lo: float, hi: float, tol: float) -> tuple[float, float, int]:
    """Golden-section search of f on [lo, hi] (Kiefer, Proc. AMS 4, 502 (1953))
    to a bracket at most tol wide: its best point, value and evaluation count."""
    keep = (math.sqrt(5.0) - 1.0) / 2.0  # the share of its bracket a step keeps
    c, d = hi - keep * (hi - lo), lo + keep * (hi - lo)
    fc, fd, count = f(c), f(d), 2
    while hi - lo > tol:
        if fc <= fd:  # the bracket keeps [lo, d]; c becomes its upper point
            hi, d, fd = d, c, fc
            c = hi - keep * (hi - lo)
            fc = f(c)
        else:  # the bracket keeps [c, hi]; d becomes its lower point
            lo, c, fc = c, d, fd
            d = lo + keep * (hi - lo)
            fd = f(d)
        count += 1
    return (c, fc, count) if fc <= fd else (d, fd, count)


SPECTRUM_HEADER = ("energy_eV", "eps_real", "eps_imag")
# Im(eps) down to this far below zero is roundoff of an absorbing medium;
# below it the medium has gain, which neither qabs_spectrum nor the
# steady-state fit describes
IMAG_ROUNDOFF = 1e-9


def write_spectrum_csv(path, spectrum: PermittivitySpectrum, comments=()) -> None:
    """Write energy_eV, eps_real, eps_imag rows at full precision."""
    columns = [spectrum.energies, spectrum.epsilon.real, spectrum.epsilon.imag]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(table.render(SPECTRUM_HEADER, columns, comments))


def read_spectrum_csv(path) -> PermittivitySpectrum:
    """The spectrum in a CSV with header SPECTRUM_HEADER (comments allowed).

    Faults name the file, and for a row its line: no rows, an energy below
    the row before, and the first row whose energy is not > 0, Im(eps)
    below -IMAG_ROUNDOFF or |eps| above MAX_PERMITTIVITY.
    """
    data, lines = table.read(path, SPECTRUM_HEADER)
    if not lines:
        raise ValueError(f"{path}: empty spectrum")
    energy, imag, magnitude = data[:, 0], data[:, 2], np.hypot(data[:, 1], data[:, 2])
    descending = np.flatnonzero(np.diff(energy) < 0.0)
    if descending.size:
        raise ValueError(f"{path}, line {lines[descending[0] + 1]}: "
                         "energies must be non-decreasing")
    for bad, values, requirement in (
        (energy <= 0.0, energy, "photon energy must be > 0"),
        (imag < -IMAG_ROUNDOFF, imag, "spectrum has negative Im(eps) beyond roundoff"),
        (magnitude > MAX_PERMITTIVITY, magnitude, f"|eps| must be <= {MAX_PERMITTIVITY:g}"),
    ):
        if bad.any():
            row = int(np.argmax(bad))
            raise ValueError(f"{path}, line {lines[row]}: {requirement}, got {values[row]}")
    return PermittivitySpectrum(energies=energy, epsilon=data[:, 1] + 1j * imag)
