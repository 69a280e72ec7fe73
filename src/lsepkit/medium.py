"""Effective permittivity of a dilute layer of two-level emitters.

The polarization of N identical emitters per unit volume, each carrying
the same weak-field coherence, adds a resonant term to the host
permittivity: eps = eps_b + (2 N d / (eps0 E0)) rho01~.  Steady state
uses the analytic linear coherence; transients reuse the rotating-frame
propagator so the spectrum can be sampled on femtosecond slices.  A
single-oscillator Lorentz model and a two-parameter fit against
measured spectra round out the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import NumericalFailure
from .bloch import (
    DensityMatrix,
    DriveField,
    TwoLevelParams,
    evolve_rwa,
    linear_coherence_per_field,
)
from .constants import EPS0, EV_TO_RADS, HBAR
from .numerics import nelder_mead

# Iteration cap of the fit's simplex search; reaching it means the search
# did not converge.
FIT_MAXITER = 4000


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
        if not 0.0 < self.number_density < math.inf:
            raise ValueError(
                f"number_density must be finite and > 0, got {self.number_density}"
            )
        if not 1.0 <= self.background_permittivity < math.inf:
            raise ValueError(
                "background_permittivity must be finite and >= 1, "
                f"got {self.background_permittivity}"
            )

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
        if not (np.isfinite(energies).all() and np.isfinite(epsilon).all()):
            raise ValueError("energies and epsilon must be finite")
        if np.any(np.diff(energies) < 0.0):
            raise ValueError("energies must be non-decreasing")
        if self.time is not None:
            time = np.asarray(self.time, dtype=float)
            object.__setattr__(self, "time", time)
            if time.shape != energies.shape:
                raise ValueError("time must match the sample count")
            if not np.isfinite(time).all():
                raise ValueError("time must be finite")


@dataclass(frozen=True)
class LorentzParams:
    """Single classical oscillator: eps_background, strength, center, width (eV)."""

    eps_background: float
    oscillator_strength: float
    resonance: float
    damping: float

    def __post_init__(self):
        for name in ("eps_background", "oscillator_strength", "resonance"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        # zero damping puts the pole on the real energy axis
        if not 0.0 < self.damping < math.inf:
            raise ValueError(f"damping must be finite and > 0, got {self.damping}")


@dataclass(frozen=True)
class FitReport:
    """Outcome of fit_material: recovered parameters plus diagnostics."""

    params: MaterialParams
    residual: float
    initial_residual: float
    n_evaluations: int
    degenerate: bool


def _finite_prefactor(material: MaterialParams, prefactor: float) -> float:
    """The polarization prefactor 2 N d / eps0 [/ E0], rejected if it overflowed."""
    if not math.isfinite(prefactor):
        raise ValueError(
            f"number_density {material.number_density:g} overflows the permittivity prefactor"
        )
    return prefactor


def epsilon_steady(material: MaterialParams, energies) -> PermittivitySpectrum:
    """Weak-field stationary permittivity over a photon-energy grid.

    Uses the analytic coherence-per-field ratio, so the result carries
    no finite drive amplitude: eps = eps_b + A (delta + i Gamma) /
    (delta^2 + Gamma^2) with A = N d^2 / (eps0 hbar).
    """
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    p = material.two_level
    ratio = linear_coherence_per_field(p, energies)
    prefactor = _finite_prefactor(material, 2.0 * material.number_density * p.dipole_si / EPS0)
    eps = material.background_permittivity + prefactor * ratio
    return PermittivitySpectrum(energies=energies, epsilon=eps)


def epsilon_transient(
    material: MaterialParams, drive: DriveField, sample_times
) -> PermittivitySpectrum:
    """Permittivity slices at one illumination energy after a sudden start.

    Evolves the ensemble coherence from the ground state under the given
    drive and converts each rotating-frame sample to eps(t).  Rows share
    the drive photon energy; the time axis tags each slice.
    """
    if drive.amplitude < 0.0:
        raise ValueError("transient drive amplitude must be >= 0")
    times = np.atleast_1d(np.asarray(sample_times, dtype=float))
    p = material.two_level
    if drive.amplitude == 0.0:
        # zero-field limit: coherence scales linearly with the drive, so
        # the induced part of eps vanishes and the background remains
        eps = np.full(times.shape, complex(material.background_permittivity))
        energies = np.full(times.shape, drive.photon_energy)
        return PermittivitySpectrum(energies=energies, epsilon=eps, time=times)
    prefactor = _finite_prefactor(
        material, 2.0 * material.number_density * p.dipole_si / (EPS0 * drive.amplitude)
    )
    traj = evolve_rwa(p, drive, DensityMatrix.ground(), times)
    eps = material.background_permittivity + prefactor * traj.rho01
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


def fit_material(
    target: PermittivitySpectrum,
    fixed: MaterialParams,
    dipole_init: float | None = None,
    dephasing_init: float | None = None,
) -> FitReport:
    """Two-parameter least-squares fit of dipole and pure dephasing.

    Holds density, background, transition energy and decay fixed (taken
    from `fixed`) and adjusts the effective dipole moment and the pure
    dephasing rate to minimize the summed squared permittivity misfit on
    the target grid.  Derivative-free bounded simplex search
    (numerics.simplex.nelder_mead, from the one starting point).

    Raises FitDiverged when the search reaches FIT_MAXITER iterations or
    cannot improve on its start.  A target with no resonant feature drives
    the dipole toward zero; the report flags that case as degenerate
    rather than failing.
    """
    p0 = fixed.two_level
    d0 = p0.dipole if dipole_init is None else float(dipole_init)
    g0 = p0.pure_dephasing if dephasing_init is None else float(dephasing_init)
    if not (0.0 < d0 < math.inf and 0.0 <= g0 < math.inf):
        raise ValueError("initial dipole must be finite and > 0, dephasing finite and >= 0")

    def build(dipole: float, dephasing: float) -> MaterialParams:
        return replace(fixed, two_level=replace(p0, dipole=dipole, pure_dephasing=dephasing))

    # dipole searched in log space: the cost scales with d^4, and a flat
    # target legitimately drives d across many decades toward zero
    def cost(x) -> float:
        model = epsilon_steady(build(np.exp(x[0]), x[1]), target.energies)
        return _spectrum_residual(model, target)

    start = np.array([np.log(d0), g0])
    initial = cost(start)
    scale = max(initial, np.sum(np.abs(target.epsilon) ** 2), 1e-30)
    result = nelder_mead(
        lambda points, rows: np.array([cost(x) for x in points]),
        start[None, :],
        lower=np.array([np.log(1e-6), 0.0]),
        upper=np.array([np.log(1e6), 10.0]),
        xatol=1e-9,
        fatol=1e-8 * scale,
        maxiter=FIT_MAXITER,
    )
    x, fun, nfev, nit, converged = (field[0] for field in result)
    if not converged or fun > initial * (1.0 + 1e-12):
        raise FitDiverged(
            f"simplex search stalled after {nit} iterations at residual {fun:.6g} "
            f"(start {initial:.6g})"
        )
    dipole, dephasing = float(np.exp(x[0])), float(x[1])
    # a flat target pushes the dipole to its floor; flag, do not fail
    degenerate = dipole <= 1e-3 * d0
    return FitReport(
        params=build(dipole, dephasing),
        residual=float(fun),
        initial_residual=initial,
        n_evaluations=int(nfev),
        degenerate=degenerate,
    )


def write_spectrum_csv(path, spectrum: PermittivitySpectrum, comments=()) -> None:
    """Write energy_eV, eps_real, eps_imag [, time_fs] rows at full precision."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        if spectrum.time is None:
            fh.write("energy_eV,eps_real,eps_imag\n")
            for e, eps in zip(spectrum.energies, spectrum.epsilon):
                fh.write(f"{e:.17g},{eps.real:.17g},{eps.imag:.17g}\n")
        else:
            fh.write("energy_eV,eps_real,eps_imag,time_fs\n")
            for e, eps, t in zip(spectrum.energies, spectrum.epsilon, spectrum.time):
                fh.write(f"{e:.17g},{eps.real:.17g},{eps.imag:.17g},{t * 1e15:.17g}\n")


def read_spectrum_csv(path) -> PermittivitySpectrum:
    """Read a spectrum written by write_spectrum_csv (comments allowed)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(number, ln.strip()) for number, ln in enumerate(fh, start=1)]
    rows = [(number, ln) for number, ln in lines if ln and not ln.startswith("#")]
    if not rows:
        raise ValueError(f"no data in {path}")
    header = [c.strip() for c in rows[0][1].split(",")]
    expected = ["energy_eV", "eps_real", "eps_imag"]
    if header[:3] != expected or len(header) > 4 or (
        len(header) == 4 and header[3] != "time_fs"
    ):
        raise ValueError(f"unexpected columns {header} in {path}")
    data = []
    for number, ln in rows[1:]:
        try:
            values = [float(v) for v in ln.split(",")]
        except ValueError as exc:
            raise ValueError(f"{path}, line {number}: {exc}") from exc
        if len(values) != len(header):
            raise ValueError(f"{path}, line {number}: ragged row {ln!r}")
        if not np.isfinite(values).all():
            raise ValueError(f"{path}, line {number}: values must be finite, got {ln!r}")
        data.append(values)
    data = np.array(data).reshape(-1, len(header))
    time = data[:, 3] * 1e-15 if len(header) == 4 else None
    return PermittivitySpectrum(
        energies=data[:, 0], epsilon=data[:, 1] + 1j * data[:, 2], time=time
    )
