"""Driven-dissipative dynamics of a two-level ensemble member.

Conventions, fixed project-wide:

* state vector ordering (rho00, rho01, rho10, rho11);
* the coherence rho01 is the component that freely rotates as
  exp(-i w1 t); its rotating-frame envelope is rho01~ = rho01 exp(+i w t)
  for a physical driving field E0 cos(w t);
* detuning delta = (transition energy) - (photon energy), positive when
  the drive is red of the transition;
* coherences damp at the total dephasing rate, half the population decay
  rate plus the pure dephasing rate.

The rotating-wave generator is a 4x4 complex matrix acting on the state
vector; its eigen-decomposition, certified by a residual bound,
propagates the envelope exactly at any sample time.  Its stationary
state is the textbook closed form (Loudon, The Quantum Theory of Light,
3rd ed., OUP 2000, ch. 2), with NoUniqueSteadyState at zero decay and
where that form leaves the float range (on exact resonance with a
dephasing rate below 6e-268 1/s).  The lab-frame equations keep the
full cosine drive (counter-rotating term included).  They are linear,
dv/dt = (G0 + Omega cos(w t) G1) v, with a generator that repeats every
drive period, and are propagated one period at a time with fourth-order
Magnus steps (:func:`lsepkit.numerics.integrate`); the step count per
period doubles until two grids agree in all eight real components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import NumericalFailure, check, non_negative, positive
from .constants import DEBYE, EV, EV_TO_RADS, HBAR
from .numerics import NotConverged, checked_times, integrate


class NoUniqueSteadyState(NumericalFailure):
    """Without decay the driven system keeps a conserved component and
    the stationary state is not unique; a decay too slow for double
    precision on exact resonance is treated alike."""


class DefectiveMatrix(NumericalFailure):
    """Eigenvector basis is numerically rank deficient."""


# Residual certificate for eig: ||A v - w v|| <= EIG_RTOL * ||A|| per pair.
EIG_RTOL = 1e-9


@dataclass(frozen=True)
class TwoLevelParams:
    """Material parameters of one effective two-level emitter.

    Parameters
    ----------
    transition_energy : eV
    decay_rate : population decay rate (1/s)
    pure_dephasing : pure dephasing contribution, as an energy (eV)
    dipole : effective (orientation-averaged) transition dipole (debye)
    """

    transition_energy: float
    decay_rate: float
    pure_dephasing: float
    dipole: float

    def __post_init__(self):
        check(self.transition_energy, positive, "transition_energy must be finite and > 0")
        check(self.decay_rate, non_negative, "decay_rate must be finite and >= 0")
        check(self.pure_dephasing, non_negative, "pure_dephasing must be finite and >= 0")
        check(self.dipole, non_negative, "dipole must be finite and >= 0")

    @property
    def transition_rate(self) -> float:
        """Transition angular frequency (rad/s)."""
        return self.transition_energy * EV_TO_RADS

    @property
    def dipole_si(self) -> float:
        """Transition dipole in C m."""
        return self.dipole * DEBYE

    @property
    def total_dephasing_rate(self) -> float:
        """Coherence damping rate (rad/s): decay_rate/2 + pure dephasing."""
        return 0.5 * self.decay_rate + self.pure_dephasing * EV_TO_RADS

    @property
    def total_dephasing_energy(self) -> float:
        """Coherence damping expressed as an energy (eV)."""
        return self.total_dephasing_rate * HBAR / EV


@dataclass(frozen=True)
class DriveField:
    """Classical monochromatic drive E0 cos(w t), acting from t = 0."""

    amplitude: float
    photon_energy: float

    def __post_init__(self):
        check(self.amplitude, non_negative, "amplitude must be finite and >= 0")
        check(self.photon_energy, positive, "photon_energy must be finite and > 0")

    @property
    def angular_frequency(self) -> float:
        return self.photon_energy * EV_TO_RADS


def detuning_energy(params: TwoLevelParams, drive: DriveField) -> float:
    """delta = transition energy - photon energy (eV)."""
    return params.transition_energy - drive.photon_energy


def detuning_rate(params: TwoLevelParams, drive: DriveField) -> float:
    """Detuning as an angular frequency (rad/s)."""
    return detuning_energy(params, drive) * EV_TO_RADS


def rabi_frequencies(params: TwoLevelParams, drive: DriveField) -> tuple[float, float]:
    """(resonant Rabi frequency, generalized Rabi frequency), rad/s."""
    rabi = params.dipole_si * drive.amplitude / HBAR
    delta = detuning_rate(params, drive)
    return rabi, float(np.hypot(rabi, delta))


@dataclass(frozen=True)
class DensityMatrix:
    """2x2 density matrix in the (ground, excited) basis."""

    rho00: complex
    rho01: complex
    rho10: complex
    rho11: complex

    def __post_init__(self):
        check(self.as_vector(), np.isfinite, "rho must be finite")

    @classmethod
    def ground(cls) -> "DensityMatrix":
        return cls(1.0 + 0.0j, 0.0j, 0.0j, 0.0j)

    def as_vector(self) -> np.ndarray:
        return np.array([self.rho00, self.rho01, self.rho10, self.rho11], dtype=complex)

    def validate(self, tol: float = 1e-9) -> None:
        _check_states(self.as_vector(), tol)


def state_errors(states) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per state row (rho00, rho01, rho10, rho11): the trace error, the
    hermiticity error and the smallest eigenvalue of the Hermitian part
    (negative means unphysical)."""
    s = np.atleast_2d(np.asarray(states, dtype=complex))
    rho = s.reshape(-1, 2, 2)
    return (
        np.abs(s[:, 0] + s[:, 3] - 1.0),
        np.maximum(np.abs(s[:, 1] - np.conj(s[:, 2])), np.abs(s[:, [0, 3]].imag).max(axis=1)),
        np.linalg.eigvalsh(0.5 * (rho + np.conj(np.swapaxes(rho, 1, 2))))[:, 0],
    )


def _check_states(states, tol: float = 1e-9) -> None:
    """Raises ValueError unless every state row is a density matrix to tol."""
    trace, hermiticity, smallest = state_errors(states)
    if trace.max(initial=0.0) > tol:
        raise ValueError(f"trace error {trace.max():.3e} exceeds {tol:.0e}")
    if hermiticity.max(initial=0.0) > tol:
        raise ValueError(f"hermiticity error {hermiticity.max():.3e}")
    if smallest.min(initial=0.0) < -tol:
        raise ValueError(f"negative eigenvalue {smallest.min():.3e}")


@dataclass
class BlochTrajectory:
    """Sampled density-matrix evolution.

    ``frame`` records whether coherences are rotating-frame envelopes
    ("rotating") or lab-frame values ("lab").  ``states[i]`` is the
    state vector (rho00, rho01, rho10, rho11) at ``times[i]``.
    """

    times: np.ndarray
    states: np.ndarray
    frame: str
    drive: DriveField

    @property
    def rho00(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def rho01(self) -> np.ndarray:
        return self.states[:, 1]

    @property
    def rho10(self) -> np.ndarray:
        return self.states[:, 2]

    @property
    def rho11(self) -> np.ndarray:
        return self.states[:, 3]

    def validate(self, tol: float = 1e-9) -> None:
        _check_states(self.states, tol)


def _generators(params: TwoLevelParams, frequency: float) -> tuple[np.ndarray, np.ndarray]:
    """(G0, G1) of the Bloch equations dv/dt = (G0 + Omega(t) G1) v.

    G0 moves the decayed population to the ground state and damps the
    coherences at the total dephasing rate while they precess at
    ``frequency`` (rad/s); G1, per unit Rabi frequency, exchanges
    populations and coherences.  The columns of both sum against
    (1, 0, 0, 1) to zero: the trace is conserved.
    """
    gamma, gtot = params.decay_rate, params.total_dephasing_rate
    g0 = np.array([[0, 0, 0, gamma], [0, -(1j * frequency + gtot), 0, 0],
                   [0, 0, 1j * frequency - gtot, 0], [0, 0, 0, -gamma]])
    g1 = 1j * np.array([[0, 1, -1, 0], [1, 0, 0, -1], [-1, 0, 0, 1], [0, -1, 1, 0]])
    return g0, g1


def liouvillian_rwa(params: TwoLevelParams, drive: DriveField) -> np.ndarray:
    """Rotating-wave generator on (rho00, rho01~, rho10~, rho11).

    The envelopes precess at the detuning, and the drive couples
    populations and coherences at half the Rabi frequency:
    G0(delta) + (Omega/2) G1.
    """
    g0, g1 = _generators(params, detuning_rate(params, drive))
    return g0 + 0.5 * rabi_frequencies(params, drive)[0] * g1


def steady_state(params: TwoLevelParams, drive: DriveField) -> DensityMatrix:
    """Unique stationary state of the rotating-wave generator, in closed
    form (Loudon, The Quantum Theory of Light, 3rd ed., OUP 2000, ch. 2).

    With decay rate gamma, dephasing rate Gamma, detuning delta, Rabi
    frequency Omega and R = Omega^2 Gamma / (2 (Gamma^2 + delta^2)), the
    excited population is R / (gamma + 2R), the inversion is w = gamma /
    (gamma + 2R) (1 - 2 rho11 would cancel), and rho01~ = i (Omega/2) w /
    (Gamma + i delta) is :func:`linear_coherence_per_field` times E0 w.

    Raises NoUniqueSteadyState when the decay rate vanishes (the
    generator then conserves more than the trace), and when gamma + 2R
    is not a finite number: for a decay rate > 0 in the keys' ranges
    only on exact resonance with Gamma below 6e-268 1/s, a decay too
    slow to resolve in double precision.  Every other state is finite
    and passes ``validate``.
    """
    gamma = params.decay_rate
    if gamma <= 0.0:
        raise NoUniqueSteadyState("zero decay rate leaves a conserved population")
    # numpy scalars: a zero or overflowing divisor gives inf or nan, checked below
    with np.errstate(all="ignore"):
        coherence = drive.amplitude * linear_coherence_per_field(
            params, np.float64(drive.photon_energy))
        pump = rabi_frequencies(params, drive)[0] * coherence.imag
        saturation = gamma + 2.0 * pump
    if not np.isfinite(saturation):
        raise NoUniqueSteadyState(
            f"decay rate {gamma:.3g} 1/s is too slow to resolve the steady state on resonance")
    excited = pump / saturation
    coherence = coherence * (gamma / saturation)
    return DensityMatrix(1.0 - excited, coherence, np.conj(coherence), excited)


def linear_coherence_per_field(params: TwoLevelParams, photon_energy: float) -> complex:
    """Weak-field limit of rho01~ / E0 (per V/m).

    With the population pinned to the ground state the stationary
    envelope is i (d/2 hbar) / (dephasing + i detuning); the ratio to the
    field amplitude is what the linear permittivity needs.  Works
    elementwise on an array of photon energies.
    """
    delta = (params.transition_energy - photon_energy) * EV_TO_RADS
    return 0.5j * params.dipole_si / HBAR / (params.total_dephasing_rate + 1j * delta)


def eig(a):
    """Eigenvalues and unit-norm right eigenvectors (the columns) of a
    square complex matrix.  Raises NotConverged when LAPACK fails or a
    pair misses the residual bound ||A v - w v|| <= EIG_RTOL ||A||, and
    DefectiveMatrix when the eigenvector basis is numerically rank
    deficient (the matrix cannot be diagonalized)."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected square matrix, got shape {a.shape}")
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NotConverged(str(exc)) from exc
    norms = np.linalg.norm(vectors, axis=0)
    if np.any(norms == 0.0):
        raise NotConverged("zero eigenvector returned")
    vectors = vectors / norms
    residual = np.linalg.norm(a @ vectors - vectors * values, axis=0)
    bound = EIG_RTOL * max(np.linalg.norm(a, 2), np.finfo(float).tiny)
    if np.any(residual > bound):
        raise NotConverged(f"residual {np.max(residual):.3e} exceeds {bound:.3e}")
    # a defective matrix has no complete basis; numerically the basis collapses
    svals = np.linalg.svd(vectors, compute_uv=False)
    if svals[-1] < 1e-9 * svals[0]:
        raise DefectiveMatrix(f"eigenvector basis condition {svals[0] / svals[-1]:.3e}")
    return values, vectors


def _propagate_eig(gen, v0, dts):
    """exp(gen * dt) @ v0 for each dt via eigen-decomposition; eig has
    certified the basis, so the coefficients take a plain solve."""
    values, vectors = eig(gen)
    coeffs = np.linalg.solve(vectors, v0)
    return (vectors @ (np.exp(np.outer(values, dts)) * coeffs[:, None])).T


def evolve_rwa(
    params: TwoLevelParams,
    drive: DriveField,
    rho0: DensityMatrix,
    sample_times,
) -> BlochTrajectory:
    """Rotating-frame evolution from ``rho0`` at t = 0, sampled exactly.

    The generator is constant, so one eigen-decomposition propagates the
    state to every sample; no step-size control enters.  Coherence
    entries of the result are rotating-frame envelopes.
    """
    times = checked_times(sample_times)
    states = _propagate_eig(liouvillian_rwa(params, drive), rho0.as_vector(), times)
    return BlochTrajectory(times=times, states=states, frame="rotating", drive=drive)


def evolve_lab(
    params: TwoLevelParams,
    drive: DriveField,
    rho0: DensityMatrix,
    sample_times,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> BlochTrajectory:
    """Lab-frame evolution from ``rho0`` at t = 0 with the full cosine
    drive (no rotating-wave approximation).

    The coherences precess at the transition frequency and the coupling is
    Omega cos(w t); :func:`lsepkit.numerics.integrate` takes the two
    generators, Omega and w, and propagates one drive period at a time,
    doubling its steps per period until the samples of two grids agree
    to the relative and absolute tolerances ``rtol`` and ``atol``.
    Coherences in the result are lab-frame values; use
    :func:`rotating_frame` to compare against :func:`evolve_rwa`.  A
    propagation that cannot meet the tolerances raises NotConverged; no
    partial trajectory is returned.
    """
    g0, g1 = _generators(params, params.transition_rate)
    rabi, w = rabi_frequencies(params, drive)[0], drive.angular_frequency
    traj = integrate(g0, g1, rabi, w, rho0.as_vector(), sample_times, rtol=rtol, atol=atol)
    return BlochTrajectory(times=traj.times, states=traj.states, frame="lab", drive=drive)


def rotating_frame(traj: BlochTrajectory) -> BlochTrajectory:
    """Demodulate a lab-frame trajectory into rotating-frame envelopes."""
    if traj.frame != "lab":
        return traj
    phase = np.exp(1j * traj.drive.angular_frequency * traj.times)
    states = traj.states.copy()
    states[:, 1] *= phase
    states[:, 2] *= np.conj(phase)
    return BlochTrajectory(times=traj.times, states=states,
                           frame="rotating", drive=traj.drive)


def cycle_average(times: np.ndarray, values: np.ndarray, period: float) -> np.ndarray:
    """Boxcar average of a sampled signal over one period around each time.

    Intended for stripping the counter-rotating ripple (period pi/w) off
    demodulated lab-frame coherences; end windows are clipped.  A window
    holding a single sample returns that sample.  ``times`` is a sample
    axis (numerics.checked_times) and ``values`` a 1-d array along it.
    """
    check(period, positive, "period must be finite and > 0")
    times, values = checked_times(times), np.asarray(values)
    if values.shape != times.shape:
        raise ValueError("values must be a 1-d array with one value per time")
    half = 0.5 * period
    # pad the window edge by a fraction of the sample spacing so boundary
    # samples are kept despite float rounding; exact-period cancellation
    # of a sampled ripple needs both endpoint samples included
    diffs = np.diff(times)
    pad = 0.25 * diffs.min() if diffs.size else 0.0
    first = np.searchsorted(times, times - half - pad, side="left")
    last = np.searchsorted(times, times + half + pad, side="right") - 1
    # running trapezoid integral: each window's integral is a difference
    area = np.concatenate([[0.0], np.cumsum(0.5 * diffs * (values[1:] + values[:-1]))])
    out = values.astype(np.result_type(values, float))  # int samples average to floats
    wide = last > first
    first, last = first[wide], last[wide]
    out[wide] = (area[last] - area[first]) / (times[last] - times[first])
    return out
