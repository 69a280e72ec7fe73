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
vector; its eigen-decomposition propagates the envelope exactly at any
sample time.  The lab-frame equations keep the full cosine drive
(counter-rotating term included).  They are linear, dv/dt = (G0 +
Omega cos(w t) G1) v, and are integrated with the adaptive 8th-order
Dormand-Prince pair for linear systems (:func:`lsepkit.numerics.integrate`),
the error test running over the eight real components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import NumericalFailure
from .constants import DEBYE, EV, EV_TO_RADS, HBAR
from .numerics import eig, integrate, solve_linear

ENVELOPES = ("continuous", "step")


class NoUniqueSteadyState(NumericalFailure):
    """Without decay the driven system keeps a conserved component and
    the stationary state is not unique."""


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
        if not 0.0 < self.transition_energy < math.inf:
            raise ValueError(
                f"transition_energy must be finite and > 0, got {self.transition_energy}"
            )
        if not (0.0 <= self.decay_rate < math.inf and 0.0 <= self.pure_dephasing < math.inf):
            raise ValueError("rates must be finite and non-negative")
        if not 0.0 <= self.dipole < math.inf:
            raise ValueError(f"dipole must be finite and non-negative, got {self.dipole}")

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
    """Classical monochromatic drive E0 cos(w t).

    ``envelope`` is "continuous" (on for all simulated times) or "step"
    (switched on at ``turn_on`` seconds).
    """

    amplitude: float
    photon_energy: float
    envelope: str = "continuous"
    turn_on: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.amplitude < math.inf:
            raise ValueError(f"amplitude must be finite and non-negative, got {self.amplitude}")
        if not 0.0 < self.photon_energy < math.inf:
            raise ValueError(f"photon_energy must be finite and > 0, got {self.photon_energy}")
        if not math.isfinite(self.turn_on):
            raise ValueError(f"turn_on must be finite, got {self.turn_on}")
        if self.envelope not in ENVELOPES:
            raise ValueError(f"envelope must be one of {ENVELOPES}")

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

    @classmethod
    def ground(cls) -> "DensityMatrix":
        return cls(1.0 + 0.0j, 0.0j, 0.0j, 0.0j)

    @classmethod
    def from_vector(cls, v) -> "DensityMatrix":
        return cls(*(complex(c) for c in np.asarray(v).ravel()))

    def as_vector(self) -> np.ndarray:
        return np.array([self.rho00, self.rho01, self.rho10, self.rho11], dtype=complex)

    @property
    def trace_error(self) -> float:
        return abs(self.rho00 + self.rho11 - 1.0)

    @property
    def hermiticity_error(self) -> float:
        return max(
            abs(self.rho01 - np.conj(self.rho10)),
            abs(self.rho00.imag),
            abs(self.rho11.imag),
        )

    @property
    def positivity_margin(self) -> float:
        """Smallest eigenvalue of the matrix (negative means unphysical)."""
        mat = np.array([[self.rho00, self.rho01], [self.rho10, self.rho11]])
        return float(np.min(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))))

    def validate(self, tol: float = 1e-9) -> None:
        if self.trace_error > tol:
            raise ValueError(f"trace error {self.trace_error:.3e} exceeds {tol:.0e}")
        if self.hermiticity_error > tol:
            raise ValueError(f"hermiticity error {self.hermiticity_error:.3e}")
        if self.positivity_margin < -tol:
            raise ValueError(f"negative eigenvalue {self.positivity_margin:.3e}")


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

    def density_matrix(self, i: int) -> DensityMatrix:
        return DensityMatrix.from_vector(self.states[i])

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
        for i in range(len(self.times)):
            self.density_matrix(i).validate(tol)


def liouvillian_rwa(params: TwoLevelParams, drive: DriveField) -> np.ndarray:
    """Rotating-wave generator on (rho00, rho01~, rho10~, rho11).

    Populations exchange through the decay rate; the envelope of rho01
    relaxes at the total dephasing rate while precessing at the detuning;
    the drive couples populations and coherences at half the Rabi
    frequency.  Rows sum against (1, 0, 0, 1) to zero: the trace is
    conserved.
    """
    gamma = params.decay_rate
    gtot = params.total_dephasing_rate
    delta = detuning_rate(params, drive)
    half = 0.5j * params.dipole_si * drive.amplitude / HBAR

    return np.array(
        [
            [0.0, half, -half, gamma],
            [half, -(1j * delta + gtot), 0.0, -half],
            [-half, 0.0, 1j * delta - gtot, half],
            [0.0, -half, half, -gamma],
        ],
        dtype=complex,
    )


def steady_state(params: TwoLevelParams, drive: DriveField) -> DensityMatrix:
    """Unique stationary state of the rotating-wave generator.

    Solves L v = 0 with the trace row pinned to one.  Raises
    NoUniqueSteadyState when the decay rate vanishes (the generator then
    conserves more than the trace).
    """
    if params.decay_rate <= 0.0:
        raise NoUniqueSteadyState("zero decay rate leaves a conserved population")
    gen = liouvillian_rwa(params, drive)
    # trace row scaled to the generator's magnitude keeps pivots balanced
    scale = max(np.max(np.abs(gen)), 1.0)
    gen[0, :] = np.array([1.0, 0.0, 0.0, 1.0]) * scale
    rhs = np.array([scale, 0.0, 0.0, 0.0], dtype=complex)
    return DensityMatrix.from_vector(solve_linear(gen, rhs))


def linear_coherence_per_field(params: TwoLevelParams, photon_energy: float) -> complex:
    """Weak-field limit of rho01~ / E0 (per V/m).

    With the population pinned to the ground state the stationary
    envelope is i (d/2 hbar) / (dephasing + i detuning); the ratio to the
    field amplitude is what the linear permittivity needs.  Works
    elementwise on an array of photon energies.
    """
    delta = (params.transition_energy - photon_energy) * EV_TO_RADS
    return 0.5j * params.dipole_si / HBAR / (params.total_dephasing_rate + 1j * delta)


def _checked_times(sample_times) -> np.ndarray:
    times = np.asarray(sample_times, dtype=float)
    if times.size == 0:
        raise ValueError("sample_times must not be empty")
    if not np.all(np.isfinite(times)) or np.any(np.diff(times) <= 0.0) or times[0] < 0.0:
        raise ValueError("sample_times must be finite, strictly increasing and >= 0")
    return times


def _propagate_eig(gen, v0, dts):
    """exp(gen * dt) @ v0 for each dt via eigen-decomposition."""
    values, vectors = eig(gen)
    coeffs = solve_linear(vectors, v0)
    return (vectors @ (np.exp(np.outer(values, dts)) * coeffs[:, None])).T


def evolve_rwa(
    params: TwoLevelParams,
    drive: DriveField,
    rho0: DensityMatrix,
    sample_times,
) -> BlochTrajectory:
    """Rotating-frame evolution from ``rho0`` at t = 0, sampled exactly.

    The generator is piecewise constant (undriven before a step turn-on,
    driven after), so each segment is an eigen-decomposition propagation;
    no step-size control enters.  Coherence entries of the result are
    rotating-frame envelopes.
    """
    times = _checked_times(sample_times)
    v0 = rho0.as_vector()
    t_on = drive.turn_on if drive.envelope == "step" else 0.0
    gen_on = liouvillian_rwa(params, drive)

    states = np.empty((times.size, 4), dtype=complex)
    late = times >= t_on
    if t_on > 0.0:
        gen_off = liouvillian_rwa(params, replace(drive, amplitude=0.0))
        if np.any(~late):
            states[~late] = _propagate_eig(gen_off, v0, times[~late])
        v_on = _propagate_eig(gen_off, v0, np.array([t_on]))[0]
    else:
        v_on = v0
    if np.any(late):
        states[late] = _propagate_eig(gen_on, v_on, times[late] - t_on)
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
    """Lab-frame evolution with the full cosine drive (no rotating-wave
    approximation), integrated adaptively to the relative and absolute
    local-error tolerances ``rtol`` and ``atol``.

    The equations are linear, dv/dt = (G0 + Omega cos(w t) G1) v, and go to
    :func:`lsepkit.numerics.integrate` as two precomputed generators and a
    coupling.  A step turn-on splits the integration (undriven before it),
    so no step straddles the jump.  Coherences in the result are lab-frame
    values; use :func:`rotating_frame` to compare against
    :func:`evolve_rwa`.  An integration that cannot reach the last sample
    raises the integrator's StepUnderflow or MaxStepsExceeded; no partial
    trajectory is returned.
    """
    times = _checked_times(sample_times)
    gamma, gtot, w1 = params.decay_rate, params.total_dephasing_rate, params.transition_rate
    # G0 decays the population and rotates and damps the coherences; G1,
    # per unit Rabi frequency, exchanges populations and coherences
    g0 = np.array([[0, 0, 0, gamma], [0, -(1j * w1 + gtot), 0, 0],
                   [0, 0, 1j * w1 - gtot, 0], [0, 0, 0, -gamma]])
    g1 = 1j * np.array([[0, 1, -1, 0], [1, 0, 0, -1], [-1, 0, 0, 1], [0, -1, 1, 0]])
    rabi = params.dipole_si * drive.amplitude / HBAR
    w = drive.angular_frequency
    t_on = drive.turn_on if drive.envelope == "step" else 0.0
    late = times >= t_on
    v, states = rho0.as_vector(), []
    if t_on > 0.0:
        ends = np.append(times[~late], t_on) if late.any() else times
        head = integrate(g0, g1, np.zeros_like, v, 0.0, ends, rtol=rtol, atol=atol).states
        states.append(head[: np.count_nonzero(~late)])
        v = head[-1]
    if late.any():
        states.append(integrate(g0, g1, lambda t: rabi * np.cos(w * t), v, max(t_on, 0.0),
                                times[late], rtol=rtol, atol=atol).states)
    return BlochTrajectory(times=times, states=np.concatenate(states), frame="lab", drive=drive)


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
    holding a single sample returns that sample.
    """
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
    out = values.copy()
    wide = last > first
    first, last = first[wide], last[wide]
    out[wide] = (area[last] - area[first]) / (times[last] - times[first])
    return out
