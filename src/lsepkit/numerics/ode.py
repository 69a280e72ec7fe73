"""Adaptive integration with the 8th-order Dormand-Prince pair (DOP853).

The pair's combined 5th/3rd-order error estimate (Hairer, Norsett &
Wanner) drives a PI step controller (safety 0.9, growth clamp x5, shrink
clamp x0.2).  Requested sample times are honored exactly: the controller
lands each one by step clipping, so sampled states carry the full order
of the pair rather than the lower order of an interpolant.

The kernel is real-valued; complex systems are integrated as twice as
many reals and repacked transparently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .. import NumericalFailure
from . import _dop853_tableau as _hi

#: Adaptive steps below this (seconds, or whatever the time axis unit is)
#: abort the integration instead of producing noise.
STEP_FLOOR = 1e-21

#: Accepted-step budget of one integration.
MAX_STEPS = 1_000_000

_SAFETY = 0.9
_MAX_GROWTH = 5.0
_MAX_SHRINK = 0.2
# 1 / (order of the error estimate + 1), the estimate being 7th order
_EXPONENT = 0.125


class StepUnderflow(NumericalFailure):
    """Adaptive step fell below the step floor; the problem is too stiff
    or too discontinuous for the requested tolerances."""


class MaxStepsExceeded(NumericalFailure):
    """Accepted-step budget exhausted before reaching the end time."""


@dataclass
class StepStats:
    accepted: int = 0
    rejected: int = 0


@dataclass
class Trajectory:
    """Sampled solution: ``states[i]`` is the state at ``times[i]``."""

    times: np.ndarray
    states: np.ndarray
    step_stats: StepStats = field(default_factory=StepStats)


def _error_norm(k, h, scale):
    # Combined 5th/3rd-order estimate over the 12 stages plus the
    # step-end derivative; stabilizes step control near rough spots.
    err5 = (k.T @ _hi.E5) / scale
    err3 = (k.T @ _hi.E3) / scale
    err5_sq = float(np.dot(err5, err5))
    err3_sq = float(np.dot(err3, err3))
    if err5_sq == 0.0 and err3_sq == 0.0:
        return 0.0
    denom = err5_sq + 0.01 * err3_sq
    return abs(h) * err5_sq / math.sqrt(denom * scale.size)


def _initial_step(f, t0, y0, f0, t1, rtol, atol):
    scale = atol + rtol * np.abs(y0)
    d0 = math.sqrt(np.mean((y0 / scale) ** 2))
    d1 = math.sqrt(np.mean((f0 / scale) ** 2))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, (t1 - t0))
    y1 = y0 + h0 * f0
    f1 = f(t0 + h0, y1)
    d2 = math.sqrt(np.mean(((f1 - f0) / scale) ** 2)) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** _EXPONENT
    return min(100 * h0, h1, t1 - t0)


def integrate(
    f: Callable,
    y0,
    t0: float,
    t1: float,
    sample_times: Sequence[float],
    *,
    rtol: float,
    atol: float,
) -> Trajectory:
    """Integrate ``dy/dt = f(t, y)`` from ``t0`` to ``t1`` and record the
    state at each of ``sample_times``.

    Parameters
    ----------
    f : callable
        Right-hand side ``f(t, y) -> dy/dt``; may be real or complex.
    y0 : array_like
        Initial state; complex input is supported.
    sample_times : sequence of float
        Strictly increasing times within ``[t0, t1]``.
    rtol, atol : float
        Relative and absolute tolerance of the local error per step.

    Raises
    ------
    StepUnderflow
        When the controller drives the step below ``STEP_FLOOR``.
    MaxStepsExceeded
        When more than ``MAX_STEPS`` accepted steps would be needed.
    """
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")
    if not (rtol > 0.0 and atol > 0.0):
        raise ValueError("tolerances must be positive")
    samples = np.asarray(sample_times, dtype=float)
    if samples.size and (np.any(np.diff(samples) <= 0.0)):
        raise ValueError("sample_times must be strictly increasing")
    if samples.size and (samples[0] < t0 or samples[-1] > t1):
        raise ValueError("sample_times must lie within [t0, t1]")

    y0 = np.atleast_1d(np.asarray(y0))
    is_complex = np.iscomplexobj(y0)
    if is_complex:
        n = y0.size
        y = np.concatenate([y0.real, y0.imag]).astype(float)

        def rhs(t, yr):
            dy = np.asarray(f(t, yr[:n] + 1j * yr[n:]))
            return np.concatenate([dy.real, dy.imag])
    else:
        y = y0.astype(float)

        def rhs(t, yr):
            return np.asarray(f(t, yr), dtype=float)

    rec_times: list[float] = []
    rec_states: list[np.ndarray] = []
    stats = StepStats()

    def record(t, state):
        rec_times.append(t)
        rec_states.append(state.copy())

    si = 0
    while si < samples.size and samples[si] == t0:
        record(t0, y)
        si += 1

    t = t0
    f_cur = rhs(t0, y)
    h = _initial_step(rhs, t0, y, f_cur, t1, rtol, atol)

    err_prev = 1.0
    n_stages = _hi.N_STAGES
    # one row per stage plus the step-end derivative, which is the next
    # step's first stage (first same as last)
    k = np.empty((n_stages + 1, y.size))

    # Below the floor, or below the resolution of the time variable
    # itself, a step can no longer advance the solution honestly.
    def step_floor(t):
        return max(STEP_FLOOR, 4.0 * np.finfo(float).eps * abs(t))

    while t < t1:
        # written to catch a NaN step too (from a NaN derivative), which
        # would otherwise be rejected forever without shrinking
        if not h >= step_floor(t):
            raise StepUnderflow(f"step {h:.3e} below floor {step_floor(t):.3e} at t={t:.6e}")
        if stats.accepted >= MAX_STEPS:
            raise MaxStepsExceeded(f"exceeded {MAX_STEPS} accepted steps at t={t:.6e}")

        # Clip to the end time and to the next requested sample.
        target = None
        if t + h >= t1:
            h, target = t1 - t, t1
        if si < samples.size and t + h >= samples[si]:
            h, target = samples[si] - t, samples[si]
        if h < step_floor(t) and target is None:
            raise StepUnderflow(f"step {h:.3e} below floor {step_floor(t):.3e} at t={t:.6e}")

        k[0] = f_cur
        for i in range(1, n_stages):
            dy = h * (k[:i].T @ _hi.A[i, :i])
            k[i] = rhs(t + _hi.C[i] * h, y + dy)
        y_new = y + h * (k[:n_stages].T @ _hi.B)
        t_new = target if target is not None else t + h
        k[n_stages] = rhs(t_new, y_new)

        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = _error_norm(k, h, scale)

        if err <= 1.0:
            stats.accepted += 1
            t, y = t_new, y_new
            f_cur = k[n_stages]
            while si < samples.size and samples[si] == t:
                record(t, y)
                si += 1
            if err == 0.0:
                factor = _MAX_GROWTH
            else:
                factor = _SAFETY * err ** (-0.7 * _EXPONENT) * err_prev ** (0.4 * _EXPONENT)
                factor = min(_MAX_GROWTH, max(_MAX_SHRINK, factor))
            err_prev = max(err, 1e-10)
            h = min(h * factor, max(t1 - t, STEP_FLOOR))
        else:
            stats.rejected += 1
            factor = _SAFETY * err ** (-_EXPONENT)
            h *= min(1.0, max(_MAX_SHRINK, factor))

    states_real = np.asarray(rec_states)
    if is_complex:
        states = states_real[:, :n] + 1j * states_real[:, n:]
    else:
        states = states_real
    return Trajectory(times=np.asarray(rec_times), states=states, step_stats=stats)
