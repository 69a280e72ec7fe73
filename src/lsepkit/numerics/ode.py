"""DOP853 integration of linear systems dy/dt = (G0 + c(t) G1) y.

For a linear right-hand side one step of the 8th-order Dormand-Prince pair
is a matrix: y -> S y, with S = I + h sum_i b_i K_i and K_i = G(t + c_i h)
(I + h sum_j a_ij K_j) (Hairer, Norsett & Wanner, Solving Ordinary
Differential Equations I, section II.1); the embedded 5th/3rd-order error
estimate is a pair of matrices built from the same K_i.  Each pass builds
up to CHUNK steps in one array pass, chains the states through them, tests
every error norm at once, accepts the passing prefix and re-plans from the
first failure.  A step covers a whole sample interval where the error test
allows; otherwise the interval is split into equal substeps no longer than
the step bound, the smallest h * 0.9 err^(-1/8) (factor clamped to
[0.2, 5]) over the last pass's tested steps.  Sample times are stepped to
exactly, so sampled states carry the full order of the pair.
"""

from __future__ import annotations

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

#: Steps built and tested in one pass; bounds the memory of a pass.
CHUNK = 256

_SAFETY = 0.9
_MAX_GROWTH = 5.0
_MAX_SHRINK = 0.2
# 1 / (order of the error estimate + 1), the estimate being 7th order
_EXPONENT = 0.125


class StepUnderflow(NumericalFailure):
    """Adaptive step fell below the step floor; the problem is too stiff
    or too discontinuous for the requested tolerances, or they are finer
    than float64 resolves."""


class MaxStepsExceeded(NumericalFailure):
    """Accepted-step budget exhausted before reaching the end time."""


@dataclass
class StepStats:
    """Accepted steps, and failed error tests (one per re-planned pass)."""

    accepted: int = 0
    rejected: int = 0


@dataclass
class Trajectory:
    """Sampled solution: ``states[i]`` is the state at ``times[i]``."""

    times: np.ndarray
    states: np.ndarray
    step_stats: StepStats = field(default_factory=StepStats)


def _plan(t, targets, bound):
    """Ends of at most CHUNK steps from ``t`` through the sample times
    ``targets``, each interval split into the fewest equal substeps no
    longer than ``bound``, and whether each step ends on a sample."""
    edges = np.append(t, targets)
    widths = np.diff(edges)
    pieces = np.maximum(1.0, np.ceil(widths / bound))
    interval = np.repeat(np.arange(widths.size), np.minimum(pieces, CHUNK).astype(int))[:CHUNK]
    index = np.arange(interval.size) - np.searchsorted(interval, interval) + 1.0
    lands = index == pieces[interval]
    ends = np.where(lands, targets[interval], edges[interval] + index * (widths / pieces)[interval])
    return ends, lands


def _step_matrices(gens_t, coupling, starts, h):
    """Transposed step matrices S^T and 5th/3rd-order error matrices of the
    steps [starts, starts + h]; ``gens_t`` is [G0^T, G1^T] side by side."""
    m, n = h.size, gens_t.shape[0]
    eye = np.eye(n)
    weights = coupling(starts[:, None] + h[:, None] * _hi.C)
    kt = np.empty((_hi.N_STAGES, m, n, n), gens_t.dtype)
    for i in range(_hi.N_STAGES):
        mt = eye + h[:, None, None] * np.tensordot(_hi.A[i, :i], kt[:i], axes=1)
        both = (mt.reshape(m * n, n) @ gens_t).reshape(m, n, 2, n)
        kt[i] = both[:, :, 0] + weights[:, i, None, None] * both[:, :, 1]
    # the 13th error weight, on the step-end derivative, is zero
    return (
        eye + h[:, None, None] * np.tensordot(_hi.B, kt, axes=1),
        np.tensordot(_hi.E5[:-1], kt, axes=1),
        np.tensordot(_hi.E3[:-1], kt, axes=1),
    )


def _error_norms(ys, e5t, e3t, h, rtol, atol):
    """Combined 5th/3rd-order error norm of each step of the chain ``ys``,
    over the real components (a complex entry counts as two)."""
    def real(z):
        return z.view(np.float64)

    scale = atol + rtol * np.maximum(np.abs(real(ys[:-1])), np.abs(real(ys[1:])))
    err5_sq = ((real(np.einsum("mi,mij->mj", ys[:-1], e5t)) / scale) ** 2).sum(axis=1)
    err3_sq = ((real(np.einsum("mi,mij->mj", ys[:-1], e3t)) / scale) ** 2).sum(axis=1)
    # a zero estimate is a zero norm; a NaN one stays NaN
    denom = np.maximum(err5_sq + 0.01 * err3_sq, np.finfo(float).tiny)
    # no step is more accurate than the rounding of its result, so a
    # tolerance finer than float64 resolves fails every step
    rounding = np.sqrt(((np.finfo(float).eps * real(ys[1:]) / scale) ** 2).mean(axis=1))
    return np.maximum(h * err5_sq / np.sqrt(denom * scale.shape[1]), rounding)


def integrate(
    g0,
    g1,
    coupling: Callable,
    y0,
    t0: float,
    sample_times: Sequence[float],
    *,
    rtol: float,
    atol: float,
) -> Trajectory:
    """Integrate ``dy/dt = (g0 + coupling(t) g1) y`` from ``t0`` to the last
    of ``sample_times`` and record the state at each of them.

    Parameters
    ----------
    g0, g1 : (n, n) array_like
        Real or complex generators.
    coupling : callable
        Real coupling c(t), applied elementwise to an array of times.
    y0 : (n,) array_like
        State at ``t0``, real or complex.
    sample_times : sequence of float
        Strictly increasing times, none before ``t0``.
    rtol, atol : float
        Relative and absolute tolerance of the local error per step.

    Raises
    ------
    StepUnderflow
        When the step bound falls below ``STEP_FLOOR``; a generator
        with a NaN entry fails every error test and ends here too.
    MaxStepsExceeded
        When more than ``MAX_STEPS`` accepted steps would be needed.
    """
    if not (rtol > 0.0 and atol > 0.0):
        raise ValueError("tolerances must be positive")
    samples = np.atleast_1d(np.asarray(sample_times, dtype=float))
    if samples.size == 0 or np.any(np.diff(samples) <= 0.0):
        raise ValueError("sample_times must be non-empty and strictly increasing")
    if samples[0] < t0:
        raise ValueError("sample_times must not precede t0")

    y0 = np.atleast_1d(y0)
    dtype = np.result_type(g0, g1, y0, 1.0)
    gens_t = np.vstack([g0, g1]).T.astype(dtype)
    states = np.empty((samples.size, y0.size), dtype)
    done = int(np.searchsorted(samples, t0, side="right"))
    states[:done] = y0
    t, y, bound, stats = float(t0), y0.astype(dtype), np.inf, StepStats()

    while done < samples.size:
        ends, lands = _plan(t, samples[done:done + CHUNK], bound)
        edges = np.append(t, ends)
        h = np.diff(edges)
        # states past the first failed test are discarded, so an overflow
        # there is no failure; an overflowing step fails its own test
        with np.errstate(over="ignore", invalid="ignore"):
            step_t, e5t, e3t = _step_matrices(gens_t, coupling, edges[:-1], h)
            chain = [y]
            for step in step_t:
                chain.append(np.dot(chain[-1], step))
            ys = np.array(chain)
            err = _error_norms(ys, e5t, e3t, h, rtol, atol)

        passed = err <= 1.0
        n_ok = h.size if passed.all() else int(np.argmin(passed))
        tested = slice(0, n_ok + 1)
        factor = _SAFETY * np.maximum(err[tested], 1e-10) ** -_EXPONENT
        # fmax shrinks a NaN norm (NaN factor) by the largest factor
        factor = np.minimum(np.fmax(factor, _MAX_SHRINK), _MAX_GROWTH)
        bound = float((h[tested] * factor).min())
        stats.accepted += n_ok
        stats.rejected += int(n_ok < h.size)
        kept = np.flatnonzero(lands[:n_ok])
        states[done:done + kept.size] = ys[kept + 1]
        done += kept.size
        t, y = float(edges[n_ok]), ys[n_ok]

        if stats.accepted > MAX_STEPS:
            raise MaxStepsExceeded(f"exceeded {MAX_STEPS} accepted steps at t={t:.6e}")
        # below the floor, or below the resolution of the time variable
        # itself, a step can no longer advance the solution honestly
        floor = max(STEP_FLOOR, 4.0 * np.finfo(float).eps * abs(t))
        if done < samples.size and not bound >= floor:
            raise StepUnderflow(f"step {bound:.3e} below floor {floor:.3e} at t={t:.6e}")

    return Trajectory(times=samples, states=states, step_stats=stats)
