"""Propagation of linear systems dy/dt = (G0 + Omega cos(w t) G1) y, whose
generator repeats with the drive's period T = 2 pi / w.

One period is cut into M equal steps of length h.  Each step propagator
is the exponential of the fourth-order Magnus exponent at the two
Gauss-Legendre nodes t1 < t2 of the step (Blanes, Casas, Oteo & Ros,
Phys. Rep. 470, 151 (2009), section 4).  With A_i = G0 + f_i G1 and
f_i = Omega cos(w t_i), the commutator [A2, A1] is (f1 - f2) C with
C = [G0, G1], so the exponent is

    h G0 + (h/2) (f1 + f2) G1 + (sqrt(3)/12) h^2 (f1 - f2) C,

three scalars per step.  The prefix products of the step propagators
carry a state from the start of a period to every grid phase; the last
of them, the monodromy matrix, advances one whole period, so the state
at each period start is a power of it applied to y0 (Floquet: Grifoni &
Hanggi, Phys. Rep. 304, 229 (1998)).  A sample between grid phases takes
one partial Magnus step, forward or back, from the nearest grid phase.

Complex states are carried as real rows of interleaved (re, im) pairs,
and each generator as the real matrix of its action on them.  A step
propagator is the Taylor series of its exponent; a partial step is the
Taylor series applied to the state, through the fixed products with G0,
G1 and C, so no matrix is built per sample.  Every power of a generator
whose columns sum against a fixed vector to zero does so too, so the
truncated series keeps such a conserved sum (the Bloch trace).  A
sample within the rounding of its own time of a grid phase takes no
partial step.  Partial steps run in blocks of _BLOCK samples, each block
summing its own series.

M doubles from M_START until the M- and 2M-step states agree within
atol + rtol |y| in every real component, at every sample and at the
start of every period through the end of the last one the samples
reach; the 2M-step samples are returned.  (Near t = 0 both grids reach
a sample with one step of the same length, so only the period ends
check that step.)  Once the steps are fine, a doubling divides the disagreement by about
2^4 = 16; a disagreement over a quarter of the larger of the two before
it means that rounding rules and the tolerance is out of reach.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .. import NumericalFailure, check, positive
from .axes import checked_times


class NotConverged(NumericalFailure):
    """The propagator could not meet its tolerances, or an
    eigen-decomposition failed or missed its residual bound."""


#: Steps of the first grid over one period.
M_START = 24

#: Budget of one integration: steps per period times periods spanned.
MAX_STEPS = 2**19

#: Samples whose prefix matrices are gathered, or whose partial steps are
#: taken, at once: bounds the memory, and keeps each product small enough
#: that a multithreaded BLAS runs it on one thread.
_BLOCK = 256

_NODES = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0
_COMMUTATOR_WEIGHT = math.sqrt(3.0) / 12.0
# partial steps shorter than this many times a sample's time are rounding
_ON_GRID = 4.0 * np.finfo(float).eps


@dataclass
class StepStats:
    """Magnus steps per period of the returned grid, and the coarser
    grids computed and discarded before it."""

    accepted: int = 0
    rejected: int = 0


@dataclass
class Trajectory:
    """Sampled solution: ``states[i]`` is the state at ``times[i]``."""

    times: np.ndarray
    states: np.ndarray
    step_stats: StepStats = field(default_factory=StepStats)


def _real(x):
    """The real matrix of right multiplication by the complex ``x`` on
    rows of interleaved (re, im) pairs."""
    return np.kron(x.real, np.eye(2)) + np.kron(x.imag, [[0.0, 1.0], [-1.0, 0.0]])


def _exp(x, times_exponent):
    """x exp(E) as the Taylor series x + x E + x E^2 / 2 + ..., where
    ``times_exponent(y)`` is y E; summed until a term no longer moves the
    sum (an overflowed or NaN term stops it too)."""
    total, term = x.copy(), x
    tiny = np.finfo(float).eps * np.abs(x).max()
    for k in itertools.count(1):
        term = times_exponent(term)
        term /= k
        total += term
        if not tiny < max(term.max(), -term.min()) < np.inf:
            return total


def _exponents(rabi, omega, start, length):
    """Coefficients of G0, G1 and C in the Magnus exponent of the steps
    of ``length`` from the phases ``start``, one row per step."""
    f1, f2 = rabi * np.cos(omega * (start[:, None] + _NODES * length[:, None])).T
    return np.stack([length, 0.5 * length * (f1 + f2),
                     _COMMUTATOR_WEIGHT * length**2 * (f1 - f2)], axis=1)


def _prefix(gens, rabi, omega, grid):
    """prefix[j], the real matrix that carries a row from a period start
    to ``grid[j]``: the products of the steps between grid phases."""
    h = grid[1]
    coeffs = _exponents(rabi, omega, grid - h, np.full(grid.size, h))
    coeffs[0] = 0.0  # the empty product
    exponents = np.tensordot(coeffs, gens, axes=1)
    prefix = _exp(np.broadcast_to(np.eye(gens.shape[1]), exponents.shape),
                  lambda y: y @ exponents)
    span = 1
    while span < grid.size:
        prefix[span:] = prefix[:-span] @ prefix[span:]
        span *= 2
    return prefix


def _states(m, gens, rabi, omega, y0, samples, period_index, phase):
    """The states at ``samples`` (in period ``period_index`` at ``phase``)
    on the grid of ``m`` steps per period, then at the start of every
    period through the end of the last one they reach, as real rows."""
    w = y0.size
    h = 2.0 * math.pi / omega / m
    grid = h * np.arange(m + 1)
    prefix = _prefix(gens, rabi, omega, grid)
    starts, power = y0[None], prefix[m]
    n_starts = period_index[-1] + 2
    while len(starts) < n_starts:
        starts = np.concatenate([starts, starts @ power])
        power = power @ power
    j = np.clip(np.rint(phase / h), 0, m).astype(int)
    states = np.empty((samples.size + n_starts, y0.size))
    at_grid = states[:samples.size, None]
    for lo in range(0, samples.size, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        np.matmul(starts[period_index[block], None], prefix[j[block]], out=at_grid[block])
    states[samples.size:] = starts[:n_starts]
    tau = phase - grid[j]
    off = np.flatnonzero(np.abs(tau) > _ON_GRID * samples)
    stacked = gens.reshape(-1, w)
    for lo in range(0, off.size, _BLOCK):
        block = off[lo:lo + _BLOCK]
        coeffs = _exponents(rabi, omega, grid[j[block]], tau[block])
        states[block] = _exp(states[block], lambda y: (
            coeffs[:, :, None] * y[:, None]).reshape(len(y), -1) @ stacked)
    return states


def _disagreement(fine, coarse, rtol, atol):
    """max |fine - coarse| / (atol + rtol |fine|), in place to keep the
    memory of a long record down."""
    diff = np.subtract(fine, coarse)
    np.abs(diff, out=diff)
    scale = np.abs(fine)
    scale *= rtol
    scale += atol
    diff /= scale
    return diff.max()


def integrate(
    g0,
    g1,
    rabi: float,
    omega: float,
    y0,
    sample_times: Sequence[float],
    *,
    rtol: float,
    atol: float,
) -> Trajectory:
    """Propagate ``dy/dt = (g0 + rabi cos(omega t) g1) y`` from ``y0`` at
    t = 0 and record the state at each of ``sample_times``.

    Parameters
    ----------
    g0, g1 : (n, n) array_like
        Real or complex generators.
    rabi, omega : float
        Amplitude and angular frequency (> 0) of the coupling.
    y0 : (n,) array_like
        Finite state at t = 0, real or complex.
    sample_times : sequence of float
        Finite, strictly increasing times, none before 0.  The returned
        states are complex.
    rtol, atol : float
        Relative and absolute tolerance of the agreement between the
        states of two grids, the second twice as fine.

    Raises
    ------
    NotConverged
        When the next grid would take more than ``MAX_STEPS`` steps
        per period times periods, or the disagreement stops falling;
        no partial trajectory is returned.
    """
    check(rtol, positive, "rtol must be finite and > 0")
    check(atol, positive, "atol must be finite and > 0")
    check(omega, positive, "omega must be finite and > 0")
    check(y0, np.isfinite, "y0 must be finite")
    samples = checked_times(sample_times)

    g0, g1 = np.asarray(g0, complex), np.asarray(g1, complex)
    gens = np.array([_real(g.T) for g in (g0, g1, g0 @ g1 - g1 @ g0)])
    y0 = np.ascontiguousarray(y0, complex).ravel().view(np.float64)
    period = 2.0 * math.pi / omega
    period_index = np.floor(samples / period).astype(int)
    n_periods = int(period_index[-1]) + 1
    phase = samples - period * period_index

    m, disagreements = M_START, []
    with np.errstate(over="ignore", invalid="ignore"):
        coarse = _states(m, gens, rabi, omega, y0, samples, period_index, phase)
        while True:
            m *= 2
            if m * n_periods > MAX_STEPS:
                raise NotConverged(f"{m} steps per period over {n_periods} periods "
                                   f"exceed the budget of {MAX_STEPS} steps")
            fine = _states(m, gens, rabi, omega, y0, samples, period_index, phase)
            ratio = _disagreement(fine, coarse, rtol, atol)
            if ratio <= 1.0:
                states = np.ascontiguousarray(fine[:samples.size]).view(complex)
                stats = StepStats(accepted=m, rejected=len(disagreements) + 1)
                return Trajectory(samples, states, stats)
            disagreements.append(ratio)
            if len(disagreements) > 2 and not ratio < 0.25 * max(disagreements[-3:-1]):
                raise NotConverged(f"doubling to {m} steps per period left the disagreement "
                                   f"at {ratio:.3g} tolerances, over a quarter of the "
                                   f"larger of the two before")
            coarse = fine
