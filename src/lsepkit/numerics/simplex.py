"""Bounded Nelder-Mead simplex search from many starting points at once.

Every start runs its own simplex, and all simplices step in lockstep, so
one objective call evaluates a batch of trial points.  Each start takes
exactly the steps of scipy.optimize.minimize(method="Nelder-Mead",
bounds=...) with the same xatol, fatol and maxiter (Lagarias et al.,
SIAM J. Optim. 9, 112 (1998)): the same initial simplex, branches,
clipping, convergence test and vertex order, in the same floating-point
operations, so x, fun, nfev and nit agree bit for bit.

The cost of an iteration is its count of numpy calls, not its arithmetic,
so the loop keeps that count low and independent of the rows.  The
simplices still running are kept compacted, one column each: the arrays
are indexed (coordinate, vertex, column), so that every reduction over
vertices runs along whole rows of columns.  A start's result is written
out only when it finishes, and the running starts share one iteration
count, since every one of them steps in each iteration.  On a sorted
simplex, the largest |f0 - fk| that scipy tests is f_last - f0, which
rounds to the same number, so the value spread is tested first and the
coordinate spread only where the value spread passes.  The argsort is
the one scipy calls: its ties, and its NaN last, fall the same way.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Weights of the centroid (first row) and of the worst vertex (second row)
# in the expansion, outside-contraction and inside-contraction points:
# reflection rho = 1, expansion chi = 2, contraction psi = 0.5, as in
# scipy's non-adaptive Nelder-Mead.
_TRIAL_WEIGHTS = np.array([[3.0, 1.5, 0.5], [-2.0, -0.5, 0.5]])
_EXPAND, _OUTSIDE, _INSIDE, _ACCEPT = range(4)
# scipy's step from whether f(x_r) lies below the best, the second worst
# and the worst value (bits 4, 2 and 1), in scipy's order of tests: expand
# below the best, else accept below the second worst, else contract outside
# below the worst, else inside
_STEP_OF_BELOW = np.array([_INSIDE, _OUTSIDE, _ACCEPT, _ACCEPT] + [_EXPAND] * 4)


class SimplexResult(NamedTuple):
    """Per start: best vertex, its value, evaluations and iterations.
    ``success`` is False where the search stopped at maxiter."""

    x: np.ndarray
    fun: np.ndarray
    nfev: np.ndarray
    nit: np.ndarray
    success: np.ndarray


def _sort_simplices(sim, fsim):
    """Each column's vertices in ascending order of value: sim[c, v, i] is
    coordinate c of vertex v of column i, fsim[v, i] its value.  Ties fall
    as in scipy, whose 1-D argsort is the same sort as a column of this
    one."""
    count = fsim.shape[1]
    at = fsim.argsort(axis=0) * count + np.arange(count)
    return sim.reshape(len(sim), -1).take(at, axis=1), fsim.take(at)


def nelder_mead(objective, x0, lower, upper, *, xatol, fatol, maxiter) -> SimplexResult:
    """Bounded Nelder-Mead from every row of x0 at once.

    ``objective(points, rows)`` evaluates row ``rows[i]``'s function at
    ``points[i]``; each iteration makes at most three calls for all rows.
    A row stops when its simplex spans at most xatol in every coordinate
    and fatol in value, or when it reaches maxiter iterations.
    """
    count, dim = x0.shape
    x0 = np.clip(x0, lower, upper)
    sim = np.repeat(x0[:, None, :], dim + 1, axis=1)
    for k in range(dim):
        coord = sim[:, k + 1, k]
        sim[:, k + 1, k] = np.where(coord != 0, (1 + 0.05) * coord, 0.00025)
    # a vertex pushed past the upper bound is reflected into the interior
    sim = np.clip(np.where(sim > upper, 2 * upper - sim, sim), lower, upper)
    rows = np.arange(count)
    fsim = objective(sim.reshape(-1, dim), rows.repeat(dim + 1)).reshape(count, dim + 1)
    # from here on one column per running start, indexed as in _sort_simplices
    sim, fsim = _sort_simplices(*_sort_simplices(sim.T, fsim.T))  # scipy sorts twice
    lower, upper = lower[:, None], upper[:, None]

    x, fun = np.empty((count, dim)), np.empty(count)
    nfev, nit = np.empty(count, dtype=int), np.empty(count, dtype=int)
    # evaluations beyond the initial simplex and one reflection per iteration
    extra = np.zeros(count, dtype=int)
    # the bits of the best, second worst and worst vertex; at dim = 1 the
    # best is the second worst and takes both
    below_bits = np.zeros(dim + 1, dtype=int)
    np.add.at(below_bits, [0, dim - 1, dim], [4, 2, 1])
    iteration = 1

    def finish(done):
        out = rows[done]
        x[out], fun[out] = sim[:, 0, done].T, np.minimum.reduce(fsim[:, done])
        nfev[out], nit[out] = dim + iteration + extra[done], iteration

    while iteration < maxiter:
        done = fsim[-1] - fsim[0] <= fatol
        if np.count_nonzero(done):
            spread = sim[:, 1:] - sim[:, :1]
            done &= np.maximum.reduce(np.abs(spread, out=spread), axis=(0, 1)) <= xatol
            if np.count_nonzero(done):
                finish(done)
                keep = ~done
                sim, fsim = sim.compress(keep, axis=2), fsim.compress(keep, axis=1)
                rows, extra = rows[keep], extra[keep]
                if not rows.size:
                    break
        centroid = np.add.reduce(sim[:, :-1], axis=1) / dim
        worst = sim[:, -1]
        x_r = (2 * centroid - worst).clip(lower, upper)
        f_r = objective(x_r.T, rows)

        step = _STEP_OF_BELOW.take(below_bits @ (f_r < fsim))
        trying = step != _ACCEPT
        tried = trying.nonzero()[0]
        kind = step.take(tried)
        weights = _TRIAL_WEIGHTS.take(kind, axis=1)
        x_t = weights[0] * centroid.take(tried, axis=1) + weights[1] * worst.take(tried, axis=1)
        f_t = objective(x_t.clip(lower, upper, out=x_t).T, rows.take(tried))
        extra += trying
        # expand if below f(x_r), contract outside if not above it, inside
        # if below the worst value
        bar = np.where(kind == _INSIDE, fsim[-1].take(tried), f_r.take(tried))
        accept = np.where(kind == _OUTSIDE, f_t <= bar, f_t < bar)
        won = tried[accept]
        x_r[:, won], f_r[won] = x_t.compress(accept, axis=1), f_t[accept]

        shrink = tried[(kind != _EXPAND) & ~accept]
        if shrink.size:
            best = sim[:, :1, shrink]
            moved = (best + 0.5 * (sim[:, 1:, shrink] - best)).clip(lower[:, None], upper[:, None])
        sim[:, -1], fsim[-1] = x_r, f_r
        if shrink.size:
            sim[:, 1:, shrink] = moved
            fsim[1:, shrink] = objective(
                moved.reshape(dim, -1).T, np.tile(rows[shrink], dim)
            ).reshape(dim, -1)
            extra[shrink] += dim

        iteration += 1
        sim, fsim = _sort_simplices(sim, fsim)
    finish(slice(None))
    return SimplexResult(x, fun, nfev, nit, nit < maxiter)
