"""Bounded Nelder-Mead simplex search from many starting points at once.

Every start runs its own simplex, and all simplices step in lockstep, so
one objective call evaluates a batch of trial points.  Each start takes
exactly the steps of scipy.optimize.minimize(method="Nelder-Mead",
bounds=...) with the same xatol, fatol and maxiter (Lagarias et al.,
SIAM J. Optim. 9, 112 (1998)): the same initial simplex, branches,
clipping, convergence test and vertex order, in the same floating-point
operations, so x, fun, nfev and nit agree bit for bit.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Weights of (centroid, worst vertex) in the expansion, outside-contraction
# and inside-contraction points: reflection rho = 1, expansion chi = 2,
# contraction psi = 0.5, as in scipy's non-adaptive Nelder-Mead.
_TRIAL_WEIGHTS = np.array([[3.0, -2.0], [1.5, -0.5], [0.5, 0.5]])


class SimplexResult(NamedTuple):
    """Per start: best vertex, its value, evaluations and iterations.
    ``success`` is False where the search stopped at maxiter."""

    x: np.ndarray
    fun: np.ndarray
    nfev: np.ndarray
    nit: np.ndarray
    success: np.ndarray


def _sort_simplices(sim, fsim):
    """Each simplex's vertices in ascending order of value; ties fall as in
    scipy, whose 1-D argsort is the same sort as a row of this one."""
    order = np.argsort(fsim, axis=1)
    return (
        np.take_along_axis(sim, order[:, :, None], axis=1),
        np.take_along_axis(fsim, order, axis=1),
    )


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
    everyone = np.arange(count)
    fsim = objective(sim.reshape(-1, dim), everyone.repeat(dim + 1)).reshape(count, dim + 1)
    nfev = np.full(count, dim + 1)
    nit = np.ones(count, dtype=int)
    sim, fsim = _sort_simplices(*_sort_simplices(sim, fsim))  # scipy sorts twice

    live = everyone[nit < maxiter]
    while live.size:
        s, fs = sim[live], fsim[live]
        converged = (np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) <= xatol) & (
            np.abs(fs[:, :1] - fs[:, 1:]).max(axis=1) <= fatol
        )
        live, s, fs = live[~converged], s[~converged], fs[~converged]
        if not live.size:
            break
        centroid = np.add.reduce(s[:, :-1], axis=1) / dim
        worst = s[:, -1]
        x_r = np.clip(2 * centroid - worst, lower, upper)
        f_r = objective(x_r, live)
        nfev[live] += 1

        # 0 expand, 1 contract outside, 2 contract inside, 3 accept x_r
        branch = np.select(
            [f_r < fs[:, 0], f_r < fs[:, -2], f_r < fs[:, -1]], [0, 3, 1], default=2
        )
        tried = np.flatnonzero(branch < 3)
        weights = _TRIAL_WEIGHTS[branch[tried]]
        x_t = np.clip(
            weights[:, :1] * centroid[tried] + weights[:, 1:] * worst[tried], lower, upper
        )
        f_t = objective(x_t, live[tried])
        nfev[live[tried]] += 1
        kind, f_rt, f_worst = branch[tried], f_r[tried], fs[tried, -1]
        take = np.where(kind == 0, f_t < f_rt, np.where(kind == 1, f_t <= f_rt, f_t < f_worst))

        x_r[tried[take]], f_r[tried[take]] = x_t[take], f_t[take]
        shrink = np.zeros(live.size, dtype=bool)
        shrink[tried] = (kind > 0) & ~take
        s[~shrink, -1], fs[~shrink, -1] = x_r[~shrink], f_r[~shrink]
        if shrink.any():
            best = s[shrink, :1]
            moved = np.clip(best + 0.5 * (s[shrink, 1:] - best), lower, upper)
            s[shrink, 1:] = moved
            fs[shrink, 1:] = objective(
                moved.reshape(-1, dim), live[shrink].repeat(dim)
            ).reshape(-1, dim)
            nfev[live[shrink]] += dim

        nit[live] += 1
        sim[live], fsim[live] = _sort_simplices(s, fs)
        live = live[nit[live] < maxiter]
    return SimplexResult(sim[:, 0], fsim.min(axis=1), nfev, nit, nit < maxiter)
