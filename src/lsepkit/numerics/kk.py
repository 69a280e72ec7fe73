"""Principal-value Kramers-Kronig transform on band-limited data.

Reconstructs the real part of a response function from its imaginary part
sampled on a finite frequency band:

    re(w) = asymptote + (2/pi) PV integral w' im(w') / (w'^2 - w^2) dw'

The quadrature is trapezoidal with the cells around the pole excluded and
replaced by the analytic principal value of a locally linear integrand,
which keeps the scheme O(h^2) through the pole.  Band truncation assumes
im -> 0 toward the band edges, the usual situation for an isolated
absorption band.  Nonuniform grids are resampled internally.
"""

from __future__ import annotations

import numpy as np

from .. import check

MIN_POINTS = 16
# Kernel rows built at once: a few (BLOCK_ROWS, n) arrays are alive,
# never an (n, n) one.
BLOCK_ROWS = 64


class GridTooCoarse(ValueError):
    """Fewer grid points than the quadrature can support."""


def _pv_on_uniform(omega, im_part):
    """Transform on each node of a uniform ascending grid (asymptote 0)."""
    n = omega.size
    h = omega[1] - omega[0]
    g = omega * im_part  # numerator samples w' * im(w')
    # Slope of im on the grid (central differences, one-sided at ends).
    dim = np.gradient(im_part, h)
    j = np.arange(n)
    integral = np.empty(n)
    for start in range(0, n, BLOCK_ROWS):
        k = j[start : start + BLOCK_ROWS, None]
        # Trapezoid weights of the kept regions [0, k-1] and [k+1, n-1]:
        # segment ends take half, so a one-point segment weighs zero.
        weights = 1.0 - 0.5 * sum(j == end for end in (0, k - 1, k + 1, n - 1))
        pole = j == k
        kernel = np.divide(g, omega**2 - omega[k] ** 2, where=~pole, out=np.zeros(pole.shape))
        integral[start : start + BLOCK_ROWS] = h * np.sum(kernel * weights, axis=1)

    # Analytic principal value over the excluded window, with im locally
    # linear: near the pole the integrand is F(u)/u,
    # F(u) = (wk + u) im(wk + u) / (2 wk + u), and
    # PV int_{-h}^{h} F(u)/u du = 2 h F'(0) + O(h^3).  A band edge has a
    # one-sided half window; the log-divergent piece there carries a
    # factor im(edge), negligible for a band whose absorption vanishes at
    # the edges.
    fprime = 0.25 * im_part / omega + 0.5 * dim
    window = np.full(n, 2.0 * h)
    window[[0, -1]] = h
    return (2.0 / np.pi) * (integral + window * fprime)


def kramers_kronig_real(omega_grid, imag_part, asymptote: float = 0.0):
    """Real part of a response function from its imaginary part.

    Parameters
    ----------
    omega_grid : (n,) array_like
        Strictly ascending positive angular frequencies (rad/s).
    imag_part : (n,) array_like
        Imaginary part sampled on ``omega_grid``.
    asymptote : float
        High-frequency limit added to the transform (e.g. a background
        refractive index from resonances outside the band).

    Raises
    ------
    GridTooCoarse
        If fewer than ``MIN_POINTS`` samples are supplied.
    """
    omega = np.asarray(omega_grid, dtype=float)
    im_part = np.asarray(imag_part, dtype=float)
    if omega.ndim != 1 or omega.shape != im_part.shape:
        raise ValueError("omega_grid and imag_part must be matching 1-d arrays")
    check(omega, np.isfinite, "omega_grid must be finite")
    check(im_part, np.isfinite, "imag_part must be finite")
    if omega.size < MIN_POINTS:
        raise GridTooCoarse(f"need at least {MIN_POINTS} points, got {omega.size}")
    if np.any(np.diff(omega) <= 0.0) or omega[0] <= 0.0:
        raise ValueError("omega_grid must be strictly ascending and positive")

    steps = np.diff(omega)
    if np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        return asymptote + _pv_on_uniform(omega, im_part)

    dense = np.linspace(omega[0], omega[-1], max(omega.size, 512))
    im_dense = np.interp(dense, omega, im_part)
    re_dense = _pv_on_uniform(dense, im_dense)
    return asymptote + np.interp(omega, dense, re_dense)
