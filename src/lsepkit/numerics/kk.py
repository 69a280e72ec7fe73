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

MIN_POINTS = 16


class GridTooCoarse(ValueError):
    """Fewer grid points than the quadrature can support."""


def _pv_on_uniform(omega, im_part):
    """Transform on each node of a uniform ascending grid (asymptote 0)."""
    n = omega.size
    h = omega[1] - omega[0]
    g = omega * im_part  # numerator samples w' * im(w')
    # Slope of im on the grid (central differences, one-sided at ends).
    dim = np.gradient(im_part, h)
    out = np.empty(n)

    for k in range(n):
        wk = omega[k]
        lo, hi = k - 1, k + 1  # kept region is [0, lo] and [hi, n-1]

        kernel = np.zeros(n)
        if lo >= 1:
            kernel[: lo + 1] = g[: lo + 1] / (omega[: lo + 1] ** 2 - wk**2)
        elif lo == 0:
            kernel[0] = g[0] / (omega[0] ** 2 - wk**2)
        if hi <= n - 1:
            kernel[hi:] = g[hi:] / (omega[hi:] ** 2 - wk**2)

        integral = 0.0
        if lo >= 1:
            seg = kernel[: lo + 1]
            integral += h * (np.sum(seg) - 0.5 * (seg[0] + seg[-1]))
        if hi <= n - 2:
            seg = kernel[hi:]
            integral += h * (np.sum(seg) - 0.5 * (seg[0] + seg[-1]))

        # Analytic principal value over the excluded window, with
        # im locally linear: near the pole the integrand is F(u)/u,
        # F(u) = (wk + u) im(wk + u) / (2 wk + u), and
        # PV int_{-h}^{h} F(u)/u du = 2 h F'(0) + O(h^3).
        fprime = 0.25 * im_part[k] / wk + 0.5 * dim[k]
        if 0 < k < n - 1:
            correction = 2.0 * h * fprime
        else:
            # One-sided half window at a band edge; the log-divergent
            # piece carries a factor im(edge), negligible for a band
            # whose absorption vanishes at the edges.
            correction = h * fprime
        out[k] = integral + correction
    return (2.0 / np.pi) * out


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
