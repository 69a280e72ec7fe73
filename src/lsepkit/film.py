"""Thin-film optical constants from normal-incidence reflectance and
transmittance.

Forward model: one coherent absorbing layer between a semi-infinite
ambient and a semi-infinite transparent substrate (Airy summation of the
two-interface Fresnel amplitudes), elementwise over arrays.  Inversion:
grid search for the two lowest residual minima per wavelength, simplex
refinement, a thickness sweep with the kappa deconvolution identity,
smoothness-based rejection of the spurious solution branch, and a
dispersion-relation closure that rebuilds n from the retained kappa
curve.  Data travel as column tables: the measured spectrum (RTSpectrum)
into the inversion, the candidate roots (NkCandidates) from the
refinement to the branch choice, which returns the physical rows.

The grid search evaluates each (wavelength, thickness) map only on the
tiles of the (n, kappa) grid that can hold a seed.  Circular complex
arithmetic bounds the residual from below on every tile (Gargantini &
Henrici, Numer. Math. 18, 305 (1972); Moore, Kearfott & Cloud,
Introduction to Interval Analysis (SIAM 2009)), and tiles are evaluated
best first until every tile left is bounded above the map's threshold,
so that no skipped point can change a seed.  A tile about to be
evaluated first has its bound sharpened to the least bound of its
sub-tiles, still a bound on every point of it, and goes back unevaluated
if that lies above the threshold.  The evaluated points are computed in
the arithmetic of the full reference map (``_residual_map``), with the
Fresnel factors of a point computed once for all maps, so the seeds are
the ones that map would give.

The refinement polishes all roots at once with the package's one
simplex search, numerics.simplex.nelder_mead: a bounded Nelder-Mead run
in lockstep, in which each root takes exactly the steps of
scipy.optimize.minimize(method="Nelder-Mead") on that root alone.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import NumericalFailure, table
from .constants import EV_TO_RADS
from .numerics import kramers_kronig_real, nelder_mead

NOISE_ALLOWANCE = 0.02
FLAT_LANDSCAPE_SPAN = 1e-15
# Largest (n, kappa) grid an NkGrid may ask for, about 230 times the
# default 681 x 641: a tiny step would ask for more than fits in memory.
MAX_GRID_POINTS = 10**8
# Thickest film extract_nk inverts: 1 um, written as 1e3 nm converts to
# metres (one ulp above 1e-6), so the CLI's thickness keys meet it exactly.
MAX_THICKNESS = 1e3 * 1e-9
# The grid search works on tiles of the (n, kappa) grid.  It bounds the
# residual from below on coarse tiles of every map, splits the coarse
# tiles it cannot rule out into fine tiles, and evaluates fine tiles only.
_FINE = 8
_COARSE = 4 * _FINE
# Outward slack of every tile bound, far above the rounding of the bound
# and of the maps it bounds (about 1e-15).
_BOUND_SLACK = 1e-9
# Map values per vectorized call, and tile bounds per call (a bound takes
# about twice the temporaries of a value), so that the temporaries of a
# call stay in the processor's cache.
_VALUES_PER_CALL = 1 << 14
_BOUNDS_PER_CALL = 1 << 13
_HALO = np.arange(-1, _FINE + 1)
# Sides of the sub-tiles that sharpen a fine tile's bound, in turn, before
# the tile is evaluated.
_SUB_TILES = (4, 2)


class NoMinimumFound(NumericalFailure):
    """Residual landscape has no interior minimum to refine."""


class BranchAmbiguous(NumericalFailure):
    """Smoothness criterion cannot separate the two solution branches."""


@dataclass(frozen=True)
class RTSpectrum:
    """Measured normal-incidence R and T as float columns: row i is the
    sample at wavelength[i] (m)."""

    wavelength: np.ndarray
    reflectance: np.ndarray
    transmittance: np.ndarray

    def __post_init__(self):
        columns = [np.asarray(getattr(self, f.name), dtype=float) for f in fields(self)]
        if columns[0].ndim != 1 or len({c.shape for c in columns}) > 1:
            raise ValueError("the R/T columns must be matching 1-d arrays")
        for f, column in zip(fields(self), columns):
            object.__setattr__(self, f.name, column)
        fault = _first_fault(*columns)
        if fault is not None:
            raise ValueError("row %d: %s" % fault)


def _first_fault(wavelength, reflectance, transmittance):
    """(row, fault) of the first row that is not a measurement, or None."""
    total = reflectance + transmittance
    bad = ~np.stack([_positive(wavelength), (0.0 <= reflectance) & (reflectance <= 1.0),
                     (0.0 <= transmittance) & (transmittance <= 1.0),
                     ~(total > 1.0 + NOISE_ALLOWANCE)])
    if not bad.any():
        return None
    row = int(np.argmax(bad.any(axis=0)))
    w, r, t, s = (float(column[row]) for column in (wavelength, reflectance, transmittance, total))
    return row, [
        f"wavelength must be finite and > 0, got {w}",
        f"reflectance must lie in [0, 1], got {r}",
        f"transmittance must lie in [0, 1], got {t}",
        f"R + T = {s:.4f} exceeds 1 + {NOISE_ALLOWANCE} noise allowance",
    ][int(np.argmax(bad[:, row]))]


def _positive(values):
    return (0.0 < values) & (values < math.inf)


class NkCandidates(NamedTuple):
    """Candidate roots as columns: row i is one residual minimum, a
    candidate (n, kappa) at wavelength[i] for a film of thickness[i]."""

    wavelength: np.ndarray
    n: np.ndarray
    kappa: np.ndarray
    residual: np.ndarray
    thickness: np.ndarray

    def take(self, rows) -> NkCandidates:
        """The table of the given rows (indices or a mask)."""
        return NkCandidates(*(column[rows] for column in self))


@dataclass(frozen=True)
class NkGrid:
    """Search window and resolution for the residual grid scan.

    The default window reaches below n = 1: films with a strong
    absorption band go anomalously dispersive on the high-energy side
    and the real index can drop well under unity there.
    """

    n_min: float = 0.1
    n_max: float = 3.5
    n_step: float = 0.005
    kappa_min: float = 0.0
    kappa_max: float = 3.2
    kappa_step: float = 0.005

    def __post_init__(self):
        values = (self.n_max, self.n_step, self.kappa_min, self.kappa_max, self.kappa_step)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"grid bounds and steps must be finite, got {values}")
        # the Fresnel poles nf = -n0 and nf = -ns stay off the grid (and off
        # the tile discs of the grid search)
        if not 0.0 < self.n_min < math.inf:
            raise ValueError(f"n_min must be finite and > 0, got {self.n_min}")
        if self.n_min >= self.n_max or self.kappa_min >= self.kappa_max:
            raise ValueError("grid bounds must be ordered")
        if self.n_step <= 0.0 or self.kappa_step <= 0.0:
            raise ValueError("grid steps must be > 0")
        points = ((self.n_max - self.n_min) / self.n_step + 1.0) * (
            (self.kappa_max - self.kappa_min) / self.kappa_step + 1.0
        )
        if not points <= MAX_GRID_POINTS:
            raise ValueError(
                f"n_step = {self.n_step:g} and kappa_step = {self.kappa_step:g} ask for "
                f"{points:.3g} grid points, more than {MAX_GRID_POINTS:.0e}"
            )
        if self.kappa_min < 0.0:
            raise ValueError("kappa grid must be non-negative")

    @property
    def n_values(self) -> np.ndarray:
        count = int(round((self.n_max - self.n_min) / self.n_step)) + 1
        return self.n_min + self.n_step * np.arange(count)

    @property
    def kappa_values(self) -> np.ndarray:
        count = int(round((self.kappa_max - self.kappa_min) / self.kappa_step)) + 1
        return self.kappa_min + self.kappa_step * np.arange(count)


def _interfaces(index_film, ambient_index, substrate_index, multiply=operator.mul):
    """Fresnel amplitudes r1, r2 and t1*t2 of the two film interfaces."""
    n0, ns, nf = ambient_index, substrate_index, index_film
    r1 = (n0 - nf) / (n0 + nf)
    r2 = (nf - ns) / (nf + ns)
    t1 = 2.0 * n0 / (n0 + nf)
    t2 = 2.0 * nf / (nf + ns)
    return r1, r2, multiply(t1, t2)


def _amplitudes(index_film, thickness, wavelength, ambient_index, substrate_index,
                interfaces=None):
    """Airy reflection and transmission amplitudes, elementwise over arrays
    of film index, thickness and wavelength, rounded as numpy's array loops
    round (see _rt).  ``interfaces`` are the _interfaces of the film index
    if already computed, which are the same at any array size."""
    nf = np.asarray(index_film, dtype=complex)
    r1, r2, t12 = interfaces or _interfaces(nf, ambient_index, substrate_index)
    phase = np.exp(2j * np.pi * nf * thickness / wavelength)
    denom = 1.0 + r1 * r2 * phase**2
    # phase**2 * r2, not r2 * phase**2: an array loop's complex product
    # rounds differently with its operands swapped, and numpy swaps them
    # itself when it reuses the phase**2 temporary in place, which it does
    # for arrays of 256 KiB and more.  In this order a value does not
    # depend on the size of the array it is computed in.
    return (r1 + phase**2 * r2) / denom, t12 * phase / denom


# Every bit of a residual steers the simplex: rounded as numpy's array
# loops round, 89 of the 606 refined roots of the packaged fixture move,
# by up to 6.7e-8.  So _rt rounds as numpy's scalar arithmetic does, the
# one-root-at-a-time form of the model.  A complex scalar product is
# (ar*br - ai*bi, ar*bi + ai*br) without fused multiply-adds, which the
# array loop may use, and a float64 scalar squares through libm pow, which
# is not x*x in the last bit: np.float_power(x, 2.0) rounds as libm pow
# does, where np.power with an array exponent and x*x do not.  Complex
# division, abs, exp, and adding or subtracting a float round alike in both.


def _cmul(a, b):
    """Complex product a*b, rounded as numpy's complex scalars round it."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _rt(index_film, thickness, wavelength, ambient_index, substrate_index):
    """R and T, elementwise over arrays of film index, thickness and
    wavelength: the forward model of rt_theoretical, residual and the
    refinement, each value as if computed alone."""
    nf = np.asarray(index_film, dtype=complex)
    r1, r2, t12 = _interfaces(nf, ambient_index, substrate_index, multiply=_cmul)
    phase = np.exp(2j * np.pi * nf * thickness / wavelength)
    phase_sq = _cmul(phase, phase)
    denom = 1.0 + _cmul(_cmul(r1, r2), phase_sq)
    r_amp = (r1 + _cmul(r2, phase_sq)) / denom
    t_amp = _cmul(t12, phase) / denom
    flux_ratio = substrate_index / ambient_index
    reflectance = np.float_power(np.abs(r_amp), 2.0)
    return reflectance, flux_ratio * np.float_power(np.abs(t_amp), 2.0)


def _misfits(index_film, thickness, wavelength, reflectance, transmittance,
             ambient_index, substrate_index):
    """|T - T_measured| + |R - R_measured|, elementwise as in _rt."""
    r_t, t_t = _rt(index_film, thickness, wavelength, ambient_index, substrate_index)
    return np.abs(t_t - transmittance) + np.abs(r_t - reflectance)


def _check(values, ok, requirement):
    """Raises ValueError naming the first of ``values`` that is not ``ok``."""
    values = np.asarray(values)
    bad = values[~ok(values)]
    if bad.size:
        raise ValueError(f"{requirement}, got {bad[0].item()}")


def _check_stack(thickness, substrate_index, ambient_index):
    """The film thicknesses and the two half-space indices."""
    _check(thickness, _positive, "thickness must be finite and > 0")
    _check([ambient_index, substrate_index], lambda v: (1.0 <= v) & (v < math.inf),
           "ambient and substrate indices must be finite and >= 1")


def rt_theoretical(film_index, thickness, wavelength, substrate_index=1.52, ambient_index=1.0):
    """Normal-incidence (R, T) of a film between two half-spaces,
    elementwise over broadcast arrays of film index, thickness and
    wavelength; each value is the one computed for it alone."""
    _check(wavelength, _positive, "wavelength must be finite and > 0")
    _check(film_index, lambda nf: np.isfinite(nf) & (nf.imag >= 0.0),
           "film index must be finite with a non-negative imaginary part")
    _check_stack(thickness, substrate_index, ambient_index)
    return _rt(film_index, thickness, wavelength, ambient_index, substrate_index)


def residual(n, kappa, thickness, spectrum: RTSpectrum, substrate_index=1.52, ambient_index=1.0):
    """|R - R_measured| + |T - T_measured| of the trial indices n + i kappa,
    elementwise over broadcast arrays of n, kappa, thickness and the rows
    of ``spectrum``."""
    _check(n, _positive, "n must be finite and > 0")
    _check(kappa, lambda k: (0.0 <= k) & (k < math.inf), "kappa must be finite and >= 0")
    _check_stack(thickness, substrate_index, ambient_index)
    return _misfits(
        np.asarray(n) + 1j * np.asarray(kappa), thickness, spectrum.wavelength,
        spectrum.reflectance, spectrum.transmittance, ambient_index, substrate_index,
    )


def _reference_surface(index_film, thickness, wavelength, reflectance, transmittance,
                       ambient_index, substrate_index, interfaces=None):
    """|T - T_measured| + |R - R_measured|, elementwise over arrays of film
    index, thickness, wavelength, R and T, rounded as the reference map
    rounds it (_amplitudes)."""
    r_amp, t_amp = _amplitudes(
        index_film, thickness, wavelength, ambient_index, substrate_index, interfaces
    )
    flux_ratio = substrate_index / ambient_index
    r_t = np.abs(r_amp) ** 2
    t_t = flux_ratio * np.abs(t_amp) ** 2
    return np.abs(t_t - transmittance) + np.abs(r_t - reflectance)


def _residual_map(grid: NkGrid, thickness, wavelength, reflectance, transmittance,
                  ambient_index, substrate_index):
    """Residual of one map over the full (n, kappa) grid in one sweep.

    The reference map: its two lowest minima (_two_lowest_minima) are the
    seeds that extract_nk finds while evaluating only part of the grid.
    """
    n_vals = grid.n_values
    k_vals = grid.kappa_values
    nf = n_vals[:, None] + 1j * k_vals[None, :]
    surface = _reference_surface(
        nf, thickness, wavelength, reflectance, transmittance, ambient_index, substrate_index
    )
    return surface, n_vals, k_vals


def _window_min(surface: np.ndarray) -> np.ndarray:
    """Minimum over each point's 3x3 window, edges replicated.

    Equal to ``scipy.ndimage.minimum_filter(surface, size=3,
    mode="nearest")``; a point is an 8-neighbour local minimum exactly
    where it equals its window minimum.
    """
    across = surface.copy()
    np.minimum(across[:, 1:], surface[:, :-1], out=across[:, 1:])
    np.minimum(across[:, :-1], surface[:, 1:], out=across[:, :-1])
    window = across.copy()
    np.minimum(window[1:], across[:-1], out=window[1:])
    np.minimum(window[:-1], across[1:], out=window[:-1])
    return window


def _two_lowest_minima(surface: np.ndarray):
    """Indices of the two lowest local minima (8-neighbor) of a surface.

    The full-grid rule that the tile search reproduces (_lowest_minima).
    """
    if np.ptp(surface) < FLAT_LANDSCAPE_SPAN:
        raise NoMinimumFound("residual landscape is flat")
    local = surface <= _window_min(surface)
    rows, cols = np.nonzero(local)
    if rows.size == 0:
        raise NoMinimumFound("no local minimum on the search grid")
    order = np.argsort(surface[rows, cols], kind="stable")[:2]
    return [(int(rows[i]), int(cols[i])) for i in order]


class _Discs(NamedTuple):
    """Per tile: the disc around its film indices, and discs (centre,
    radius) that hold the Fresnel factors over it.

    Circular complex arithmetic (Gargantini & Henrici, Numer. Math. 18,
    305 (1972)): r1, r2, t1 = 1 + r1 and t2 = 1 + r2 are Moebius maps of
    the film index, so each maps the index disc onto a disc; a sum or a
    product of discs lies in the disc of the sum or product formula.
    """

    n_mid: np.ndarray
    k_mid: np.ndarray
    radius: np.ndarray
    k_lo: np.ndarray
    k_hi: np.ndarray
    r1: np.ndarray
    r1_rad: np.ndarray
    r2: np.ndarray
    r2_rad: np.ndarray
    r12: np.ndarray
    r12_rad: np.ndarray
    r12_max: np.ndarray  # largest |r1| |r2| on the disc, < 1
    t_lo: np.ndarray  # flux |t1 t2|^2 on the disc, from below
    t_hi: np.ndarray  # and from above
    sound: np.ndarray  # the disc lies in Re(nf) > 0

    def take(self, tiles):
        """The discs of the given tiles, which index each field's last axis."""
        return _Discs(*(np.take(field, tiles, axis=-1) for field in self))


def _disc_product(a, a_rad, b, b_rad):
    return a * b, np.abs(a) * b_rad + np.abs(b) * a_rad + a_rad * b_rad


def _tile_discs(n_lo, n_hi, k_lo, k_hi, ambient_index, substrate_index) -> _Discs:
    n_mid, k_mid = 0.5 * (n_lo + n_hi), 0.5 * (k_lo + k_hi)
    radius = np.hypot(0.5 * (n_hi - n_lo), 0.5 * (k_hi - k_lo))
    # Inside Re(nf) > 0 the poles -n0 and -ns of the Fresnel factors lie
    # outside the disc, and |r1|, |r2| < 1.  A tile whose disc reaches
    # further is never ruled out.
    sound = n_mid > radius
    centre = n_mid + 1j * k_mid

    def inverse(pole):
        # 1/(nf + pole) maps the disc onto a disc
        shifted = centre + pole
        scale = np.where(sound, shifted.real**2 + shifted.imag**2 - radius**2, 1.0)
        return shifted.conjugate() / scale, radius / scale

    inv1, inv1_rad = inverse(ambient_index)
    inv2, inv2_rad = inverse(substrate_index)
    # r1 = 2 n0/(n0 + nf) - 1, r2 = 1 - 2 ns/(nf + ns)
    r1, r1_rad = 2.0 * ambient_index * inv1 - 1.0, 2.0 * ambient_index * inv1_rad
    r2, r2_rad = 1.0 - 2.0 * substrate_index * inv2, 2.0 * substrate_index * inv2_rad
    r12, r12_rad = _disc_product(r1, r1_rad, r2, r2_rad)
    t12, t12_rad = _disc_product(1.0 + r1, r1_rad, 1.0 + r2, r2_rad)
    t12_abs = np.abs(t12)
    flux = substrate_index / ambient_index
    return _Discs(
        n_mid, k_mid, radius, k_lo, k_hi, r1, r1_rad, r2, r2_rad, r12, r12_rad,
        np.where(sound, (np.abs(r1) + r1_rad) * (np.abs(r2) + r2_rad), 0.0),
        flux * np.maximum(t12_abs - t12_rad, 0.0) ** 2,
        flux * (t12_abs + t12_rad) ** 2,
        sound,
    )


def _lower_bounds(discs: _Discs, k0d, reflectance, transmittance):
    """A lower bound on |R - R_measured| + |T - T_measured| over each
    tile, for maps of the given k0*d (2 pi d / lambda), R and T.

    The phase P = exp(2i k0 d nf) lies in a disc of radius
    |P_c| (exp(2 k0 d rho) - 1) around its value P_c at the disc centre,
    as |exp(z) - 1| <= exp(|z|) - 1; |P| = exp(-2 k0 d kappa) is bounded
    by the tile's kappa range; and |1 + r1 r2 P| >= 1 - |r1||r2||P| > 0.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        decay = np.exp(-2.0 * k0d * discs.k_mid)
        phase = np.exp(2j * k0d * discs.n_mid) * decay
        phase_rad = decay * np.expm1(2.0 * k0d * discs.radius)
        reach = decay + phase_rad
        num = np.abs(discs.r1 + discs.r2 * phase)
        num_rad = discs.r1_rad + np.abs(discs.r2) * phase_rad + discs.r2_rad * reach
        den = np.abs(1.0 + discs.r12 * phase)
        den_rad = np.abs(discs.r12) * phase_rad + discs.r12_rad * reach
        p_max = np.exp(-2.0 * k0d * discs.k_lo)
        p_min = np.exp(-2.0 * k0d * discs.k_hi)
        floor = 1.0 - discs.r12_max * p_max
        den_lo = np.maximum(den - den_rad, floor)
        den_hi = np.minimum(den + den_rad, 2.0 - floor)
        r_lo = (np.maximum(num - num_rad, 0.0) / den_hi) ** 2
        r_hi = ((num + num_rad) / den_lo) ** 2
        t_lo = discs.t_lo * p_min / den_hi**2
        t_hi = discs.t_hi * p_max / den_lo**2
        gap = np.maximum(np.maximum(r_lo - reflectance, reflectance - r_hi), 0.0)
        gap += np.maximum(np.maximum(t_lo - transmittance, transmittance - t_hi), 0.0)
    # gap >= 0 fails only for a NaN from an overflowing phase radius
    return np.where(discs.sound & (gap >= 0.0), gap - _BOUND_SLACK, -np.inf)


def _tile_origins(shape, size):
    """First row and column of each size x size tile, row-major."""
    rows, cols = np.meshgrid(
        np.arange(0, shape[0], size), np.arange(0, shape[1], size), indexing="ij"
    )
    return rows.ravel(), cols.ravel()


def _span_discs(n_vals, k_vals, rows, cols, size, ambient_index, substrate_index) -> _Discs:
    """Discs of the size x size tiles whose first rows and columns are
    ``rows`` and ``cols`` (broadcast against each other), cut at the grid's
    edges."""

    def span(values, first):
        last = values.size - 1
        return values[np.minimum(first, last)], values[np.minimum(first + size - 1, last)]

    return _tile_discs(*span(n_vals, rows), *span(k_vals, cols), ambient_index, substrate_index)


class _Tiling(NamedTuple):
    """The grid, cut into fine tiles of _FINE x _FINE points and coarse
    tiles of _COARSE x _COARSE points, each row-major."""

    n_vals: np.ndarray
    k_vals: np.ndarray
    media: tuple  # ambient and substrate index
    coarse: _Discs
    fine: _Discs
    origins: tuple  # first row and column of each fine tile
    children: np.ndarray  # fine tiles of each coarse tile, -1 past the grid

    def sub_discs(self, tiles, size) -> _Discs:
        """Discs of the size x size sub-tiles of the given fine tiles,
        shaped (sub-tile row, sub-tile column, tile) by broadcasting, so
        that a map's phase and decay factors (_lower_bounds) come once per
        row and column.  A sub-tile past the grid repeats the tile's last
        row or column, so its disc still holds points of the tile only."""
        starts = np.arange(0, _FINE, size)
        rows = self.origins[0][tiles] + starts[:, None, None]
        cols = self.origins[1][tiles] + starts[:, None]
        return _span_discs(self.n_vals, self.k_vals, rows, cols, size, *self.media)


def _tiling(n_vals, k_vals, ambient_index, substrate_index) -> _Tiling:
    shape = (n_vals.size, k_vals.size)
    media = (ambient_index, substrate_index)

    def discs(size):
        return _span_discs(n_vals, k_vals, *_tile_origins(shape, size), size, *media)

    rows, cols = _tile_origins(shape, _FINE)
    side = _COARSE // _FINE
    parent = rows // _COARSE * -(-shape[1] // _COARSE) + cols // _COARSE
    children = np.full((parent[-1] + 1, side * side), -1)
    children[parent, rows % _COARSE // _FINE * side + cols % _COARSE // _FINE] = np.arange(
        rows.size
    )
    return _Tiling(n_vals, k_vals, media, discs(_COARSE), discs(_FINE), (rows, cols), children)


def _by_tile(tiles, per_call):
    """Calls of at most per_call entries, in order of tile so that the
    entries of a call share few tiles: per call, the indices of its entries,
    its distinct tiles, and where each entry's tile is among them."""
    order = np.argsort(tiles, kind="stable")
    for lo in range(0, order.size, per_call):
        part = order[lo : lo + per_call]
        ordered = tiles[part]
        new = np.diff(ordered, prepend=-1) != 0
        yield part, ordered[new], np.cumsum(new) - 1


def _refined_bounds(tiling: _Tiling, bounds, owner, tiles, size):
    """The least bound of the size x size sub-tiles of each (map, fine
    tile) pair: a bound on the whole tile, as its sub-tiles cover it."""
    out = np.empty(tiles.size)
    for part, distinct, at in _by_tile(tiles, _BOUNDS_PER_CALL // (_FINE // size) ** 2):
        sub = bounds(owner[part], tiling.sub_discs(distinct, size).take(at))
        out[part] = sub.min(axis=(0, 1))
    return out


def _children(tiling: _Tiling, bounds, owner, coarse):
    """Map, fine tile, bound and sub-tile side (_FINE) of each fine tile of
    the given (map, coarse tile) pairs: entries of the search's queue."""
    tiles = tiling.children[coarse]
    owner = np.broadcast_to(owner[:, None], tiles.shape)[tiles >= 0]
    tiles = tiles[tiles >= 0]
    bound = np.empty(tiles.size)
    for lo in range(0, tiles.size, _BOUNDS_PER_CALL):
        part = slice(lo, lo + _BOUNDS_PER_CALL)
        bound[part] = bounds(owner[part], tiling.fine.take(tiles[part]))
    return owner, tiles, bound, np.full(tiles.size, _FINE, dtype=np.int8)


def _tile_points(evaluate, owner, distinct, at, origins, shape):
    """Evaluates fine tiles of maps with a one-point halo and keeps the
    core points that are at most each of their 8-neighbours: exactly the
    local minima of the full map.

    Pair p is tile distinct[at[p]] of map owner[p].  ``evaluate(owner, at,
    r, c)`` returns the pairs' values at r[at[p], :, None], c[at[p], None,
    :].  Returns the pair, value and flat index of each kept point, and the
    largest value of each pair.
    """
    rows = origins[0][distinct][:, None] + _HALO
    cols = origins[1][distinct][:, None] + _HALO
    # a point past the grid is read at the nearest grid point, which is the
    # point beside it or that point itself, so it decides no comparison (the
    # edge rule of _window_min) and adds no new value to a tile's largest
    values = evaluate(owner, at, np.clip(rows, 0, shape[0] - 1), np.clip(cols, 0, shape[1] - 1))
    beside = np.minimum(values[:, :, :-2], values[:, :, 2:])
    across = np.minimum(beside, values[:, :, 1:-1])
    neighbours = np.minimum(np.minimum(across[:, :-2], across[:, 2:]), beside[:, 1:-1])
    core = values[:, 1:-1, 1:-1]
    inside = ((rows[:, 1:-1, None] < shape[0]) & (cols[:, None, 1:-1] < shape[1]))[at]
    pair, i, j = np.nonzero(inside & (core <= neighbours))
    index = rows[at[pair], i + 1] * shape[1] + cols[at[pair], j + 1]
    return pair, core[pair, i, j], index, core.max(axis=(1, 2))


def _rank_by_map(maps, *keys):
    """Order of entries by map, then by ``keys`` (the last one first), and
    each entry's rank within its map in that order."""
    order = np.lexsort(keys + (maps,))
    first = np.searchsorted(maps[order], maps[order])
    return order, np.arange(order.size) - first


def _kth_lowest(maps, values, k, count):
    """Per map of ``count``, the k-th lowest of its values (k may vary by
    map), or inf if it has fewer."""
    order, rank = _rank_by_map(maps, values)
    hit = rank == np.broadcast_to(k, count)[maps[order]] - 1
    kth = np.full(count, np.inf)
    kth[maps[order][hit]] = values[order][hit]
    return kth


def _tile_search(tiling: _Tiling, count, bounds, evaluate):
    """The two lowest local minima of each of ``count`` maps, evaluating
    only the fine tiles that can hold one.

    ``bounds(maps, discs)`` bounds maps from below on tiles (_Discs),
    and ``evaluate`` computes map values as _tile_points asks.  A map's
    threshold is max(v_2, v_1 + FLAT_LANDSCAPE_SPAN), with v_k its k-th
    lowest local minimum found so far.  Each round splits the coarse
    tiles and takes the fine tiles whose bound is at or below the map's
    level, its threshold.  While a map has fewer than two local minima it
    goes best first instead: its level is the reach-th best coarse or
    queued fine bound, starting from the number of fine tiles in a coarse
    tile, and its reach doubles each round.

    A taken tile is sharpened before it is evaluated, lazily, as few
    tiles reach this stage: its bound becomes the least bound of its 4 x 4
    sub-tiles, and if that is still at or below the level, the least
    bound of its 2 x 2 sub-tiles (_refined_bounds).  A tile whose
    sharper bound lies above the level goes back into the queue with that
    bound, to be evaluated only if a short map's level grows past it.  A
    map with two minima leaves the tiles it does not take: its level only
    falls.

    Why a skipped tile cannot matter: every local minimum found is one of
    the full map, as _tile_points reads its neighbours from the halo, so
    v_k found so far is at least the full map's v_k, and thresholds only
    fall.  Every bound, a sharpened one too, is at or below each value on
    its tile, as the sub-tiles cover the tile.  The rounds stop when no
    map has a tile left at or below its threshold (a map short of minima
    stops with every tile evaluated).  Then every skipped point exceeds
    the threshold, so it can be neither one of the two lowest local
    minima nor tie with one; and it lies more than FLAT_LANDSCAPE_SPAN
    above the lowest point, so a map with a skipped point is not flat.
    So _lowest_minima decides on these minima as _two_lowest_minima
    decides on the full map.

    Returns, per map, the value and flat index of its two lowest local
    minima in ascending (value, index) order, and the map's spread
    (max - min) if every tile was evaluated and it has a local minimum,
    else inf.
    """
    shape = (tiling.n_vals.size, tiling.k_vals.size)
    width = tiling.children.shape[0]
    step = max(1, _BOUNDS_PER_CALL // width)
    coarse_bounds = np.concatenate(
        [bounds(np.arange(lo, min(lo + step, count))[:, None], tiling.coarse)
         for lo in range(0, count, step)]
    )
    ranked = np.sort(coarse_bounds, axis=1)
    ranked = np.concatenate((ranked, np.full((count, 1), np.inf)), axis=1)
    reach = np.full(count, (_COARSE // _FINE) ** 2)  # a coarse tile's worth
    threshold = np.full(count, np.inf)
    closed = np.ones(coarse_bounds.shape, dtype=bool)  # coarse tiles not yet split
    # map, tile, bound, and the side of the sub-tiles whose least bound it is
    queue = _children(tiling, bounds, np.empty(0, dtype=int), np.empty(0, dtype=int))
    found = np.empty(0, dtype=int), np.empty(0), np.empty(0, dtype=int)  # map, value, index
    top = np.full(count, -np.inf)  # largest value evaluated
    skipped = np.zeros(count, dtype=bool)  # a tile left the queue unevaluated
    while True:
        level = threshold.copy()
        short = np.isinf(threshold)
        if short.any():
            waiting = short[queue[0]]
            level[short] = np.minimum(
                ranked[short, np.minimum(reach[short], width + 1) - 1],
                _kth_lowest(queue[0][waiting], queue[2][waiting], reach, count)[short],
            )
            reach[short] *= 2
        opened = np.nonzero(closed & (coarse_bounds <= level[:, None]))
        closed[opened] = False
        queue = tuple(map(np.concatenate, zip(queue, _children(tiling, bounds, *opened))))
        limit = level[queue[0]]
        take = queue[2] <= limit
        if not take.any() and not opened[0].size:
            if (level[short] == np.inf).all():
                break
            continue
        for size in _SUB_TILES:
            refine = np.flatnonzero(take & (queue[3] > size) & (limit < np.inf))
            queue[2][refine] = _refined_bounds(
                tiling, bounds, queue[0][refine], queue[1][refine], size
            )
            queue[3][refine] = size
            take[refine] = queue[2][refine] <= limit[refine]
        owner, tiles = queue[0][take], queue[1][take]
        # the level of a map with two minima is its threshold, which only
        # falls: a tile it does not take now it never takes
        skip = ~take & ~short[queue[0]]
        skipped[queue[0][skip]] = True
        queue = tuple(column[~take & ~skip] for column in queue)
        batches = [found]
        for part, distinct, at in _by_tile(tiles, _VALUES_PER_CALL // _HALO.size**2):
            pair, value, index, tile_top = _tile_points(
                evaluate, owner[part], distinct, at, tiling.origins, shape
            )
            batches.append((owner[part][pair], value, index))
            np.maximum.at(top, owner[part], tile_top)
        found = tuple(np.concatenate(column) for column in zip(*batches))
        order, rank = _rank_by_map(found[0], found[2], found[1])
        found = tuple(column[order[rank < 2]] for column in found)
        threshold = np.maximum(
            _kth_lowest(found[0], found[1], 2, count),
            _kth_lowest(found[0], found[1], 1, count) + FLAT_LANDSCAPE_SPAN,
        )

    maps, value, index = found
    edges = np.searchsorted(maps, np.arange(count + 1))
    complete = ~closed.any(axis=1) & ~skipped & (np.bincount(queue[0], minlength=count) == 0)
    return [
        (value[lo:hi], index[lo:hi], top[m] - value[lo] if complete[m] and hi > lo else np.inf)
        for m, (lo, hi) in enumerate(zip(edges[:-1], edges[1:]))
    ]


def _lowest_minima(value, index, spread, columns):
    """_two_lowest_minima from the local minima of a map (in ascending
    order) and its spread."""
    if spread < FLAT_LANDSCAPE_SPAN:
        raise NoMinimumFound("residual landscape is flat")
    if not value.size:
        raise NoMinimumFound("no local minimum on the search grid")
    return [divmod(int(i), columns) for i in index[:2]]


def _grid_seeds(grid: NkGrid, thickness, wavelength, reflectance, transmittance,
                ambient_index, substrate_index):
    """_two_lowest_minima(_residual_map(...)) of every map, given by the
    arrays of its thickness, wavelength, R and T, from the tiles that can
    hold a seed."""
    n_vals, k_vals = grid.n_values, grid.kappa_values
    tiling = _tiling(n_vals, k_vals, ambient_index, substrate_index)
    k0d = 2.0 * np.pi * thickness / wavelength

    def bounds(owner, discs):
        return _lower_bounds(discs, k0d[owner], reflectance[owner], transmittance[owner])

    def evaluate(owner, at, rows, cols):
        # the Fresnel factors depend on the point alone: once per tile
        nf = n_vals[rows][:, :, None] + 1j * k_vals[cols][:, None, :]
        nf, *factors = (
            np.take(a, at, axis=0) for a in (nf, *_interfaces(nf, ambient_index, substrate_index))
        )
        m = owner[:, None, None]
        return _reference_surface(
            nf, thickness[m], wavelength[m], reflectance[m], transmittance[m],
            ambient_index, substrate_index, tuple(factors),
        )

    return [
        _lowest_minima(value, index, spread, k_vals.size)
        for value, index, spread in _tile_search(tiling, thickness.size, bounds, evaluate)
    ]


def extract_nk(
    spectrum: RTSpectrum,
    thickness_range=(63e-9, 77e-9),
    grid: NkGrid | None = None,
    n_thickness: int = 8,
    substrate_index: float = 1.52,
    ambient_index: float = 1.0,
) -> NkCandidates:
    """Two candidate (n, kappa) roots per wavelength and thickness sample.

    Scans the residual over the grid, keeps the two lowest local minima,
    and refines each by simplex descent; select_physical_branch settles
    which root is physical.  The rows come by thickness (ascending), then
    by measurement, then by seed (lower grid minimum first); a map with a
    single local minimum gives one row.

    The grid is searched tile by tile (_grid_seeds): a certified lower
    bound on the residual rules out the tiles of each map that cannot hold
    a seed, and the rest are evaluated in the reference arithmetic.  The
    seeds are always those of the full reference map (_residual_map).

    All roots are refined together by numerics.simplex.nelder_mead, the
    shared lockstep Nelder-Mead, whose every root ends where scipy's
    Nelder-Mead from the same seed ends, with the same residual.
    """
    if not spectrum.wavelength.size:
        raise ValueError("at least one measurement is required")
    t_low, t_high = thickness_range
    if not 0.0 < t_low <= t_high <= MAX_THICKNESS:
        raise ValueError(f"thickness_range must lie inside (0, 1 um], got {thickness_range}")
    _check_stack(t_low, substrate_index, ambient_index)
    if grid is None:
        grid = NkGrid()
    thicknesses = (
        np.array([t_low])
        if t_low == t_high
        else np.linspace(t_low, t_high, max(2, n_thickness))
    )
    measured = np.column_stack((spectrum.wavelength, spectrum.reflectance, spectrum.transmittance))
    # one map per (thickness, measurement): thickness, wavelength, R, T
    per_map = np.column_stack(
        (np.repeat(thicknesses, len(measured)), np.tile(measured, (thicknesses.size, 1)))
    )
    seeds = _grid_seeds(grid, *per_map.T, ambient_index, substrate_index)
    owner = np.repeat(np.arange(len(seeds)), [len(found) for found in seeds])
    seed_row, seed_col = np.concatenate(seeds).T
    thickness, wavelength, reflectance, transmittance = per_map[owner].T

    def misfits(points, rows):
        return _misfits(
            points[:, 0] + 1j * points[:, 1], thickness[rows], wavelength[rows],
            reflectance[rows], transmittance[rows], ambient_index, substrate_index,
        )

    refined = nelder_mead(
        misfits,
        np.column_stack((grid.n_values[seed_row], grid.kappa_values[seed_col])),
        lower=np.array([grid.n_min, max(grid.kappa_min, 0.0)]),
        upper=np.array([grid.n_max, grid.kappa_max]),
        xatol=1e-9,
        fatol=1e-14,
        maxiter=600,
    )
    return NkCandidates(wavelength, *refined.x.T, refined.fun, thickness)


def thickness_rescale(kappa, thickness_used: float, thickness_reference: float):
    """Deconvolution identity: kappa (a float or an array) scales with the
    thickness ratio."""
    if thickness_used <= 0.0 or thickness_reference <= 0.0:
        raise ValueError("thicknesses must be > 0")
    return kappa * (thickness_used / thickness_reference)


def select_physical_branch(
    candidates: NkCandidates, ambiguity_threshold: float = 0.05
) -> np.ndarray:
    """The rows of the smoother solution curve: one row per wavelength,
    ascending in wavelength.

    Per wavelength, the first and last rows in (kappa, residual) order
    (stable, so ties keep the table's order) are the two roots; a
    wavelength with one row gives the same row to both.  They are joined
    into two continuous curves by nearest-neighbour continuation in the
    (n, kappa) plane, which keeps each curve on its own branch even where
    the branches cross in kappa alone.  The curve with the smaller total
    variation of kappa is kept as physical (smaller mean kappa preferred
    on a tie).

    The continuation compares, at each wavelength, the summed steps from
    the previous pair to the current one taken straight and crossed.  A
    crossed sum strictly below the straight one swaps which curve takes
    the first row, one strictly above keeps the previous assignment, and
    an exact tie takes the rows as they come.  So a curve's assignment is
    the parity of the strict crossings since the last tie.
    """
    if not candidates.wavelength.size:
        raise ValueError("no candidates supplied")
    n, kappa = candidates.n, candidates.kappa
    order = np.lexsort((candidates.residual, kappa, candidates.wavelength))
    sorted_wl = candidates.wavelength[order]
    starts = np.flatnonzero(np.r_[True, sorted_wl[1:] != sorted_wl[:-1]])
    first, last = order[starts], order[np.r_[starts[1:], order.size] - 1]

    def steps(prev, cur):
        return np.hypot(n[cur] - n[prev], kappa[cur] - kappa[prev])

    straight = steps(first[:-1], first[1:]) + steps(last[:-1], last[1:])
    crossed = steps(first[:-1], last[1:]) + steps(last[:-1], first[1:])
    flip = crossed < straight
    flips = np.cumsum(np.r_[0, flip])
    tie = np.r_[True, ~flip & ~(straight < crossed)]
    since = np.maximum.accumulate(np.where(tie, np.arange(first.size), 0))
    swapped = (flips - flips[since]) % 2 == 1
    track_a = np.where(swapped, last, first)
    track_b = np.where(swapped, first, last)

    tv_a, tv_b = (float(np.sum(np.abs(np.diff(kappa[t])))) for t in (track_a, track_b))
    scale = max(tv_a, tv_b)
    distinct = bool((track_a != track_b).any())
    if distinct and scale > 0.0 and abs(tv_a - tv_b) < ambiguity_threshold * scale:
        raise BranchAmbiguous(
            f"total variations {tv_a:.4g} and {tv_b:.4g} differ by "
            f"less than {ambiguity_threshold:.0%}"
        )
    if tv_a != tv_b:
        return track_a if tv_a < tv_b else track_b
    return track_a if np.mean(kappa[track_a]) <= np.mean(kappa[track_b]) else track_b


def close_with_kk(energies_ev, kappa, n_asymptote: float) -> np.ndarray:
    """Rebuild the dispersive n from kappa on an ascending photon-energy
    grid (eV) via the dispersion integral."""
    energies = np.asarray(energies_ev, dtype=float)
    kap = np.asarray(kappa, dtype=float)
    return kramers_kronig_real(energies * EV_TO_RADS, kap, asymptote=n_asymptote)


# ------------------------------------------------------------------ I/O

RT_HEADER = ("wavelength_nm", "R", "T")


def read_rt_csv(path) -> RTSpectrum:
    """The spectrum in a CSV with header wavelength_nm,R,T; faults name the line."""
    data, lines = table.read(path, RT_HEADER)
    columns = (data[:, 0] * 1e-9, data[:, 1], data[:, 2])
    fault = _first_fault(*columns)
    if fault is not None:
        row, message = fault
        raise ValueError(f"{path}, line {lines[row]}: {message}")
    return RTSpectrum(*columns)


def write_rt_csv(path, spectrum: RTSpectrum, comments=()) -> None:
    """Write wavelength_nm, R, T rows at full precision."""
    columns = (spectrum.wavelength * 1e9, spectrum.reflectance, spectrum.transmittance)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(table.render(RT_HEADER, columns, comments))
