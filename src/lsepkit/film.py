"""Thin-film optical constants from normal-incidence reflectance and
transmittance.

Forward model: one coherent absorbing layer between a semi-infinite
ambient and a semi-infinite transparent substrate (Airy summation of the
two-interface Fresnel amplitudes).  Inversion: grid search for the two
lowest residual minima per wavelength, simplex refinement, a thickness
sweep with the kappa deconvolution identity, smoothness-based rejection
of the spurious solution branch, and a dispersion-relation closure that
rebuilds n from the retained kappa curve.

The grid search evaluates each (wavelength, thickness) map only on the
tiles of the (n, kappa) grid that can hold a seed.  Circular complex
arithmetic bounds the residual from below on every tile (Gargantini &
Henrici, Numer. Math. 18, 305 (1972); Moore, Interval Analysis (1966)),
and tiles are evaluated best first until every tile left is bounded
above the map's threshold, so that no skipped point can change a seed.
The evaluated points are computed in the arithmetic of the full
reference map (``_residual_map``), so the seeds are the ones that map
would give.

The refinement polishes all roots at once with the package's one
simplex search, numerics.simplex.nelder_mead: a bounded Nelder-Mead run
in lockstep, in which each root takes exactly the steps of
scipy.optimize.minimize(method="Nelder-Mead") on that root alone.
"""

from __future__ import annotations

import cmath
import csv
import dataclasses
import math
import operator
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import NumericalFailure
from .numerics import kramers_kronig_real, nelder_mead

NOISE_ALLOWANCE = 0.02
FLAT_LANDSCAPE_SPAN = 1e-15
# Largest (n, kappa) grid an NkGrid may ask for, about 230 times the
# default 681 x 641: a tiny step would ask for more than fits in memory.
MAX_GRID_POINTS = 10**8
# The grid search works on tiles of the (n, kappa) grid.  It bounds the
# residual from below on coarse tiles of every map, splits the coarse
# tiles it cannot rule out into fine tiles, and evaluates fine tiles only.
_FINE = 8
_COARSE = 4 * _FINE
# Outward slack of every tile bound, far above the rounding of the bound
# and of the maps it bounds (about 1e-15).
_BOUND_SLACK = 1e-9
# Values per vectorized call (bounds or map points), so that
# temporaries stay small.
_VALUES_PER_CALL = 1 << 15
_HALO = np.arange(-1, _FINE + 1)


class NoMinimumFound(NumericalFailure):
    """Residual landscape has no interior minimum to refine."""


class BranchAmbiguous(NumericalFailure):
    """Smoothness criterion cannot separate the two solution branches."""


class Branch(Enum):
    PHYSICAL = "Physical"
    SPURIOUS = "Spurious"
    UNRESOLVED = "Unresolved"


@dataclass(frozen=True)
class FilmStack:
    """Single coherent film on a transparent semi-infinite substrate."""

    thickness: float
    film_index: complex
    substrate_index: float = 1.52
    ambient_index: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.thickness < math.inf:
            raise ValueError(f"thickness must be finite and > 0, got {self.thickness}")
        if not cmath.isfinite(complex(self.film_index)):
            raise ValueError(f"film index must be finite, got {self.film_index}")
        if complex(self.film_index).imag < 0.0:
            raise ValueError("film index must have a non-negative imaginary part")
        if not (1.0 <= self.substrate_index < math.inf and 1.0 <= self.ambient_index < math.inf):
            raise ValueError("ambient and substrate indices must be finite and >= 1")


@dataclass(frozen=True)
class RTMeasurement:
    """One wavelength sample of measured reflectance and transmittance."""

    wavelength: float
    reflectance: float
    transmittance: float

    def __post_init__(self):
        if not 0.0 < self.wavelength < math.inf:
            raise ValueError(f"wavelength must be finite and > 0, got {self.wavelength}")
        for label, value in (
            ("reflectance", self.reflectance),
            ("transmittance", self.transmittance),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{label} must lie in [0, 1], got {value}")
        if self.reflectance + self.transmittance > 1.0 + NOISE_ALLOWANCE:
            raise ValueError(
                f"R + T = {self.reflectance + self.transmittance:.4f} exceeds "
                f"1 + {NOISE_ALLOWANCE} noise allowance"
            )


@dataclass(frozen=True)
class NkCandidate:
    """One residual minimum: a candidate (n, kappa) at one wavelength."""

    wavelength: float
    n: float
    kappa: float
    residual: float
    branch: Branch
    thickness_used: float

    def __post_init__(self):
        if self.residual < 0.0:
            raise ValueError(f"residual must be >= 0, got {self.residual}")


@dataclass(frozen=True)
class TheoreticalRT:
    reflectance: float
    transmittance: float


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


@dataclass(frozen=True)
class BranchSelection:
    """Per-wavelength physical curve plus the rejected alternatives."""

    physical: tuple[NkCandidate, ...]
    spurious: tuple[NkCandidate, ...]
    interpolated_wavelengths: tuple[float, ...]


@dataclass(frozen=True)
class IndexCurve:
    """Paired n and kappa on an ascending photon-energy grid (eV)."""

    energies: np.ndarray
    n: np.ndarray
    kappa: np.ndarray


def _interfaces(index_film, ambient_index, substrate_index, multiply=operator.mul):
    """Fresnel amplitudes r1, r2 and t1*t2 of the two film interfaces."""
    n0, ns, nf = ambient_index, substrate_index, index_film
    r1 = (n0 - nf) / (n0 + nf)
    r2 = (nf - ns) / (nf + ns)
    t1 = 2.0 * n0 / (n0 + nf)
    t2 = 2.0 * nf / (nf + ns)
    return r1, r2, multiply(t1, t2)


def _amplitudes(index_film, thickness, wavelength, ambient_index, substrate_index):
    """Airy reflection and transmission amplitudes, elementwise over arrays
    of film index, thickness and wavelength, rounded as numpy's array loops
    round (see _rt)."""
    nf = np.asarray(index_film, dtype=complex)
    r1, r2, t12 = _interfaces(nf, ambient_index, substrate_index)
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


def rt_theoretical(stack: FilmStack, wavelength: float) -> TheoreticalRT:
    """Normal-incidence R and T of the film between two half-spaces."""
    if not 0.0 < wavelength < math.inf:
        raise ValueError(f"wavelength must be finite and > 0, got {wavelength}")
    reflectance, transmittance = _rt(
        [stack.film_index], stack.thickness, wavelength,
        stack.ambient_index, stack.substrate_index,
    )
    return TheoreticalRT(
        reflectance=float(reflectance[0]), transmittance=float(transmittance[0])
    )


def residual(n: float, kappa: float, stack: FilmStack, measurement: RTMeasurement) -> float:
    """Sum of absolute R and T misfits for a trial (n, kappa).

    Only the film index of ``stack`` is replaced by the trial value.
    """
    if not 0.0 < n < math.inf:
        raise ValueError(f"n must be finite and > 0, got {n}")
    if not 0.0 <= kappa < math.inf:
        raise ValueError(f"kappa must be finite and >= 0, got {kappa}")
    misfit = _misfits(
        [complex(n, kappa)], stack.thickness, measurement.wavelength,
        measurement.reflectance, measurement.transmittance,
        stack.ambient_index, stack.substrate_index,
    )
    return float(misfit[0])


def _reference_surface(index_film, thickness, wavelength, reflectance, transmittance,
                       ambient_index, substrate_index):
    """|T - T_measured| + |R - R_measured|, elementwise over arrays of film
    index, thickness, wavelength, R and T, rounded as the reference map
    rounds it (_amplitudes)."""
    r_amp, t_amp = _amplitudes(index_film, thickness, wavelength, ambient_index, substrate_index)
    flux_ratio = substrate_index / ambient_index
    r_t = np.abs(r_amp) ** 2
    t_t = flux_ratio * np.abs(t_amp) ** 2
    return np.abs(t_t - transmittance) + np.abs(r_t - reflectance)


def _residual_map(grid: NkGrid, stack: FilmStack, measurement: RTMeasurement):
    """Residual over the full (n, kappa) grid in one vectorized sweep.

    The reference map: its two lowest minima (_two_lowest_minima) are the
    seeds that extract_nk finds while evaluating only part of the grid.
    """
    n_vals = grid.n_values
    k_vals = grid.kappa_values
    nf = n_vals[:, None] + 1j * k_vals[None, :]
    surface = _reference_surface(
        nf, stack.thickness, measurement.wavelength, measurement.reflectance,
        measurement.transmittance, stack.ambient_index, stack.substrate_index,
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
        return _Discs(*(field[tiles] for field in self))


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


class _Tiling(NamedTuple):
    """The grid, cut into fine tiles of _FINE x _FINE points and coarse
    tiles of _COARSE x _COARSE points, each row-major."""

    n_vals: np.ndarray
    k_vals: np.ndarray
    coarse: _Discs
    fine: _Discs
    origins: tuple  # first row and column of each fine tile
    children: np.ndarray  # fine tiles of each coarse tile, -1 past the grid


def _tiling(n_vals, k_vals, ambient_index, substrate_index) -> _Tiling:
    shape = (n_vals.size, k_vals.size)

    def discs(size):
        rows, cols = _tile_origins(shape, size)
        return _tile_discs(
            n_vals[rows], n_vals[np.minimum(rows + size, shape[0]) - 1],
            k_vals[cols], k_vals[np.minimum(cols + size, shape[1]) - 1],
            ambient_index, substrate_index,
        )

    rows, cols = _tile_origins(shape, _FINE)
    side = _COARSE // _FINE
    parent = rows // _COARSE * -(-shape[1] // _COARSE) + cols // _COARSE
    children = np.full((parent[-1] + 1, side * side), -1)
    children[parent, rows % _COARSE // _FINE * side + cols % _COARSE // _FINE] = np.arange(
        rows.size
    )
    return _Tiling(n_vals, k_vals, discs(_COARSE), discs(_FINE), (rows, cols), children)


def _tile_points(evaluate, owner, rows, cols, shape):
    """Evaluates fine tiles with a one-point halo and keeps the core
    points that are at most each of their in-grid 8-neighbours: exactly
    the local minima of the full map.

    ``evaluate(owner, r, c)`` returns the values at r[p, :, None],
    c[p, None, :].  Returns the tile, value and flat index of each kept
    point, and the largest value of each tile.
    """
    rows = rows[:, None] + _HALO
    cols = cols[:, None] + _HALO
    row_in = (rows >= 0) & (rows < shape[0])
    col_in = (cols >= 0) & (cols < shape[1])
    values = evaluate(owner, np.clip(rows, 0, shape[0] - 1), np.clip(cols, 0, shape[1] - 1))
    values[~(row_in[:, :, None] & col_in[:, None, :])] = np.inf
    beside = np.minimum(values[:, :, :-2], values[:, :, 2:])
    across = np.minimum(beside, values[:, :, 1:-1])
    neighbours = np.minimum(np.minimum(across[:, :-2], across[:, 2:]), beside[:, 1:-1])
    core = values[:, 1:-1, 1:-1]
    inside = row_in[:, 1:-1, None] & col_in[:, None, 1:-1]
    tile, i, j = np.nonzero(inside & (core <= neighbours))
    index = rows[tile, i + 1] * shape[1] + cols[tile, j + 1]
    top = np.where(inside, core, -np.inf).max(axis=(1, 2))
    return tile, core[tile, i, j], index, top


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
    tiles and evaluates the fine tiles whose bound is at or below the
    threshold.  While a map has fewer than two local minima it goes best
    first instead: it takes its tiles up to the reach-th best coarse or
    queued fine bound, starting from the number of fine tiles in a coarse
    tile, and doubles its reach each round.

    Why a skipped tile cannot matter: every local minimum found is one of
    the full map, as _tile_points reads its neighbours from the halo, so
    v_k found so far is at least the full map's v_k, and thresholds only
    fall.  The rounds stop when no map has a tile left at or below its
    threshold (a map short of minima stops with every tile evaluated).
    Then every skipped point exceeds the threshold, so it can be neither
    one of the two lowest local minima nor tie with one; and it lies more
    than FLAT_LANDSCAPE_SPAN above the lowest point, so a map with a
    skipped point is not flat.  So _lowest_minima decides on these minima
    as _two_lowest_minima decides on the full map.

    Returns, per map, the value and flat index of its two lowest local
    minima in ascending (value, index) order, and the map's spread
    (max - min) if every tile was evaluated and it has a local minimum,
    else inf.
    """
    shape = (tiling.n_vals.size, tiling.k_vals.size)
    width = tiling.children.shape[0]
    step = max(1, _VALUES_PER_CALL // width)
    coarse_bounds = np.concatenate(
        [bounds(np.arange(lo, min(lo + step, count))[:, None], tiling.coarse)
         for lo in range(0, count, step)]
    )
    ranked = np.sort(coarse_bounds, axis=1)
    ranked = np.concatenate((ranked, np.full((count, 1), np.inf)), axis=1)
    reach = np.full(count, (_COARSE // _FINE) ** 2)  # a coarse tile's worth
    threshold = np.full(count, np.inf)
    closed = np.ones(coarse_bounds.shape, dtype=bool)  # coarse tiles not yet split
    queue = np.empty(0, dtype=int), np.empty(0, dtype=int), np.empty(0)  # map, tile, bound
    found = np.empty(0, dtype=int), np.empty(0), np.empty(0, dtype=int)  # map, value, index
    top = np.full(count, -np.inf)  # largest value evaluated
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
        owner, coarse = np.nonzero(closed & (coarse_bounds <= level[:, None]))
        closed[owner, coarse] = False
        tiles = tiling.children[coarse]
        owner = np.broadcast_to(owner[:, None], tiles.shape)[tiles >= 0]
        tiles = tiles[tiles >= 0]
        fresh = [
            bounds(owner[part], tiling.fine.take(tiles[part]))
            for part in (
                slice(lo, lo + _VALUES_PER_CALL) for lo in range(0, tiles.size, _VALUES_PER_CALL)
            )
        ]
        queue = (
            np.concatenate((queue[0], owner)),
            np.concatenate((queue[1], tiles)),
            np.concatenate([queue[2], *fresh]),
        )
        take = queue[2] <= level[queue[0]]
        if not take.any() and not coarse.size:
            if (level[short] == np.inf).all():
                break
            continue
        owner, tiles = queue[0][take], queue[1][take]
        queue = tuple(column[~take] for column in queue)
        batches = [found]
        per_call = _VALUES_PER_CALL // _HALO.size**2
        for lo in range(0, tiles.size, per_call):
            part = owner[lo : lo + per_call]
            picked = tiles[lo : lo + per_call]
            tile, value, index, tile_top = _tile_points(
                evaluate, part, tiling.origins[0][picked], tiling.origins[1][picked], shape
            )
            batches.append((part[tile], value, index))
            np.maximum.at(top, part, tile_top)
        found = tuple(np.concatenate(column) for column in zip(*batches))
        order, rank = _rank_by_map(found[0], found[2], found[1])
        found = tuple(column[order[rank < 2]] for column in found)
        threshold = np.maximum(
            _kth_lowest(found[0], found[1], 2, count),
            _kth_lowest(found[0], found[1], 1, count) + FLAT_LANDSCAPE_SPAN,
        )

    maps, value, index = found
    edges = np.searchsorted(maps, np.arange(count + 1))
    complete = ~closed.any(axis=1) & (np.bincount(queue[0], minlength=count) == 0)
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

    def evaluate(owner, rows, cols):
        nf = n_vals[rows][:, :, None] + 1j * k_vals[cols][:, None, :]
        at = owner[:, None, None]
        return _reference_surface(
            nf, thickness[at], wavelength[at], reflectance[at], transmittance[at],
            ambient_index, substrate_index,
        )

    return [
        _lowest_minima(value, index, spread, k_vals.size)
        for value, index, spread in _tile_search(tiling, thickness.size, bounds, evaluate)
    ]


def extract_nk(
    measurements,
    thickness_range=(63e-9, 77e-9),
    grid: NkGrid | None = None,
    n_thickness: int = 8,
    substrate_index: float = 1.52,
    ambient_index: float = 1.0,
) -> list[NkCandidate]:
    """Two candidate (n, kappa) roots per wavelength and thickness sample.

    Scans the residual over the grid, keeps the two lowest local minima,
    and refines each by simplex descent.  Candidates come back labelled
    Unresolved; select_physical_branch settles which root is physical.

    The grid is searched tile by tile (_grid_seeds): a certified lower
    bound on the residual rules out the tiles of each map that cannot hold
    a seed, and the rest are evaluated in the reference arithmetic.  The
    seeds are always those of the full reference map (_residual_map).

    All roots are refined together by numerics.simplex.nelder_mead, the
    shared lockstep Nelder-Mead, whose every root ends where scipy's
    Nelder-Mead from the same seed ends, with the same residual.
    """
    measurements = list(measurements)
    if not measurements:
        raise ValueError("at least one measurement is required")
    t_low, t_high = thickness_range
    if not 0.0 < t_low <= t_high or t_high >= 1e-6:
        raise ValueError(f"thickness_range must lie inside (0, 1 um), got {thickness_range}")
    if grid is None:
        grid = NkGrid()
    thicknesses = (
        np.array([t_low])
        if t_low == t_high
        else np.linspace(t_low, t_high, max(2, n_thickness))
    )
    maps = [
        (
            FilmStack(
                thickness=float(thickness),
                film_index=1.5 + 0.0j,
                substrate_index=substrate_index,
                ambient_index=ambient_index,
            ),
            meas,
        )
        for thickness in thicknesses
        for meas in measurements
    ]

    per_map = np.array(
        [(stack.thickness, meas.wavelength, meas.reflectance, meas.transmittance)
         for stack, meas in maps]
    )
    n_vals, k_vals = grid.n_values, grid.kappa_values
    roots = [
        (m, (n_vals[row], k_vals[col]))
        for m, found in enumerate(_grid_seeds(grid, *per_map.T, ambient_index, substrate_index))
        for row, col in found
    ]
    thickness, wavelength, reflectance, transmittance = per_map[[m for m, _ in roots]].T

    def misfits(points, rows):
        return _misfits(
            points[:, 0] + 1j * points[:, 1], thickness[rows], wavelength[rows],
            reflectance[rows], transmittance[rows], ambient_index, substrate_index,
        )

    refined = nelder_mead(
        misfits,
        np.array([seed for _, seed in roots]),
        lower=np.array([grid.n_min, max(grid.kappa_min, 0.0)]),
        upper=np.array([grid.n_max, grid.kappa_max]),
        xatol=1e-9,
        fatol=1e-14,
        maxiter=600,
    )
    return [
        NkCandidate(
            wavelength=float(wl),
            n=float(n_fit),
            kappa=float(k_fit),
            residual=float(res),
            branch=Branch.UNRESOLVED,
            thickness_used=float(d),
        )
        for d, wl, (n_fit, k_fit), res in zip(thickness, wavelength, refined.x, refined.fun)
    ]


def thickness_rescale(kappa: float, thickness_used: float, thickness_reference: float):
    """Deconvolution identity: kappa scales with the thickness ratio."""
    if thickness_used <= 0.0 or thickness_reference <= 0.0:
        raise ValueError("thicknesses must be > 0")
    return kappa * (thickness_used / thickness_reference)


def select_physical_branch(
    candidates, ambiguity_threshold: float = 0.05
) -> BranchSelection:
    """Keep, per wavelength, the candidate on the smoother solution curve.

    The two roots per wavelength are first joined into two continuous
    curves by nearest-neighbour continuation in the (n, kappa) plane,
    which keeps each curve on its own branch even where the branches
    cross in kappa alone.  The curve with the smaller total variation of
    kappa is kept as physical (smaller mean kappa preferred on a tie).
    Only wavelengths that have candidates appear in the result, and
    ``interpolated_wavelengths`` is always empty; fill_gaps fills missing
    wavelengths by interpolation and flags them.
    """
    pool = [c for c in candidates]
    if not pool:
        raise ValueError("no candidates supplied")
    by_wavelength: dict[float, list[NkCandidate]] = {}
    for cand in pool:
        by_wavelength.setdefault(cand.wavelength, []).append(cand)
    wavelengths = sorted(by_wavelength)

    def dist(prev: NkCandidate, cand: NkCandidate) -> float:
        return float(np.hypot(cand.n - prev.n, cand.kappa - prev.kappa))

    track_a: list[NkCandidate] = []
    track_b: list[NkCandidate] = []
    for wl in wavelengths:
        group = sorted(by_wavelength[wl], key=lambda c: (c.kappa, c.residual))
        first, second = group[0], group[-1]
        if track_a:
            straight = dist(track_a[-1], first) + dist(track_b[-1], second)
            crossed = dist(track_a[-1], second) + dist(track_b[-1], first)
            if crossed < straight:
                first, second = second, first
        track_a.append(first)
        track_b.append(second)

    def total_variation(curve):
        kappas = np.array([c.kappa for c in curve])
        return float(np.sum(np.abs(np.diff(kappas)))) if kappas.size > 1 else 0.0

    tv_a, tv_b = total_variation(track_a), total_variation(track_b)
    scale = max(tv_a, tv_b)
    distinct = any(u is not l for u, l in zip(track_b, track_a))
    if distinct and scale > 0.0 and abs(tv_a - tv_b) < ambiguity_threshold * scale:
        raise BranchAmbiguous(
            f"total variations {tv_a:.4g} and {tv_b:.4g} differ by "
            f"less than {ambiguity_threshold:.0%}"
        )
    if tv_a != tv_b:
        chosen = track_a if tv_a < tv_b else track_b
    else:
        mean_a = float(np.mean([c.kappa for c in track_a]))
        mean_b = float(np.mean([c.kappa for c in track_b]))
        chosen = track_a if mean_a <= mean_b else track_b

    physical = [dataclasses.replace(c, branch=Branch.PHYSICAL) for c in chosen]
    spurious = [
        dataclasses.replace(c, branch=Branch.SPURIOUS)
        for wl, keep in zip(wavelengths, chosen)
        for c in by_wavelength[wl]
        if c is not keep
    ]
    return BranchSelection(
        physical=tuple(physical),
        spurious=tuple(spurious),
        interpolated_wavelengths=(),
    )


def fill_gaps(selection: BranchSelection, wavelengths) -> BranchSelection:
    """Fill missing wavelengths in a physical curve by interpolation."""
    have = {c.wavelength: c for c in selection.physical}
    missing = [wl for wl in wavelengths if wl not in have]
    if not missing:
        return selection
    known_wl = np.array(sorted(have))
    if known_wl.size < 2:
        raise ValueError("need at least two resolved wavelengths to interpolate")
    known_n = np.array([have[w].n for w in known_wl])
    known_k = np.array([have[w].kappa for w in known_wl])
    thickness = selection.physical[0].thickness_used
    filled = list(selection.physical)
    for wl in missing:
        filled.append(
            NkCandidate(
                wavelength=wl,
                n=float(np.interp(wl, known_wl, known_n)),
                kappa=float(np.interp(wl, known_wl, known_k)),
                residual=0.0,
                branch=Branch.PHYSICAL,
                thickness_used=thickness,
            )
        )
    filled.sort(key=lambda c: c.wavelength)
    return BranchSelection(
        physical=tuple(filled),
        spurious=selection.spurious,
        interpolated_wavelengths=tuple(sorted(missing)),
    )


def close_with_kk(energies_ev, kappa, n_asymptote: float) -> IndexCurve:
    """Rebuild the dispersive n from kappa via the dispersion integral."""
    energies = np.asarray(energies_ev, dtype=float)
    kap = np.asarray(kappa, dtype=float)
    from .constants import EV_TO_RADS

    n_curve = kramers_kronig_real(energies * EV_TO_RADS, kap, asymptote=n_asymptote)
    return IndexCurve(energies=energies, n=n_curve, kappa=kap)


# ------------------------------------------------------------------ I/O

def read_rt_csv(path) -> list[RTMeasurement]:
    """Measurements from a CSV with header wavelength_nm,R,T."""
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        rows = [(reader.line_num, r) for r in reader
                if r and not r[0].lstrip().startswith("#")]
    if not rows or [c.strip() for c in rows[0][1]] != ["wavelength_nm", "R", "T"]:
        raise ValueError(f"{path}: expected header wavelength_nm,R,T")
    out = []
    for line, row in rows[1:]:
        if len(row) != 3:
            raise ValueError(f"{path}, line {line}: malformed row {row!r}")
        try:
            wl_nm, r_val, t_val = (float(c) for c in row)
            out.append(
                RTMeasurement(
                    wavelength=wl_nm * 1e-9,
                    reflectance=r_val,
                    transmittance=t_val,
                )
            )
        except ValueError as exc:
            raise ValueError(f"{path}, line {line}: {exc}") from exc
    return out


def write_rt_csv(path, measurements) -> None:
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["wavelength_nm", "R", "T"])
        for m in measurements:
            writer.writerow(
                [
                    f"{m.wavelength * 1e9:.17g}",
                    f"{m.reflectance:.17g}",
                    f"{m.transmittance:.17g}",
                ]
            )

