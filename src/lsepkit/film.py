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
if that lies above the threshold.  A tile still taken is dropped
unevaluated if the residual provably slopes one way along n or kappa
over the tile widened by one grid step (a gradient test of interval
global optimisation: Hansen & Walster, Global Optimization Using
Interval Analysis (2004), ch. 12), where each point's lower neighbour
that way lies inside the grid, and the slope's bound times the least
grid spacing exceeds the bounds' slack: then every point of the tile
has a neighbour lower by more than rounding, and none is a local
minimum.  The evaluated points are computed in the arithmetic of the
full reference map (``_residual_map``), with the Fresnel factors of a
point computed once for all maps and the phase from one factor per row
and one per column, so the seeds are the ones that map would give.

The refinement polishes all roots at once with the package's one
simplex search, numerics.simplex.nelder_mead: a bounded Nelder-Mead run
in lockstep, in which each root takes exactly the steps of
scipy.optimize.minimize(method="Nelder-Mead") on that root alone.

So every map is solved on its own: the search decides a map from its
own bounds and values, and each root takes scipy's steps for it alone.
extract_nk solves contiguous slices of its maps in one process per
usable core and joins them in map order, the same bytes on any number
of cores.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import NumericalFailure, at_least_one, check, non_negative, positive, table
from .constants import EV_TO_RADS, vacuum_wavelength_m_to_ev
from .numerics import axis, kramers_kronig_real, nelder_mead

NOISE_ALLOWANCE = 0.02
FLAT_LANDSCAPE_SPAN = 1e-15
# Largest (n, kappa) grid an NkGrid may ask for, about 230 times the
# default 681 x 641: a tiny step would ask for more than fits in memory.
MAX_GRID_POINTS = 10**8
# Thickest film extract_nk inverts, 1 um: the maximum of the CLI's
# thickness keys, in metres as they convert (one ulp above 1e-6).
MAX_THICKNESS_NM = 1e3
MAX_THICKNESS = MAX_THICKNESS_NM * 1e-9
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
# The fewest maps extract_nk solves in a slice of its own.  A slice costs
# about 40 ms even for one map, mostly the lockstep refine's iterations,
# whose numpy calls do not shrink with the rows; on 2 cores splitting
# paid from about 96 maps on: 64 maps split ran 0.98 x the time of one
# slice, 96 maps 0.95 x, 101 maps 0.71 x.
_MIN_MAPS_PER_SLICE = 48


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
    bad = ~np.stack([positive(wavelength), (0.0 <= reflectance) & (reflectance <= 1.0),
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
        # the Fresnel poles nf = -n0 and nf = -ns stay off the grid (and off
        # the tile discs of the grid search)
        check(self.n_min, positive, "n_min must be finite and > 0")
        check(self.kappa_min, non_negative, "kappa_min must be finite and >= 0")
        check(self.n_max, np.isfinite, "n_max must be finite")
        check(self.kappa_max, np.isfinite, "kappa_max must be finite")
        check(self.n_step, positive, "n_step must be finite and > 0")
        check(self.kappa_step, positive, "kappa_step must be finite and > 0")
        for low, high in (("n_min", "n_max"), ("kappa_min", "kappa_max")):
            lo, hi = getattr(self, low), getattr(self, high)
            if lo >= hi:
                raise ValueError(f"{high} must exceed {low}, got {hi} <= {lo}")
        points = ((self.n_max - self.n_min) / self.n_step + 1.0) * (
            (self.kappa_max - self.kappa_min) / self.kappa_step + 1.0
        )
        if not points <= MAX_GRID_POINTS:
            raise ValueError(
                f"n_step = {self.n_step:g} and kappa_step = {self.kappa_step:g} ask for "
                f"{points:.3g} grid points, more than {MAX_GRID_POINTS:.0e}"
            )

    @property
    def n_values(self) -> np.ndarray:
        return axis(self.n_min, self.n_max, self.n_step)

    @property
    def kappa_values(self) -> np.ndarray:
        return axis(self.kappa_min, self.kappa_max, self.kappa_step)


def _interfaces(index_film, ambient_index, substrate_index):
    """Fresnel amplitudes r1, r2 and t1*t2 of the two film interfaces."""
    r1, r2, t1, t2 = _fresnel(index_film, ambient_index, substrate_index)
    return r1, r2, t1 * t2


def _fresnel(index_film, ambient_index, substrate_index):
    """Fresnel amplitudes r1, r2, t1 and t2 of the two film interfaces."""
    n0, ns, nf = ambient_index, substrate_index, index_film
    to_film, to_substrate = n0 + nf, nf + ns
    r1, r2 = (n0 - nf) / to_film, (nf - ns) / to_substrate
    return r1, r2, 2.0 * n0 / to_film, 2.0 * nf / to_substrate


def _airy(interfaces, phase):
    """Airy reflection and transmission amplitudes from the film's
    _interfaces and its phase exp(i k0 d nf), elementwise and rounded as
    numpy's array loops round (see _rt), the same at any array size."""
    r1, r2, t12 = interfaces
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
# array loop uses from three elements on, so _rt writes its six products
# (t1*t2, phase**2, r1*r2 and their products with phase or phase**2) out
# in real arithmetic on the parts, in _product.  A float64 scalar squares
# through libm pow, which is not x*x in the last bit: np.float_power(x,
# 2.0) rounds as libm pow does, where np.power with an array exponent and
# x*x do not.  Complex division, abs, exp, adding or subtracting a float,
# and multiplying by a real or an imaginary number round alike in both, so
# they stay complex.


def _product(a, b):
    """The (real, imag) parts of a*b from those of a and b, rounded as
    numpy's complex scalars round the product."""
    (ar, ai), (br, bi) = a, b
    return ar * br - ai * bi, ar * bi + ai * br


def _complex(parts):
    """The complex array of the given (real, imag) parts."""
    real, imag = parts
    out = np.empty(real.shape, dtype=complex)
    out.real, out.imag = real, imag
    return out


def _rt(index_film, thickness, wavelength, ambient_index, substrate_index):
    """R and T, elementwise over arrays of film index, thickness and
    wavelength: the forward model of rt_theoretical, residual and the
    refinement, each value as if computed alone."""
    nf = np.asarray(index_film, dtype=complex)
    r1, r2, t1, t2 = _fresnel(nf, ambient_index, substrate_index)
    phase = np.exp(2j * np.pi * nf * thickness / wavelength)
    r1_, r2_, t1_, t2_, phase_ = ((z.real, z.imag) for z in (r1, r2, t1, t2, phase))
    phase_sq = _product(phase_, phase_)
    denom = 1.0 + _complex(_product(_product(r1_, r2_), phase_sq))
    r_amp = (r1 + _complex(_product(r2_, phase_sq))) / denom
    t_amp = _complex(_product(_product(t1_, t2_), phase_)) / denom
    flux_ratio = substrate_index / ambient_index
    reflectance = np.float_power(np.abs(r_amp), 2.0)
    return reflectance, flux_ratio * np.float_power(np.abs(t_amp), 2.0)


def _misfits(index_film, thickness, wavelength, reflectance, transmittance,
             ambient_index, substrate_index):
    """|T - T_measured| + |R - R_measured|, elementwise as in _rt."""
    r_t, t_t = _rt(index_film, thickness, wavelength, ambient_index, substrate_index)
    return np.abs(t_t - transmittance) + np.abs(r_t - reflectance)


def _check_stack(thickness, substrate_index, ambient_index):
    """The film thicknesses and the two half-space indices."""
    check(thickness, positive, "thickness must be finite and > 0")
    check(ambient_index, at_least_one, "ambient_index must be finite and >= 1")
    check(substrate_index, at_least_one, "substrate_index must be finite and >= 1")


def rt_theoretical(film_index, thickness, wavelength, substrate_index=1.52, ambient_index=1.0):
    """Normal-incidence (R, T) of a film between two half-spaces,
    elementwise over broadcast arrays of film index, thickness and
    wavelength; each value is the one computed for it alone."""
    check(wavelength, positive, "wavelength must be finite and > 0")
    check(film_index, lambda nf: np.isfinite(nf) & (nf.imag >= 0.0),
          "film index must be finite with a non-negative imaginary part")
    _check_stack(thickness, substrate_index, ambient_index)
    return _rt(film_index, thickness, wavelength, ambient_index, substrate_index)


def residual(n, kappa, thickness, spectrum: RTSpectrum, substrate_index=1.52, ambient_index=1.0):
    """|R - R_measured| + |T - T_measured| of the trial indices n + i kappa,
    elementwise over broadcast arrays of n, kappa, thickness and the rows
    of ``spectrum``."""
    check(n, positive, "n must be finite and > 0")
    check(kappa, non_negative, "kappa must be finite and >= 0")
    _check_stack(thickness, substrate_index, ambient_index)
    return _misfits(
        np.asarray(n) + 1j * np.asarray(kappa), thickness, spectrum.wavelength,
        spectrum.reflectance, spectrum.transmittance, ambient_index, substrate_index,
    )


def _surface(amplitudes, reflectance, transmittance, flux_ratio):
    """|T - T_measured| + |R - R_measured| from the Airy amplitudes, rounded
    as the reference map rounds it."""
    r_amp, t_amp = amplitudes
    r_t = np.abs(r_amp) ** 2
    t_t = flux_ratio * np.abs(t_amp) ** 2
    return np.abs(t_t - transmittance) + np.abs(r_t - reflectance)


def _residual_map(grid: NkGrid, thickness, wavelength, reflectance, transmittance,
                  ambient_index, substrate_index):
    """Residual of one map over the full (n, kappa) grid in one sweep.

    The reference map.  Its seeds are its two lowest 8-neighbour local
    minima (points equal to their _window_min) by (value, row-major
    index), none if its spread is below FLAT_LANDSCAPE_SPAN; extract_nk
    finds them while evaluating only part of the grid.
    """
    n_vals = grid.n_values
    k_vals = grid.kappa_values
    nf = n_vals[:, None] + 1j * k_vals[None, :]
    phase = np.exp(2j * np.pi * nf * thickness / wavelength)
    amplitudes = _airy(_interfaces(nf, ambient_index, substrate_index), phase)
    surface = _surface(amplitudes, reflectance, transmittance, substrate_index / ambient_index)
    return surface, n_vals, k_vals


def _window_min(surface: np.ndarray) -> np.ndarray:
    """Minimum over each point's 3x3 window in the last two axes, edges
    replicated.

    Equal to ``scipy.ndimage.minimum_filter(surface, size=(1, ..., 3, 3),
    mode="nearest")``; a point is an 8-neighbour local minimum exactly
    where it equals its window minimum.
    """
    edged = np.concatenate((surface[..., :1], surface, surface[..., -1:]), axis=-1)
    across = np.minimum(np.minimum(edged[..., :-2], edged[..., 1:-1]), edged[..., 2:])
    edged = np.concatenate((across[..., :1, :], across, across[..., -1:, :]), axis=-2)
    return np.minimum(np.minimum(edged[..., :-2, :], edged[..., 1:-1, :]), edged[..., 2:, :])


class _Maps(NamedTuple):
    """The residual maps of a search as columns: map i is the film of
    thickness[i] measured at wavelength[i]."""

    thickness: np.ndarray
    wavelength: np.ndarray
    reflectance: np.ndarray
    transmittance: np.ndarray

    def k0d(self, maps):
        """k0*d (2 pi d / lambda) of the given maps."""
        return 2.0 * np.pi * self.thickness[maps] / self.wavelength[maps]


class _Discs(NamedTuple):
    """Discs (centre, radius) that hold the film index and the Fresnel
    factors over tiles of the grid, the tiles on the last axis.

    Circular complex arithmetic (Gargantini & Henrici, Numer. Math. 18,
    305 (1972)): r1, r2, t1 = 1 + r1 and t2 = 1 + r2 are Moebius maps of
    the film index, so each maps the index disc onto a disc; a sum or a
    product of discs lies in the disc of the sum or product formula.

    The fields broadcast over sub-tiles laid out as (sub-tile row,
    sub-tile column, tile): n_mid varies along the rows alone; k_mid, k_lo
    and k_hi along the columns alone; and a tile's sub-tiles share one
    radius, the largest of them.
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
    t_lo: np.ndarray  # flux |t1 t2|^2 on the disc, from below
    t_hi: np.ndarray  # and from above
    sound: np.ndarray  # the disc lies in Re(nf) > 0

    def take(self, tiles):
        """The discs of the given tiles, which index each field's last axis."""
        return _Discs(*(np.take(field, tiles, axis=-1) for field in self))


def _disc_product(a, a_rad, b, b_rad):
    return a * b, np.abs(a) * b_rad + np.abs(b) * a_rad + a_rad * b_rad


def _disc_inverse(centre, radius, sound):
    """1/z over the disc around ``centre``, where ``sound`` puts the disc
    in Re(z) > 0 (garbage elsewhere)."""
    scale = np.where(sound, centre.real**2 + centre.imag**2 - radius**2, 1.0)
    return centre.conjugate() / scale, radius / scale


def _span_discs(n_vals, k_vals, rows, cols, ambient_index, substrate_index) -> _Discs:
    """Discs of the tiles from grid row rows[0] to rows[1] and column
    cols[0] to cols[1], index arrays shaped (sub-tile row, 1, tile) and
    (1, sub-tile column, tile)."""
    n_lo, n_hi = n_vals[rows[0]], n_vals[rows[1]]
    k_lo, k_hi = k_vals[cols[0]], k_vals[cols[1]]
    n_mid, k_mid = 0.5 * (n_lo + n_hi), 0.5 * (k_lo + k_hi)
    radius = np.hypot(
        0.5 * (n_hi - n_lo).max(axis=0, keepdims=True),
        0.5 * (k_hi - k_lo).max(axis=1, keepdims=True),
    )
    # Inside Re(nf) > 0 the poles -n0 and -ns of the Fresnel factors lie
    # outside the disc, and |r1|, |r2| < 1.  A tile whose disc reaches
    # further is never ruled out.
    sound = n_mid > radius
    centre = n_mid + 1j * k_mid
    inv1, inv1_rad = _disc_inverse(centre + ambient_index, radius, sound)
    inv2, inv2_rad = _disc_inverse(centre + substrate_index, radius, sound)
    # r1 = 2 n0/(n0 + nf) - 1, r2 = 1 - 2 ns/(nf + ns)
    r1, r1_rad = 2.0 * ambient_index * inv1 - 1.0, 2.0 * ambient_index * inv1_rad
    r2, r2_rad = 1.0 - 2.0 * substrate_index * inv2, 2.0 * substrate_index * inv2_rad
    r12, r12_rad = _disc_product(r1, r1_rad, r2, r2_rad)
    t12, t12_rad = _disc_product(1.0 + r1, r1_rad, 1.0 + r2, r2_rad)
    t12_abs = np.abs(t12)
    flux = substrate_index / ambient_index
    return _Discs(
        n_mid, k_mid, radius, k_lo, k_hi, r1, r1_rad, r2, r2_rad, r12, r12_rad,
        flux * np.maximum(t12_abs - t12_rad, 0.0) ** 2,
        flux * (t12_abs + t12_rad) ** 2,
        sound,
    )


class _Ranges(NamedTuple):
    """R and T over discs, from below and above, and the discs of the phase
    P = exp(2i k0 d nf) and of the numerator r1 + r2 P and denominator
    1 + r1 r2 P of the reflection amplitude (centre, radius)."""

    phase: np.ndarray
    phase_rad: np.ndarray
    num: np.ndarray
    num_rad: np.ndarray
    den: np.ndarray
    den_rad: np.ndarray
    den_lo: np.ndarray  # |1 + r1 r2 P| from below
    den_hi: np.ndarray  # and from above
    r_lo: np.ndarray
    r_hi: np.ndarray
    t_lo: np.ndarray
    t_hi: np.ndarray


def _rt_ranges(discs: _Discs, k0d) -> _Ranges:
    """R and T over each disc for maps of the given k0*d.

    The phase P lies in a disc of radius |P_c| (exp(2 k0 d rho) - 1)
    around its value P_c at the disc centre, as |exp(z) - 1| <= exp(|z|)
    - 1; |P| = exp(-2 k0 d kappa) is bounded by the tile's kappa range;
    and |1 + r1 r2 P| >= 1 - |r1||r2||P| > 0.  The decay and the p_max and
    p_min factors come once per column, the phase once per row.
    """
    decay = np.exp(-2.0 * k0d * discs.k_mid)
    phase = np.exp(2j * k0d * discs.n_mid) * decay
    phase_rad = decay * np.expm1(2.0 * k0d * discs.radius)
    reach = decay + phase_rad
    num = discs.r1 + discs.r2 * phase
    num_rad = discs.r1_rad + np.abs(discs.r2) * phase_rad + discs.r2_rad * reach
    den = 1.0 + discs.r12 * phase
    r12_abs = np.abs(discs.r12)
    den_rad = r12_abs * phase_rad + discs.r12_rad * reach
    p_max = np.exp(-2.0 * k0d * discs.k_lo)
    p_min = np.exp(-2.0 * k0d * discs.k_hi)
    # the largest |r1 r2| on the disc, (|r1| + r1_rad)(|r2| + r2_rad), below 1
    floor = 1.0 - (r12_abs + discs.r12_rad) * p_max
    den_abs, num_abs = np.abs(den), np.abs(num)
    den_lo = np.maximum(den_abs - den_rad, floor)
    den_hi = np.minimum(den_abs + den_rad, 2.0 - floor)
    return _Ranges(
        phase, phase_rad, num, num_rad, den, den_rad, den_lo, den_hi,
        (np.maximum(num_abs - num_rad, 0.0) / den_hi) ** 2,
        ((num_abs + num_rad) / den_lo) ** 2,
        discs.t_lo * p_min / den_hi**2,
        discs.t_hi * p_max / den_lo**2,
    )


def _lower_bounds(discs: _Discs, k0d, reflectance, transmittance):
    """A lower bound on |R - R_measured| + |T - T_measured| over each
    disc, for maps of the given k0*d, R and T."""
    with np.errstate(over="ignore", invalid="ignore"):
        rt = _rt_ranges(discs, k0d)
        gap = np.maximum(np.maximum(rt.r_lo - reflectance, reflectance - rt.r_hi), 0.0)
        gap += np.maximum(np.maximum(rt.t_lo - transmittance, transmittance - rt.t_hi), 0.0)
    # gap >= 0 fails only for a NaN from an overflowing phase radius
    return np.where(discs.sound & (gap >= 0.0), gap - _BOUND_SLACK, -np.inf)


def _scaled(lo, hi, q_lo, q_hi):
    """The range of x q for x in [lo, hi] and q in [q_lo, q_hi], q_lo >= 0."""
    return lo * np.where(lo < 0.0, q_hi, q_lo), hi * np.where(hi > 0.0, q_hi, q_lo)


def _clarke(lo, hi, value_lo, value_hi, measured):
    """The range of the slope of |v - measured|, from the range [lo, hi] of
    the slope of v and [value_lo, value_hi] of v: the sign of v - measured
    times it, or any multiple from -1 to 1 of it where v may meet the
    measured value (Clarke's generalized gradient)."""
    above, below = value_lo > measured, value_hi < measured
    reach = np.maximum(-lo, hi)
    return (np.where(above, lo, np.where(below, -hi, -reach)),
            np.where(above, hi, np.where(below, -lo, reach)))


def _part_range(part, disc):
    """The range of the real or imaginary part of a disc."""
    centre, radius = disc
    return part(centre) - radius, part(centre) + radius


def _slopes(discs: _Discs, k0d, reflectance, transmittance, media, spacing):
    """The sign that the residual f = |R - R_measured| + |T - T_measured|
    of each map keeps along n and along kappa over each disc: +1 or -1
    where its bound times the grid spacing along that axis exceeds
    _BOUND_SLACK, else 0.

    The amplitudes r = (r1 + r2 P)/(1 + r1 r2 P) = N/D and
    t = t1 t2 P^(1/2)/D are holomorphic in nf = n + i kappa, so
    dR/dn = 2 Re(conj(r) r') and dR/dkappa = -2 Im(conj(r) r'), with
    r' = (r1' (1 - r2^2 P^2) + (1 - r1^2) P (r2' + 2i k0d r2))/D^2 and
    conj(r) r' = conj(N) D^2 r' conj(D)/|D|^4; and dT/dn = 2 T Re(L),
    dT/dkappa = -2 T Im(L) with L = t'/t = 1/nf - 1/(n0 + nf)
    - 1/(nf + ns) + i k0d - D'/D.  By Lebourg's mean-value theorem the
    difference of f between two points of the disc is the step times a
    slope of Clarke's generalized gradient at a point between them
    (_clarke), which needs the ranges of R and T over the disc; those of
    the mean-value form about the disc centre are the sharper.  Where a
    range misses the measured value by less than rounding, f differs
    from the smooth function the signs describe by about 1e-16, far below
    the margin.
    """
    ambient, substrate = media
    with np.errstate(all="ignore"):
        rt = _rt_ranges(discs, k0d)
        centre, radius = discs.n_mid + 1j * discs.k_mid, discs.radius
        g1 = _disc_inverse(centre + ambient, radius, discs.sound)
        g2 = _disc_inverse(centre + substrate, radius, discs.sound)
        g1_sq, g2_sq = _disc_product(*g1, *g1), _disc_product(*g2, *g2)
        # r1' = -2 n0 g1^2, 1 - r1^2 = 4 n0 nf g1^2 and r2' = 2 ns g2^2,
        # with g1 = 1/(n0 + nf) and g2 = 1/(nf + ns)
        dr1 = -2.0 * ambient * g1_sq[0], 2.0 * ambient * g1_sq[1]
        one_minus = _disc_product(4.0 * ambient * centre, 4.0 * ambient * radius, *g1_sq)
        dr2 = 2.0 * substrate * g2_sq[0], 2.0 * substrate * g2_sq[1]
        r1, r2 = (discs.r1, discs.r1_rad), (discs.r2, discs.r2_rad)
        phase = rt.phase, rt.phase_rad
        r2p_sq = _disc_product(*_disc_product(*r2, *phase), *_disc_product(*r2, *phase))
        first = _disc_product(*dr1, 1.0 - r2p_sq[0], r2p_sq[1])
        inner = dr2[0] + 2j * k0d * r2[0], dr2[1] + 2.0 * k0d * r2[1]
        second = _disc_product(*one_minus, *_disc_product(*phase, *inner))
        conj_den = rt.den.conjugate(), rt.den_rad
        x = _disc_product(
            rt.num.conjugate(), rt.num_rad, first[0] + second[0], first[1] + second[1]
        )
        x = _disc_product(*x, *conj_den)
        # D' conj(D), D' = P (r1' r2 + r1 r2' + 2i k0d r1 r2)
        terms = (_disc_product(*dr1, *r2), _disc_product(*r1, *dr2),
                 (2j * k0d * discs.r12, 2.0 * k0d * discs.r12_rad))
        q = sum(term[0] for term in terms), sum(term[1] for term in terms)
        e = _disc_product(*_disc_product(*phase, *q), *conj_den)
        inv_nf = _disc_inverse(centre, radius, discs.sound)
        log_t = inv_nf[0] - g1[0] - g2[0] + 1j * k0d, inv_nf[1] + g1[1] + g2[1]
        den_sq = rt.den_lo**2, rt.den_hi**2
        # R and T about their values at the disc centre, by the mean-value
        # theorem, as |dR| <= 2 |conj(r) r'| |dz| and |d log T| <= 2 |L| |dz|:
        # far sharper than the ranges of _rt_ranges on small discs
        r_mid, t_mid = _airy(_interfaces(centre, ambient, substrate), np.exp(1j * k0d * centre))
        r_mid, t_mid = np.abs(r_mid) ** 2, substrate / ambient * np.abs(t_mid) ** 2
        r_reach = 2.0 * radius * (np.abs(x[0]) + x[1]) / den_sq[0] ** 2
        t_reach = np.exp(2.0 * radius * (
            np.abs(log_t[0]) + log_t[1] + (np.abs(e[0]) + e[1]) / den_sq[0]
        ))
        r_lo, r_hi = np.maximum(rt.r_lo, r_mid - r_reach), np.minimum(rt.r_hi, r_mid + r_reach)
        t_lo, t_hi = np.maximum(rt.t_lo, t_mid / t_reach), np.minimum(rt.t_hi, t_mid * t_reach)
        signs = []
        # dR/dn and dT/dn from the real parts, the kappa slopes from the
        # imaginary parts with the opposite sign
        for part, sign, step in ((np.real, 1, spacing[0]), (np.imag, -1, spacing[1])):
            d_r = _scaled(*_part_range(part, x), 1.0 / den_sq[1] ** 2, 1.0 / den_sq[0] ** 2)
            e_lo, e_hi = _scaled(*_part_range(part, e), 1.0 / den_sq[1], 1.0 / den_sq[0])
            l_lo, l_hi = _part_range(part, log_t)
            d_t = _scaled(l_lo - e_hi, l_hi - e_lo, t_lo, t_hi)
            d_r = _clarke(*d_r, r_lo, r_hi, reflectance)
            d_t = _clarke(*d_t, t_lo, t_hi, transmittance)
            lo, hi = 2.0 * (d_r[0] + d_t[0]), 2.0 * (d_r[1] + d_t[1])
            ok = discs.sound & np.isfinite(lo) & np.isfinite(hi)
            rising, falling = ok & (lo * step > _BOUND_SLACK), ok & (hi * step < -_BOUND_SLACK)
            signs.append(sign * (rising.astype(int) - falling))
    return signs


def _tile_origins(shape, size):
    """First row and column of each size x size tile, row-major."""
    rows, cols = np.meshgrid(
        np.arange(0, shape[0], size), np.arange(0, shape[1], size), indexing="ij"
    )
    return rows.ravel(), cols.ravel()


class _Tiling(NamedTuple):
    """The grid, cut into fine tiles of _FINE x _FINE points, row-major,
    which coarse tiles of _COARSE x _COARSE points group."""

    n_vals: np.ndarray
    k_vals: np.ndarray
    media: tuple  # ambient and substrate index
    origins: tuple  # first row and column of each fine tile
    spacing: tuple  # least step between neighbouring n and kappa values

    def tiles(self, size):
        """Tiles of size x size points along the rows and the columns."""
        return -(-self.n_vals.size // size), -(-self.k_vals.size // size)


def _tiling(n_vals, k_vals, ambient_index, substrate_index) -> _Tiling:
    spacing = tuple(float(np.diff(v).min()) if v.size > 1 else 0.0 for v in (n_vals, k_vals))
    return _Tiling(
        n_vals, k_vals, (ambient_index, substrate_index),
        _tile_origins((n_vals.size, k_vals.size), _FINE), spacing,
    )


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


def _sub_tile_bounds(tiling: _Tiling, maps: _Maps, owner, rows, cols, side, counts):
    """Lower bounds of map owner[p] on the side x side sub-tiles of the tile
    whose first row and column are rows[p] and cols[p]: counts[0] x
    counts[1] sub-tiles each, shaped (sub-tile row, sub-tile column, p).

    A call computes the discs of its distinct tiles once and gathers them
    for its pairs, or broadcasts them if all pairs share one tile.  A
    sub-tile past the grid repeats the grid's last row or column, so its
    disc still holds points of the tile only.
    """
    last = (tiling.n_vals.size - 1, tiling.k_vals.size - 1)
    distinct, at = np.unique(rows * (last[1] + 1) + cols, return_inverse=True)
    first_rows = distinct // (last[1] + 1) + side * np.arange(counts[0])[:, None, None]
    first_cols = distinct % (last[1] + 1) + side * np.arange(counts[1])[None, :, None]
    discs = _span_discs(
        tiling.n_vals, tiling.k_vals,
        (np.minimum(first_rows, last[0]), np.minimum(first_rows + side - 1, last[0])),
        (np.minimum(first_cols, last[1]), np.minimum(first_cols + side - 1, last[1])),
        *tiling.media,
    )
    out = np.empty(counts + (owner.size,))
    step = max(1, _BOUNDS_PER_CALL // (counts[0] * counts[1]))
    for lo in range(0, owner.size, step):
        part = slice(lo, lo + step)
        m = owner[part]
        out[..., part] = _lower_bounds(
            discs if distinct.size == 1 else discs.take(at[part]),
            maps.k0d(m), maps.reflectance[m], maps.transmittance[m],
        )
    return out


def _children(tiling: _Tiling, maps: _Maps, owner, coarse):
    """Map, fine tile, bound and sub-tile side (_FINE) of each fine tile of
    the given (map, coarse tile) pairs: entries of the search's queue."""
    side = _COARSE // _FINE
    fine, width = tiling.tiles(_FINE), tiling.tiles(_COARSE)[1]
    rows, cols = coarse // width * side, coarse % width * side
    bound = _sub_tile_bounds(
        tiling, maps, owner, rows * _FINE, cols * _FINE, _FINE, (side, side)
    )
    rows = rows + np.arange(side)[:, None, None]
    cols = cols + np.arange(side)[:, None]
    inside = (rows < fine[0]) & (cols < fine[1])
    owner = np.broadcast_to(owner, inside.shape)[inside]
    return (owner, (rows * fine[1] + cols)[inside], bound[inside],
            np.full(owner.size, _FINE, dtype=np.int8))


def _monotone(tiling: _Tiling, maps: _Maps, owner, tiles):
    """Whether map owner[p] provably holds no local minimum on fine tile
    tiles[p]: its slope along n or kappa keeps one sign (_slopes) over the
    tile widened by one grid step on every side, which covers each point
    of the tile and its neighbours, and each point's lower neighbour that
    way lies inside the grid."""
    shape = (tiling.n_vals.size, tiling.k_vals.size)
    rows, cols = tiling.origins[0][tiles], tiling.origins[1][tiles]
    discs = _span_discs(
        tiling.n_vals, tiling.k_vals,
        (np.maximum(rows - 1, 0)[None, None], np.minimum(rows + _FINE, shape[0] - 1)[None, None]),
        (np.maximum(cols - 1, 0)[None, None], np.minimum(cols + _FINE, shape[1] - 1)[None, None]),
        *tiling.media,
    )
    along_n, along_k = (sign[0, 0] for sign in _slopes(
        discs, maps.k0d(owner), maps.reflectance[owner], maps.transmittance[owner],
        tiling.media, tiling.spacing,
    ))
    return (((along_n > 0) & (rows > 0)) | ((along_n < 0) & (rows + _FINE < shape[0]))
            | ((along_k > 0) & (cols > 0)) | ((along_k < 0) & (cols + _FINE < shape[1])))


def _tile_values(tiling: _Tiling, maps: _Maps, owner, at, rows, cols):
    """Values of map owner[p] at grid rows rows[at[p]] and columns
    cols[at[p]], shaped (p, row, column), bit for bit those of
    _residual_map.

    The Fresnel factors depend on the point alone: once per tile.  The
    phase exp(z), z = 2i pi nf d / lambda, comes from one factor per row
    and one per column.  Re(z) depends on kappa alone and Im(z) on n
    alone, in the last bit too: each part of each complex product and
    quotient that makes z is one rounded product plus exact zeros.  And
    numpy's exp(x + iy) is (exp(x) cos(y), exp(x) sin(y)), which
    exp(x + 0i) times exp(0 + iy) rounds alike.
    """
    n, kappa = tiling.n_vals[rows], tiling.k_vals[cols]
    factors = _interfaces(n[:, :, None] + 1j * kappa[:, None, :], *tiling.media)
    factors = tuple(np.take(f, at, axis=0) for f in factors)
    m = owner[:, None]
    # along the diagonal n[i] + i kappa[i], z holds the parts of every row and column
    z = 2j * np.pi * (n + 1j * kappa)[at] * maps.thickness[m] / maps.wavelength[m]
    phase = np.exp(1j * z.imag)[:, :, None] * np.exp(z.real + 0j)[:, None, :]
    ambient, substrate = tiling.media
    return _surface(
        _airy(factors, phase), maps.reflectance[m, None], maps.transmittance[m, None],
        substrate / ambient,
    )


def _tile_points(tiling: _Tiling, maps: _Maps, owner, distinct, at):
    """Evaluates fine tiles of maps with a one-point halo and keeps the
    core points that equal their window minimum (_window_min): exactly the
    local minima of the full map.

    Pair p is tile distinct[at[p]] of map owner[p].  Returns the pair,
    value and flat index of each kept point, and the largest value of each
    pair.
    """
    shape = (tiling.n_vals.size, tiling.k_vals.size)
    rows = tiling.origins[0][distinct][:, None] + _HALO
    cols = tiling.origins[1][distinct][:, None] + _HALO
    # a point past the grid is read at the nearest grid point, which is the
    # point beside it or that point itself, so it decides no comparison (the
    # edge rule of _window_min) and adds no new value to a tile's largest
    values = _tile_values(
        tiling, maps, owner, at, np.clip(rows, 0, shape[0] - 1), np.clip(cols, 0, shape[1] - 1)
    )
    core = values[:, 1:-1, 1:-1]
    inside = ((rows[:, 1:-1, None] < shape[0]) & (cols[:, None, 1:-1] < shape[1]))[at]
    pair, i, j = np.nonzero(inside & (core <= _window_min(values)[:, 1:-1, 1:-1]))
    index = rows[at[pair], i + 1] * shape[1] + cols[at[pair], j + 1]
    return pair, core[pair, i, j], index, core.max(axis=(1, 2))


def _kth_lowest(maps, values, k, count):
    """Per map of ``count``, the k-th lowest of its values (k may vary by
    map), or inf if it has fewer."""
    order = np.argsort(values)
    # by map, keeping the order of values within a map: a radix sort of
    # small map numbers
    order = order[np.argsort(maps[order].astype(np.min_scalar_type(count)), kind="stable")]
    rank = np.arange(order.size) - np.searchsorted(maps[order], maps[order])
    hit = rank == np.broadcast_to(k, count)[maps[order]] - 1
    kth = np.full(count, np.inf)
    kth[maps[order][hit]] = values[order][hit]
    return kth


def _tile_search(tiling: _Tiling, maps: _Maps):
    """The two lowest local minima of each map, evaluating only the fine
    tiles that can hold one.

    Each map's two lowest local minima so far are rows of two (maps, 2)
    arrays, value and flat index, in ascending (value, index) order.  A
    missing one has value inf and the index one past the grid, so it sorts
    after every minimum found, one of value inf too.  A map's threshold is
    max(v_2, v_1 + FLAT_LANDSCAPE_SPAN), v_k the value of row k.  Each
    round splits the coarse tiles, takes the fine tiles whose lower bound
    (_lower_bounds) is at or below the map's level, its threshold, and
    merges the minima it finds into the rows with one lexsort.  While a
    map has fewer than two local minima it goes best first instead: its
    level is the reach-th best coarse or queued fine bound, starting from
    the number of fine tiles in a coarse tile, and its reach doubles each
    round.

    A taken tile is sharpened before it is evaluated, lazily, as few
    tiles reach this stage: its bound becomes the least bound of its 4 x 4
    sub-tiles, and if that is still at or below the level, by no more than
    that step raised it, the least bound of its 2 x 2 sub-tiles (a tile
    further below its level seldom has a 2 x 2 sub-tile above it, and
    would be taken anyway).  A tile whose sharper bound lies above
    the level goes back into the queue with that bound, to be evaluated
    only if a short map's level grows past it.  A map with two minima
    leaves the tiles it does not take: its level only falls.  A tile still
    taken is dropped unevaluated if the map provably holds no local
    minimum on it (_monotone), and its map is marked as not evaluated in
    full.

    Why a skipped tile cannot matter: every local minimum found is one of
    the full map, as _tile_points reads its neighbours from the halo, so
    v_k found so far is at least the full map's v_k, and thresholds only
    fall.  Every bound, a sharpened one too, is at or below each value on
    its tile, as the sub-tiles cover the tile.  A dropped monotone tile
    holds no local minimum: each of its points has a neighbour inside the
    grid whose value is lower by more than _BOUND_SLACK (the slope's bound
    times the grid spacing), far above the rounding of either value; so
    its map is not flat either.  The rounds stop when no map has a tile
    left at or below its threshold (a map short of minima stops with every
    tile evaluated or dropped; one that found its second minimum in the
    last round that took tiles stops with the tiles above its threshold
    still queued, so a map's flat decision reads its own queue and coarse
    tiles, not the batch's).  Then every skipped point exceeds the
    threshold or is no local minimum, so it can be neither one of the two
    lowest local minima nor tie with one; and a map with a point skipped
    by its bound has one more than FLAT_LANDSCAPE_SPAN above its lowest
    point, so it is not flat.  So the search decides on these minima, and
    on the spread of a map evaluated in full, as the reference map
    (_residual_map) decides: it returns the (maps, 2) indices, or raises
    NoMinimumFound for the first map that is flat or has no local minimum.
    """
    count = maps.thickness.size
    coarse_tiles = tiling.tiles(_COARSE)
    every, corner = np.arange(count), np.zeros(count, dtype=int)
    # the whole grid as one tile, its coarse tiles as sub-tiles
    coarse_bounds = _sub_tile_bounds(
        tiling, maps, every, corner, corner, _COARSE, coarse_tiles
    ).reshape(-1, count).T
    width = coarse_bounds.shape[1]
    ranked = np.sort(coarse_bounds, axis=1)
    ranked = np.concatenate((ranked, np.full((count, 1), np.inf)), axis=1)
    reach = np.full(count, (_COARSE // _FINE) ** 2)  # a coarse tile's worth
    closed = np.ones(coarse_bounds.shape, dtype=bool)  # coarse tiles not yet split
    # map, tile, bound, and the side of the sub-tiles whose least bound it is
    queue = _children(tiling, maps, np.empty(0, dtype=int), np.empty(0, dtype=int))
    missing = tiling.n_vals.size * tiling.k_vals.size  # the index of no minimum
    lowest, index = np.full((count, 2), np.inf), np.full((count, 2), missing)
    top = np.full(count, -np.inf)  # largest value evaluated
    skipped = np.zeros(count, dtype=bool)  # a tile left the queue unevaluated
    while True:
        level = np.maximum(lowest[:, 1], lowest[:, 0] + FLAT_LANDSCAPE_SPAN)  # the threshold
        short = np.isinf(level)
        if short.any():
            waiting = short[queue[0]]
            level[short] = np.minimum(
                ranked[short, np.minimum(reach[short], width + 1) - 1],
                _kth_lowest(queue[0][waiting], queue[2][waiting], reach, count)[short],
            )
            reach[short] *= 2
        opened = np.nonzero(closed & (coarse_bounds <= level[:, None]))
        closed[opened] = False
        queue = tuple(map(np.concatenate, zip(queue, _children(tiling, maps, *opened))))
        limit = level[queue[0]]
        take = queue[2] <= limit
        if not take.any() and not opened[0].size:
            if (level[short] == np.inf).all():
                break
            continue
        # how far the last sharpening raised each bound: a tile that lies
        # further than that below its level is evaluated as it is
        gain = np.full(take.size, np.inf)
        for side in _SUB_TILES:
            refine = np.flatnonzero(
                take & (queue[3] > side) & (limit < np.inf) & (limit - queue[2] <= gain)
            )
            tiles = queue[1][refine]
            sharper = _sub_tile_bounds(
                tiling, maps, queue[0][refine], tiling.origins[0][tiles],
                tiling.origins[1][tiles], side, (_FINE // side,) * 2,
            ).min(axis=(0, 1))
            gain[refine] = sharper - queue[2][refine]
            queue[2][refine] = sharper
            queue[3][refine] = side
            take[refine] = queue[2][refine] <= limit[refine]
        owner, tiles = queue[0][take], queue[1][take]
        # the level of a map with two minima is its threshold, which only
        # falls: a tile it does not take now it never takes
        skip = ~take & ~short[queue[0]]
        skipped[queue[0][skip]] = True
        queue = tuple(column[~take & ~skip] for column in queue)
        monotone = _monotone(tiling, maps, owner, tiles)
        skipped[owner[monotone]] = True
        owner, tiles = owner[~monotone], tiles[~monotone]
        batches = [(np.repeat(every, 2), lowest.ravel(), index.ravel())]
        for part, distinct, at in _by_tile(tiles, _VALUES_PER_CALL // _HALO.size**2):
            pair, value, point, tile_top = _tile_points(tiling, maps, owner[part], distinct, at)
            batches.append((owner[part][pair], value, point))
            np.maximum.at(top, owner[part], tile_top)
        by_map, value, point = (np.concatenate(column) for column in zip(*batches))
        order = np.lexsort((point, value, by_map))
        # every map has two rows or more: keep its first two
        keep = order[np.searchsorted(by_map[order], every)[:, None] + np.arange(2)]
        lowest, index = value[keep], point[keep]

    found = index[:, 0] < missing
    flat = found & ~closed.any(axis=1) & ~skipped & (np.bincount(queue[0], minlength=count) == 0)
    flat[flat] = top[flat] - lowest[flat, 0] < FLAT_LANDSCAPE_SPAN
    failed = flat | ~found
    if failed.any():
        raise NoMinimumFound("residual landscape is flat" if flat[np.argmax(failed)]
                             else "no local minimum on the search grid")
    return index


def _grid_seeds(grid: NkGrid, thickness, wavelength, reflectance, transmittance,
                ambient_index, substrate_index):
    """The seeds of every map's reference map (_residual_map), given by the
    arrays of its thickness, wavelength, R and T, from the tiles that can
    hold a seed (_tile_search): the map, grid row and grid column of each
    seed, as columns by map, then lower minimum first.  The first map that
    is flat or has no local minimum raises NoMinimumFound."""
    tiling = _tiling(grid.n_values, grid.kappa_values, ambient_index, substrate_index)
    index = _tile_search(tiling, _Maps(thickness, wavelength, reflectance, transmittance))
    owner, slot = np.nonzero(index < tiling.n_vals.size * tiling.k_vals.size)  # else missing
    return (owner, *np.divmod(index[owner, slot], tiling.k_vals.size))


def _root_misfits(roots, ambient_index, substrate_index):
    """The objective of extract_nk's refinement, for the roots given as
    rows (thickness, wavelength, R, T) of their maps: at row i, the misfit
    of the trial index n + i kappa, points[i] = (n, kappa), on the map of
    roots[rows[i]]."""

    def misfits(points, rows):
        # a C-contiguous (n, kappa) pair is the complex n + i kappa, bit for bit
        index_film = np.ascontiguousarray(points).view(complex)[:, 0]
        return _misfits(index_film, *roots[rows].T, ambient_index, substrate_index)

    return misfits


def _solve(grid: NkGrid, per_map, ambient_index, substrate_index):
    """extract_nk's candidates of the maps given as rows (thickness,
    wavelength, R, T), as one (rows, 5) array of the columns wavelength,
    n, kappa, residual and thickness: by map, then lower seed first."""
    owner, seed_row, seed_col = _grid_seeds(grid, *per_map.T, ambient_index, substrate_index)
    roots = per_map[owner]
    refined = nelder_mead(
        _root_misfits(roots, ambient_index, substrate_index),
        np.column_stack((grid.n_values[seed_row], grid.kappa_values[seed_col])),
        lower=np.array([grid.n_min, max(grid.kappa_min, 0.0)]),
        upper=np.array([grid.n_max, grid.kappa_max]),
        xatol=1e-9,
        fatol=1e-14,
        maxiter=600,
    )
    return np.column_stack((roots[:, 1], refined.x, refined.fun, roots[:, 0]))


def _slice_count(maps: int) -> int:
    """How many contiguous slices extract_nk solves at once: one per
    usable core, each of at least _MIN_MAPS_PER_SLICE maps, and one where
    the usable cores cannot be read."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), maps // _MIN_MAPS_PER_SLICE))


def _forked(grid: NkGrid, per_map, ambient_index, substrate_index):
    """A forked child that solves the maps (_solve): its pid and the read
    end of the pipe it writes to, or None if no child could be forked.

    The child writes the float64 columns raw and exits 0 only after it
    has written them all.  It always leaves by os._exit: it never returns
    into the caller, flushes no inherited buffer and runs no atexit hook.
    A warning fails it like an exception, so it prints nothing, and the
    parent's second solve of its slice warns or raises as one process
    does."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid:
        os.close(write)
        return pid, read
    status = 1
    try:
        import warnings

        warnings.simplefilter("error")
        os.close(read)
        columns = _solve(grid, per_map, ambient_index, substrate_index)
        with os.fdopen(write, "wb") as pipe:
            pipe.write(columns.tobytes())
        status = 0
    finally:
        os._exit(status)


def _sent(child):
    """The columns a forked child sent, after reaping it; None if there
    is no child, or it exited other than with 0."""
    if child is None:
        return None
    pid, read = child
    try:
        with os.fdopen(read, "rb") as pipe:
            data = pipe.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    return None if status else np.frombuffer(data).reshape(-1, 5)


def thickness_sweep(thickness_range, n_thickness: int) -> np.ndarray:
    """The film thicknesses extract_nk inverts: the one thickness of a
    range whose ends are equal, else n_thickness of them (at least 2, and
    no two equal), evenly spaced from end to end."""
    t_low, t_high = thickness_range
    if not 0.0 < t_low <= t_high <= MAX_THICKNESS:
        raise ValueError(f"thickness_range must be 0 < low <= high <= 1 um, got {thickness_range}")
    if t_low == t_high:
        return np.array([t_low])
    if n_thickness < 2:
        raise ValueError(f"a thickness range needs at least 2 thickness samples, got {n_thickness}")
    sweep = np.linspace(t_low, t_high, n_thickness)
    if not (np.diff(sweep) > 0.0).all():
        raise ValueError(f"{n_thickness} thickness samples repeat a thickness between "
                         f"{t_low!r} and {t_high!r} m")
    return sweep


def extract_nk(spectrum: RTSpectrum, thicknesses, grid: NkGrid, substrate_index: float,
               ambient_index: float) -> NkCandidates:
    """Two candidate (n, kappa) roots per wavelength and swept thickness.

    ``thicknesses`` are the swept films (m), a strictly increasing 1-d
    array in (0, MAX_THICKNESS], as thickness_sweep builds them.  Scans
    the residual over the grid, keeps the two lowest local minima, and
    refines each by simplex descent; select_physical_branch settles which
    root is physical.  The rows come by thickness (ascending), then by
    measurement, then by seed (lower grid minimum first); a map with a
    single local minimum gives one row.

    The grid is searched tile by tile (_grid_seeds): a certified lower
    bound on the residual rules out the tiles of each map that cannot hold
    a seed, a certified slope the tiles that hold no local minimum, and
    the rest are evaluated in the reference arithmetic.  The seeds are
    always those of the full reference map (_residual_map).

    All roots are refined together by numerics.simplex.nelder_mead, the
    shared lockstep Nelder-Mead, whose every root ends where scipy's
    Nelder-Mead from the same seed ends, with the same residual.

    As the search decides each map from its own bounds and values, and
    each root of the refine takes the steps scipy takes for it alone, a
    map's candidates do not depend on the maps solved beside it.  So the
    maps are cut into contiguous slices, one per usable core
    (os.sched_getaffinity) with at least _MIN_MAPS_PER_SLICE maps each:
    this process solves the first, a forked child each other, and the
    slices are joined in map order.  A child that fails has its slice
    solved again here, so a failure (NoMinimumFound for the first map
    that has no minimum included) is raised as in one process.  Every
    child has been reaped when this returns or raises.
    """
    if not spectrum.wavelength.size:
        raise ValueError("at least one measurement is required")
    swept = np.asarray(thicknesses, dtype=float)
    if not (swept.ndim == 1 and swept.size and (np.diff(swept) > 0.0).all()
            and 0.0 < swept[0] and swept[-1] <= MAX_THICKNESS):
        raise ValueError("thicknesses must be a non-empty, strictly increasing 1-d array "
                         f"in (0, 1 um], got {swept!r}")
    _check_stack(swept, substrate_index, ambient_index)
    measured = np.column_stack((spectrum.wavelength, spectrum.reflectance, spectrum.transmittance))
    # one map per (thickness, measurement): thickness, wavelength, R, T
    per_map = np.column_stack(
        (np.repeat(swept, len(measured)), np.tile(measured, (swept.size, 1)))
    )
    parts = np.array_split(per_map, _slice_count(len(per_map)))
    children = []
    try:
        for part in parts[1:]:
            children.append(_forked(grid, part, ambient_index, substrate_index))
        columns = [_solve(grid, parts[0], ambient_index, substrate_index)]
    except BaseException:
        import signal

        for child in filter(None, children):
            os.kill(child[0], signal.SIGKILL)
        raise
    finally:
        sent = [_sent(child) for child in children]
    # a slice whose child failed is solved here, so that its failure is
    # raised as one process raises it
    columns += [
        _solve(grid, part, ambient_index, substrate_index) if got is None else got
        for part, got in zip(parts[1:], sent)
    ]
    return NkCandidates(*np.concatenate(columns).T)


def thickness_rescale(kappa, thickness_used: float, thickness_reference: float):
    """Deconvolution identity: kappa (a float or an array) scales with the
    thickness ratio."""
    check(thickness_used, positive, "thickness_used must be finite and > 0")
    check(thickness_reference, positive, "thickness_reference must be finite and > 0")
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
    check(ambiguity_threshold, non_negative, "ambiguity_threshold must be finite and >= 0")
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


def physical_curve(candidates: NkCandidates, reference_thickness, n_asymptote) -> NkCandidates:
    """nk.csv's rows, one per wavelength, ascending: the candidates of the
    swept thickness nearest reference_thickness (the thinner one on an
    exact tie) with kappa rescaled onto reference_thickness, the smoother
    branch (select_physical_branch), and n closed from its kappa over the
    ascending energies (close_with_kk); the thickness stays the swept one."""
    swept = candidates.thickness
    gap = np.abs(swept - reference_thickness)
    nearest = swept[gap == gap.min()].min()
    pool = candidates.take(swept == nearest)
    pool = pool._replace(kappa=thickness_rescale(pool.kappa, nearest, reference_thickness))
    curve = pool.take(select_physical_branch(pool))
    energies = vacuum_wavelength_m_to_ev(curve.wavelength)[::-1]  # ascending
    return curve._replace(n=close_with_kk(energies, curve.kappa[::-1], n_asymptote)[::-1])


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
