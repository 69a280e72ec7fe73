"""Thin-film optical constants from normal-incidence reflectance and
transmittance.

Forward model: one coherent absorbing layer between a semi-infinite
ambient and a semi-infinite transparent substrate (Airy summation of the
two-interface Fresnel amplitudes).  Inversion: grid search for the two
lowest residual minima per wavelength, simplex refinement, a thickness
sweep with the kappa deconvolution identity, smoothness-based rejection
of the spurious solution branch, and a dispersion-relation closure that
rebuilds n from the retained kappa curve.

The grid search screens every (wavelength, thickness) map from Fresnel
factors computed once per call.  The screened map differs from the
reference map (``_residual_map``) only by rounding, so it settles the two
lowest minima wherever they clear that rounding by SCREEN_MARGIN; close
calls are settled on the reference map, and the seeds are the ones the
reference map alone would give.

The refinement polishes all roots at once: one bounded Nelder-Mead
(Lagarias et al., SIAM J. Optim. 9, 112 (1998)) run in lockstep, in which
each root takes exactly the steps of
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

import numpy as np

from .constants import vacuum_wavelength_m_to_ev
from .numerics import kramers_kronig_real

NOISE_ALLOWANCE = 0.02
FLAT_LANDSCAPE_SPAN = 1e-15
# Bound on |screened map - reference map|, with headroom: the largest
# difference over the 303 maps of the packaged fixture is 2.2e-15.
SCREEN_MARGIN = 1e-12
# Rows of the grid screened at once, so that a block's temporaries stay
# in a core's L2 cache (32 rows of 641 kappa values: 330 kB per array).
_SCREEN_ROWS = 32


class NoMinimumFound(Exception):
    """Residual landscape has no interior minimum to refine."""


class BranchAmbiguous(Exception):
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
        if self.n_min >= self.n_max or self.kappa_min >= self.kappa_max:
            raise ValueError("grid bounds must be ordered")
        if self.n_step <= 0.0 or self.kappa_step <= 0.0:
            raise ValueError("grid steps must be > 0")
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


def _amplitudes(index_film, stack: FilmStack, wavelength):
    """Airy reflection and transmission amplitudes over a grid of film
    indices, rounded as numpy's array loops round (see _rt)."""
    nf = np.asarray(index_film, dtype=complex)
    r1, r2, t12 = _interfaces(nf, stack.ambient_index, stack.substrate_index)
    phase = np.exp(2j * np.pi * nf * stack.thickness / wavelength)
    denom = 1.0 + r1 * r2 * phase**2
    return (r1 + r2 * phase**2) / denom, t12 * phase / denom


# Every bit of a residual steers the simplex: rounded as numpy's array
# loops round, 89 of the 606 refined roots of the packaged fixture move,
# by up to 6.7e-8.  So _rt rounds as numpy's scalar arithmetic does, the
# one-root-at-a-time form of the model.  A complex scalar product is
# (ar*br - ai*bi, ar*bi + ai*br) without fused multiply-adds, which the
# array loop may use, and a float64 scalar squares through libm pow, which
# is not x*x in the last bit.  Complex division, abs, exp, and adding or
# subtracting a float round alike in both.
_libm_square = np.frompyfunc(lambda x: math.pow(x, 2.0), 1, 1)


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
    reflectance = _libm_square(np.abs(r_amp)).astype(float)
    return reflectance, flux_ratio * _libm_square(np.abs(t_amp)).astype(float)


def _misfits(index_film, thickness, wavelength, reflectance, transmittance,
             ambient_index, substrate_index):
    """|T - T_measured| + |R - R_measured|, elementwise as in _rt."""
    r_t, t_t = _rt(index_film, thickness, wavelength, ambient_index, substrate_index)
    return np.abs(t_t - transmittance) + np.abs(r_t - reflectance)


def rt_theoretical(stack: FilmStack, wavelength: float) -> TheoreticalRT:
    """Normal-incidence R and T of the film between two half-spaces."""
    if wavelength <= 0.0:
        raise ValueError(f"wavelength must be > 0, got {wavelength}")
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
    if kappa < 0.0:
        raise ValueError("film index must have a non-negative imaginary part")
    misfit = _misfits(
        [complex(n, kappa)], stack.thickness, measurement.wavelength,
        measurement.reflectance, measurement.transmittance,
        stack.ambient_index, stack.substrate_index,
    )
    return float(misfit[0])


def _residual_map(grid: NkGrid, stack: FilmStack, measurement: RTMeasurement):
    """Residual over the full (n, kappa) grid in one vectorized sweep.

    The reference for the screened map: extract_nk settles close calls on it.
    """
    n_vals = grid.n_values
    k_vals = grid.kappa_values
    nf = n_vals[:, None] + 1j * k_vals[None, :]
    r_amp, t_amp = _amplitudes(nf, stack, measurement.wavelength)
    flux_ratio = stack.substrate_index / stack.ambient_index
    r_t = np.abs(r_amp) ** 2
    t_t = flux_ratio * np.abs(t_amp) ** 2
    return (
        np.abs(t_t - measurement.transmittance)
        + np.abs(r_t - measurement.reflectance),
        n_vals,
        k_vals,
    )


def _fresnel_factors(n_vals, k_vals, ambient_index, substrate_index):
    """Grid factors of the Airy sum that depend on neither wavelength nor
    thickness: r1, r2, r1*r2 and the flux-weighted |t1*t2|^2."""
    nf = n_vals[:, None] + 1j * k_vals[None, :]
    r1, r2, t12 = _interfaces(nf, ambient_index, substrate_index)
    transfer = (substrate_index / ambient_index) * (t12.real**2 + t12.imag**2)
    return r1, r2, r1 * r2, transfer


def _screen_map(factors, n_vals, k_vals, thickness, measurement: RTMeasurement):
    """The residual map of _residual_map, rebuilt from _fresnel_factors.

    With P = exp(2i k0 d nf) = exp(2i k0 d n) * exp(-2 k0 d kappa), a
    row factor times a column factor:
    R = |r1 + r2 P|^2 / |1 + r1 r2 P|^2 and
    T = flux |t1 t2|^2 exp(-2 k0 d kappa) / |1 + r1 r2 P|^2.
    The reassociated arithmetic differs from the reference by rounding
    only, well inside SCREEN_MARGIN.
    """
    r1, r2, r12, transfer = factors
    k0d = 2.0 * np.pi * thickness / measurement.wavelength
    row_phase = np.exp(2j * k0d * n_vals)[:, None]
    decay = np.exp(-2.0 * k0d * k_vals)
    surface = np.empty(r1.shape)
    for lo in range(0, surface.shape[0], _SCREEN_ROWS):
        rows = slice(lo, lo + _SCREEN_ROWS)
        p = row_phase[rows] * decay
        num = r2[rows] * p
        num += r1[rows]
        den = np.multiply(r12[rows], p, out=p)
        den += 1.0
        den_sq = den.real**2 + den.imag**2
        refl = num.real**2 + num.imag**2
        refl /= den_sq
        refl -= measurement.reflectance
        trans = transfer[rows] * decay
        trans /= den_sq
        trans -= measurement.transmittance
        np.add(np.abs(trans), np.abs(refl), out=surface[rows])
    return surface


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
    """Indices of the two lowest local minima (8-neighbor) of a surface."""
    if np.ptp(surface) < FLAT_LANDSCAPE_SPAN:
        raise NoMinimumFound("residual landscape is flat")
    local = surface <= _window_min(surface)
    rows, cols = np.nonzero(local)
    if rows.size == 0:
        raise NoMinimumFound("no local minimum on the search grid")
    order = np.argsort(surface[rows, cols], kind="stable")[:2]
    return [(int(rows[i]), int(cols[i])) for i in order]


def _screened_minima(surface: np.ndarray):
    """_two_lowest_minima of the reference map, read off a screened map.

    ``surface`` is within SCREEN_MARGIN of the reference map, so every
    reference minimum lies within 2*SCREEN_MARGIN of its window minimum
    here.  The two lowest such points are the reference's answer when each
    is lower than all its neighbours by more than 2*SCREEN_MARGIN and the
    three lowest are more than 2*SCREEN_MARGIN apart.  Returns None when
    the screened map cannot decide.
    """
    band = 2.0 * SCREEN_MARGIN
    if not np.ptp(surface) > FLAT_LANDSCAPE_SPAN + band:
        return None
    rows, cols = np.nonzero(surface <= _window_min(surface) + band)
    values = surface[rows, cols]
    order = np.argsort(values, kind="stable")[:3]
    if np.any(np.diff(values[order]) <= band):
        return None
    seeds = [(int(rows[i]), int(cols[i])) for i in order[:2]]
    for row, col in seeds:
        r0, c0 = max(row - 1, 0), max(col - 1, 0)
        neighbours = surface[r0 : row + 2, c0 : col + 2].copy()
        neighbours[row - r0, col - c0] = np.inf
        if not surface[row, col] < neighbours.min() - band:
            return None
    return seeds


# Weights of (centroid, worst vertex) in the expansion, outside-contraction
# and inside-contraction points: reflection rho = 1, expansion chi = 2,
# contraction psi = 0.5, as in scipy's non-adaptive Nelder-Mead.
_TRIAL_WEIGHTS = np.array([[3.0, -2.0], [1.5, -0.5], [0.5, 0.5]])


def _sort_simplices(sim, fsim):
    """Each simplex's vertices in ascending order of value; ties fall as in
    scipy, whose 1-D argsort is the same sort as a row of this one."""
    order = np.argsort(fsim, axis=1)
    return (
        np.take_along_axis(sim, order[:, :, None], axis=1),
        np.take_along_axis(fsim, order, axis=1),
    )


def _nelder_mead(objective, x0, lower, upper, maxiter=600):
    """Bounded Nelder-Mead from every row of x0 at once.

    Each row takes the steps, and gets the result, of
    scipy.optimize.minimize(method="Nelder-Mead", bounds=..., options=
    {"xatol": 1e-9, "fatol": 1e-14, "maxiter": maxiter}) started from it:
    the same initial simplex, branches, clipping, convergence test and
    vertex order, in the same floating-point operations.
    ``objective(points, rows)`` evaluates row ``rows[i]``'s function at
    ``points[i]``; each iteration makes at most three calls for all rows.
    Returns x, fun, nfev and nit per row.
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
        converged = (np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) <= 1e-9) & (
            np.abs(fs[:, :1] - fs[:, 1:]).max(axis=1) <= 1e-14
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
    return sim[:, 0], fsim.min(axis=1), nfev, nit


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

    Every map is first screened from Fresnel factors computed once for the
    grid (_screen_map).  Where two minima are too close to call on the
    screened map, the seeds come from the reference map (_residual_map),
    computed after the factors are freed, so the seeds are always those of
    the reference map.

    All roots are refined together by _nelder_mead, one lockstep
    Nelder-Mead whose every root ends where scipy's Nelder-Mead from the
    same seed ends, with the same residual.
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

    n_vals, k_vals = grid.n_values, grid.kappa_values
    factors = _fresnel_factors(n_vals, k_vals, ambient_index, substrate_index)
    seeds = [
        _screened_minima(_screen_map(factors, n_vals, k_vals, stack.thickness, meas))
        for stack, meas in maps
    ]
    del factors  # before any reference map, which needs the memory

    roots = []
    for (stack, meas), found in zip(maps, seeds):
        if found is None:
            found = _two_lowest_minima(_residual_map(grid, stack, meas)[0])
        roots += [(stack, meas, (n_vals[row], k_vals[col])) for row, col in found]
    thickness, wavelength, reflectance, transmittance = np.array(
        [(stack.thickness, meas.wavelength, meas.reflectance, meas.transmittance)
         for stack, meas, _ in roots]
    ).T

    def misfits(points, rows):
        return _misfits(
            points[:, 0] + 1j * points[:, 1], thickness[rows], wavelength[rows],
            reflectance[rows], transmittance[rows], ambient_index, substrate_index,
        )

    fitted, fun, _, _ = _nelder_mead(
        misfits,
        np.array([seed for _, _, seed in roots]),
        lower=np.array([grid.n_min, max(grid.kappa_min, 0.0)]),
        upper=np.array([grid.n_max, grid.kappa_max]),
    )
    return [
        NkCandidate(
            wavelength=meas.wavelength,
            n=float(n_fit),
            kappa=float(k_fit),
            residual=float(res),
            branch=Branch.UNRESOLVED,
            thickness_used=stack.thickness,
        )
        for (stack, meas, _), (n_fit, k_fit), res in zip(roots, fitted, fun)
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


def write_nk_csv(path, candidates) -> None:
    """Candidate table: wavelength_nm,energy_eV,n,kappa,branch,residual."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["wavelength_nm", "energy_eV", "n", "kappa", "branch", "residual"])
        for c in sorted(candidates, key=lambda c: c.wavelength):
            writer.writerow(
                [
                    f"{c.wavelength * 1e9:.17g}",
                    f"{vacuum_wavelength_m_to_ev(c.wavelength):.17g}",
                    f"{c.n:.17g}",
                    f"{c.kappa:.17g}",
                    c.branch.value,
                    f"{c.residual:.17g}",
                ]
            )
