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
"""

from __future__ import annotations

import cmath
import csv
import dataclasses
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np
from scipy import optimize

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


def _interfaces(index_film, ambient_index, substrate_index):
    """Fresnel amplitudes r1, r2 and t1*t2 of the two film interfaces."""
    n0, ns, nf = ambient_index, substrate_index, index_film
    r1 = (n0 - nf) / (n0 + nf)
    r2 = (nf - ns) / (nf + ns)
    t1 = 2.0 * n0 / (n0 + nf)
    t2 = 2.0 * nf / (nf + ns)
    return r1, r2, t1 * t2


def _amplitudes(index_film, stack: FilmStack, wavelength):
    """Airy reflection and transmission amplitudes, vectorized in index."""
    nf = np.asarray(index_film, dtype=complex)
    r1, r2, t12 = _interfaces(nf, stack.ambient_index, stack.substrate_index)
    phase = np.exp(2j * np.pi * nf * stack.thickness / wavelength)
    denom = 1.0 + r1 * r2 * phase**2
    return (r1 + r2 * phase**2) / denom, t12 * phase / denom


def _rt(index_film, stack: FilmStack, wavelength):
    """Scalar R and T of the stack with the given film index."""
    r_amp, t_amp = _amplitudes(index_film, stack, wavelength)
    flux_ratio = stack.substrate_index / stack.ambient_index
    return float(np.abs(r_amp) ** 2), float(flux_ratio * np.abs(t_amp) ** 2)


def rt_theoretical(stack: FilmStack, wavelength: float) -> TheoreticalRT:
    """Normal-incidence R and T of the film between two half-spaces."""
    if wavelength <= 0.0:
        raise ValueError(f"wavelength must be > 0, got {wavelength}")
    reflectance, transmittance = _rt(stack.film_index, stack, wavelength)
    return TheoreticalRT(reflectance=reflectance, transmittance=transmittance)


def residual(n: float, kappa: float, stack: FilmStack, measurement: RTMeasurement) -> float:
    """Sum of absolute R and T misfits for a trial (n, kappa).

    Only the film index of ``stack`` is replaced by the trial value.
    """
    if kappa < 0.0:
        raise ValueError("film index must have a non-negative imaginary part")
    reflectance, transmittance = _rt(complex(n, kappa), stack, measurement.wavelength)
    return abs(transmittance - measurement.transmittance) + abs(
        reflectance - measurement.reflectance
    )


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


def _refine(seed_n, seed_k, grid: NkGrid, stack: FilmStack, measurement: RTMeasurement):
    """Polish one grid minimum with a bounded simplex descent."""
    result = optimize.minimize(
        lambda x: residual(x[0], x[1], stack, measurement),
        x0=[seed_n, seed_k],
        method="Nelder-Mead",
        bounds=[(grid.n_min, grid.n_max), (max(grid.kappa_min, 0.0), grid.kappa_max)],
        options={"xatol": 1e-9, "fatol": 1e-14, "maxiter": 600},
    )
    return float(result.x[0]), float(result.x[1]), float(result.fun)


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

    candidates: list[NkCandidate] = []
    for (stack, meas), found in zip(maps, seeds):
        if found is None:
            found = _two_lowest_minima(_residual_map(grid, stack, meas)[0])
        for row, col in found:
            n_fit, k_fit, res = _refine(n_vals[row], k_vals[col], grid, stack, meas)
            candidates.append(
                NkCandidate(
                    wavelength=meas.wavelength,
                    n=n_fit,
                    kappa=k_fit,
                    residual=res,
                    branch=Branch.UNRESOLVED,
                    thickness_used=stack.thickness,
                )
            )
    return candidates


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
