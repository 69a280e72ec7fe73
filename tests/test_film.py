"""Film R/T forward model against a transfer-matrix oracle, inversion
round trips, branch selection, and the dispersion-integral closure."""

import csv
import dataclasses
import errno
import functools
import os
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage, optimize

from lsepkit import cli, film, medium
from lsepkit.constants import EV_TO_RADS, ev_to_vacuum_wavelength_m, vacuum_wavelength_m_to_ev
from lsepkit.film import (
    NOISE_ALLOWANCE,
    BranchAmbiguous,
    NkCandidates,
    NkGrid,
    NoMinimumFound,
    RTSpectrum,
    _residual_map,
    _window_min,
    close_with_kk,
    extract_nk,
    read_rt_csv,
    residual,
    rt_theoretical,
    select_physical_branch,
    thickness_rescale,
    write_rt_csv,
)
from lsepkit.numerics import nelder_mead


def transfer_matrix_rt(film_index, thickness, wavelength, ambient=1.0, substrate=1.52):
    """Independent oracle: characteristic-matrix form of the same stack."""
    delta = 2.0 * np.pi * film_index * thickness / wavelength
    b_val = np.cos(delta) - 1j * np.sin(delta) / film_index * substrate
    c_val = -1j * film_index * np.sin(delta) + np.cos(delta) * substrate
    r_amp = (ambient * b_val - c_val) / (ambient * b_val + c_val)
    t_amp = 2.0 * ambient / (ambient * b_val + c_val)
    return abs(r_amp) ** 2, (substrate / ambient) * abs(t_amp) ** 2


def rows_of(spectrum, rows):
    """The spectrum of the given rows (indices, a slice or a mask)."""
    return RTSpectrum(
        spectrum.wavelength[rows], spectrum.reflectance[rows], spectrum.transmittance[rows]
    )


def synthetic_measurements(thickness=70e-9):
    """Smooth dispersive film curve pushed through the forward model."""
    wavelengths = np.linspace(500e-9, 650e-9, 16)
    n_true = 1.6 + 0.25 * np.exp(-(((wavelengths - 580e-9) / 30e-9) ** 2))
    k_true = 0.9 * np.exp(-(((wavelengths - 586e-9) / 25e-9) ** 2))
    reflectance, transmittance = rt_theoretical(n_true + 1j * k_true, thickness, wavelengths)
    return RTSpectrum(wavelengths, reflectance, transmittance), n_true, k_true


# extract-nk's default sweep, as the CLI builds it from its nm keys
SWEEP = film.thickness_sweep((63 * 1e-9, 77 * 1e-9), 3)


def _two_lowest_minima(surface: np.ndarray):
    """Indices of the two lowest local minima (8-neighbor) of a surface:
    the full-grid rule that the tile search reproduces (film._grid_seeds),
    the oracle of its tests."""
    if np.ptp(surface) < film.FLAT_LANDSCAPE_SPAN:
        raise NoMinimumFound("residual landscape is flat")
    local = surface <= _window_min(surface)
    rows, cols = np.nonzero(local)
    if rows.size == 0:
        raise NoMinimumFound("no local minimum on the search grid")
    order = np.argsort(surface[rows, cols], kind="stable")[:2]
    return [(int(rows[i]), int(cols[i])) for i in order]


class TestForwardModel:
    def test_matches_transfer_matrix_oracle(self):
        rng = np.random.default_rng(5)
        n, kappa, t, lam = rng.uniform(
            [1.0, 0.0, 20e-9, 400e-9], [3.5, 3.0, 200e-9, 700e-9], size=(100, 4)
        ).T
        nf = n + 1j * kappa
        reflectance, transmittance = rt_theoretical(nf, t, lam)
        r_ref, t_ref = transfer_matrix_rt(nf, t, lam)
        assert np.all(np.abs(reflectance - r_ref) < 1e-10)
        assert np.all(np.abs(transmittance - t_ref) < 1e-10)

    def test_uniform_space_is_transparent(self):
        reflectance, transmittance = rt_theoretical(1.0 + 0j, 70e-9, 600e-9, substrate_index=1.0)
        assert abs(reflectance) < 1e-14
        assert abs(transmittance - 1.0) < 1e-14

    def test_absentee_half_wave_layer(self):
        lam = 600e-9
        nf = 2.0 + 0j
        reflectance, transmittance = rt_theoretical(nf, lam / (2.0 * nf.real), lam)
        bare = abs((1.0 - 1.52) / (1.0 + 1.52)) ** 2
        assert abs(reflectance - bare) < 1e-14

    def test_thick_absorbing_film_shows_front_interface(self):
        nf = 2.0 + 1.0j
        reflectance, transmittance = rt_theoretical(nf, 5e-6, 600e-9)
        front = abs((1.0 - nf) / (1.0 + nf)) ** 2
        assert abs(reflectance - front) < 1e-12
        assert transmittance < 1e-30

    def test_energy_bounds(self):
        rng = np.random.default_rng(9)
        kappa, n, thickness, wavelength = np.array([
            (rng.choice([0.0, rng.uniform(0.05, 2.0)]), rng.uniform(1.0, 3.0),
             rng.uniform(30e-9, 150e-9), rng.uniform(400e-9, 700e-9))
            for _ in range(50)
        ]).T
        reflectance, transmittance = rt_theoretical(n + 1j * kappa, thickness, wavelength)
        total = reflectance + transmittance
        lossless = kappa == 0.0
        assert lossless.any() and not lossless.all()
        assert np.all(np.abs(total[lossless] - 1.0) < 1e-10)
        assert np.all(total[~lossless] < 1.0)

    def test_wavelength_guard(self):
        with pytest.raises(ValueError):
            rt_theoretical(1.5 + 0j, 70e-9, -1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_wavelength_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="wavelength must be finite"):
            rt_theoretical(1.5 + 0j, 70e-9, bad)
        # in an array, the first bad value is named
        with pytest.raises(ValueError, match=f"wavelength must be finite and > 0, got {bad}"):
            rt_theoretical(1.5 + 0j, 70e-9, [600e-9, bad, -1.0])


class TestValidation:
    def test_stack_rejects_gain_film(self):
        with pytest.raises(ValueError):
            rt_theoretical(1.5 - 0.1j, 70e-9, 600e-9)
        with pytest.raises(ValueError, match="non-negative imaginary"):
            rt_theoretical(np.array([1.5 + 0.1j, 1.5 - 0.1j]), 70e-9, 600e-9)

    def test_stack_rejects_nonpositive_thickness(self):
        with pytest.raises(ValueError):
            rt_theoretical(1.5 + 0j, 0.0, 600e-9)
        with pytest.raises(ValueError, match="thickness must be finite and > 0, got 0.0"):
            rt_theoretical(1.5 + 0j, [70e-9, 0.0], 600e-9)

    def test_empty_measurement_is_rejected(self):
        with pytest.raises(ValueError, match="^at least one measurement is required$"):
            extract_nk(RTSpectrum([], [], []), SWEEP, NkGrid(), 1.52, 1.0)

    def test_measurement_bounds(self):
        with pytest.raises(ValueError):
            RTSpectrum([600e-9], [1.2], [0.0])
        with pytest.raises(ValueError):
            RTSpectrum([600e-9], [0.6], [0.6])
        RTSpectrum([600e-9], [0.51], [0.50])  # inside the noise allowance
        # the allowance itself is accepted
        assert 0.52 + 0.5 == 1.0 + NOISE_ALLOWANCE
        RTSpectrum([600e-9], [0.52], [0.5])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_measurement_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            RTSpectrum([bad], [0.1], [0.8])
        with pytest.raises(ValueError):
            RTSpectrum([600e-9], [bad], [0.8])
        with pytest.raises(ValueError):
            RTSpectrum([600e-9], [0.1], [bad])

    @pytest.mark.parametrize(
        "column, value, fault",
        [
            (1, -0.1, "reflectance must lie in [0, 1], got -0.1"),
            (1, 1.5, "reflectance must lie in [0, 1], got 1.5"),
            (2, -0.1, "transmittance must lie in [0, 1], got -0.1"),
            (2, 1.5, "transmittance must lie in [0, 1], got 1.5"),
            (2, 0.95, "R + T = 1.0500 exceeds 1 + 0.02 noise allowance"),
            (0, float("nan"), "wavelength must be finite and > 0, got nan"),
            (0, float("inf"), "wavelength must be finite and > 0, got inf"),
            (0, 0.0, "wavelength must be finite and > 0, got 0.0"),
            (1, float("nan"), "reflectance must lie in [0, 1], got nan"),
            (2, float("inf"), "transmittance must lie in [0, 1], got inf"),
        ],
    )
    def test_spectrum_names_the_first_bad_row(self, column, value, fault):
        # rows 2 and 4 are bad; row 0 sits on the noise allowance
        columns = np.array([[500e-9, 550e-9, 600e-9, 650e-9, 700e-9],
                            [0.52, 0.1, 0.1, 0.1, 0.1],
                            [0.5, 0.8, 0.8, 0.8, 0.8]])
        columns[column, [2, 4]] = value
        with pytest.raises(ValueError) as raised:
            RTSpectrum(*columns)
        assert str(raised.value) == f"row 2: {fault}"

    def test_spectrum_columns_must_match(self):
        with pytest.raises(ValueError, match="matching 1-d"):
            RTSpectrum([500e-9, 600e-9], [0.1], [0.8])
        with pytest.raises(ValueError, match="matching 1-d"):
            RTSpectrum([[500e-9]], [[0.1]], [[0.8]])
        spectrum = RTSpectrum([], [], [])
        assert spectrum.wavelength.dtype == float and spectrum.wavelength.size == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_stack_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            rt_theoretical(1.5 + 0j, bad, 600e-9)
        with pytest.raises(ValueError):
            rt_theoretical(complex(bad, 0.1), 70e-9, 600e-9)
        with pytest.raises(ValueError):
            rt_theoretical(complex(1.5, bad), 70e-9, 600e-9)
        with pytest.raises(ValueError):
            rt_theoretical(1.5 + 0j, 70e-9, 600e-9, substrate_index=bad)
        with pytest.raises(ValueError):
            rt_theoretical(1.5 + 0j, 70e-9, 600e-9, ambient_index=bad)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            NkGrid(n_min=2.0, n_max=1.0)
        with pytest.raises(ValueError):
            NkGrid(kappa_min=-0.5)

    @pytest.mark.parametrize(
        "field", ["n_min", "n_max", "n_step", "kappa_min", "kappa_max", "kappa_step"]
    )
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_grid_rejects_non_finite(self, field, bad):
        with pytest.raises(ValueError, match="finite"):
            NkGrid(**{field: bad})

    @pytest.mark.parametrize("n_min", [0.0, -1.0])
    def test_grid_rejects_non_positive_n_min(self, n_min):
        # n_min = -1 would put the pole nf = -n0 of r1 on the grid
        with pytest.raises(ValueError, match="n_min"):
            NkGrid(n_min=n_min)


class TestResidual:
    def test_zero_at_truth_and_positive_nearby(self):
        reflectance, transmittance = rt_theoretical(2.1 + 0.7j, 70e-9, 574e-9)
        meas = RTSpectrum([574e-9], [reflectance], [transmittance])
        assert residual(2.1, 0.7, 70e-9, meas)[0] < 1e-12
        assert residual(2.2, 0.7, 70e-9, meas)[0] > 0.0
        assert residual(1.3, 0.2, 70e-9, meas)[0] >= 0.0

    def test_flat_landscape_raises(self):
        with pytest.raises(NoMinimumFound):
            _two_lowest_minima(np.full((11, 11), 0.25))

    def test_rejects_gain_trial(self):
        with pytest.raises(ValueError):
            residual(1.5, -0.1, 70e-9, RTSpectrum([600e-9], [0.1], [0.8]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_trial(self, bad):
        meas = RTSpectrum([600e-9], [0.1], [0.8])
        with pytest.raises(ValueError, match="n must be finite"):
            residual(bad, 0.1, 70e-9, meas)
        with pytest.raises(ValueError, match="kappa must be finite"):
            residual(1.5, bad, 70e-9, meas)
        with pytest.raises(ValueError, match="thickness must be finite"):
            residual(1.5, 0.1, bad, meas)


_SIDE = st.integers(2, 16)
_SHAPES = st.one_of(
    st.tuples(_SIDE, _SIDE),
    st.tuples(st.just(1), st.integers(1, 16)),
    st.tuples(st.integers(1, 16), st.just(1)),
)
_SURFACES = st.one_of(
    arrays(np.float64, _SHAPES, elements=st.floats(-1e3, 1e3)),
    # few distinct levels: plateaus and ties between neighbours
    arrays(np.float64, _SHAPES, elements=st.sampled_from([0.0, 0.25, 0.5])),
)


@given(_SURFACES)
def test_window_min_equals_minimum_filter(surface):
    reference = ndimage.minimum_filter(surface, size=3, mode="nearest")
    window = _window_min(surface)
    assert np.array_equal(window, reference)
    assert np.array_equal(surface <= window, surface <= reference)
    # a stack of surfaces, each filtered alone, as the tile search filters
    # its stack of tiles with their halos
    stack = np.stack([surface, -surface, surface[::-1, ::-1]])
    assert np.array_equal(
        _window_min(stack), ndimage.minimum_filter(stack, size=(1, 3, 3), mode="nearest")
    )


class TestCloseCalls:
    """The grid search on the packaged fixture at the CLI's lowest default
    thickness.  At 472.5-480 nm two local minima on the kappa = 0 edge
    nearly tie, so the seeds there turn on the last bits of the map."""

    THICKNESS = 63 * 1e-9
    CLOSE_CALLS_NM = (472.5, 475.0, 477.5, 480.0)
    ORDINARY_NM = (450.0,)
    REFERENCE = (
        Path(__file__).resolve().parents[1]
        / "perfbench" / "reference" / "nk-fixture" / "branches.csv"
    )

    @staticmethod
    def fixture(wavelengths_nm):
        spectrum = read_rt_csv(files("lsepkit") / "data" / "film_rt.csv")
        picked = [round(wl * 1e9, 6) in wavelengths_nm for wl in spectrum.wavelength.tolist()]
        assert sum(picked) == len(wavelengths_nm)
        return rows_of(spectrum, np.array(picked))

    def test_close_calls_reproduce_reference_branches(self):
        wanted = self.CLOSE_CALLS_NM + self.ORDINARY_NM
        cands = extract_nk(self.fixture(wanted), [self.THICKNESS], NkGrid(), 1.52, 1.0)

        with self.REFERENCE.open(newline="") as handle:
            pinned = [
                r for r in csv.DictReader(handle)
                if abs(float(r["thickness_nm"]) - 63.0) < 1e-9
                and round(float(r["wavelength_nm"]), 6) in wanted
            ]
        assert len(pinned) == cands.wavelength.size == 2 * len(wanted)
        cands = cands.take(np.lexsort((cands.kappa, cands.wavelength)))
        for wl, n, kappa, res, row in zip(
            cands.wavelength, cands.n, cands.kappa, cands.residual, pinned
        ):
            assert round(wl * 1e9, 6) == round(float(row["wavelength_nm"]), 6)
            assert abs(n - float(row["n"])) < 1e-8
            assert abs(kappa - float(row["kappa"])) < 1e-8
            assert abs(res - float(row["residual"])) < 1e-8


def _window(n_min, n_count, n_step, k_min, k_count, k_step):
    """A grid of n_count x k_count points (steps far below n_min make
    repeated rows, so equal values)."""

    def span(count, step):
        return step * (count - 1) if count > 1 else step / 4

    try:
        return NkGrid(n_min, n_min + span(n_count, n_step), n_step,
                      k_min, k_min + span(k_count, k_step), k_step)
    except ValueError:  # the span rounded away
        return None


_STEPS = st.sampled_from([1e-16, 1e-13, 1e-3, 0.005, 0.02, 0.1, 0.4])
_GRIDS = st.builds(
    _window,
    st.floats(0.02, 3.5), st.integers(1, 44), _STEPS,
    st.one_of(st.just(0.0), st.floats(0.0, 3.2)), st.integers(1, 44), _STEPS,
).filter(lambda grid: grid is not None)
_MAPS = st.tuples(
    st.floats(300e-9, 900e-9),  # wavelength
    st.floats(5e-9, 999e-9),  # thickness
    st.floats(0.0, 1.0),  # R
    st.floats(0.0, 1.0),  # T as a fraction of 1 - R
    st.sampled_from([(1.0, 1.52), (1.0, 1.0), (1.33, 2.4)]),  # ambient, substrate
)


def _map_of(wavelength, thickness, refl, trans, indices):
    """The map's thickness, wavelength, R, T, ambient and substrate index."""
    ambient, substrate = indices
    return thickness, wavelength, refl, trans * (1.0 - refl), ambient, substrate


def _search_of(n_vals, k_vals, thickness, wavelength, refl, trans, ambient, substrate):
    """The tiling of a grid and one map on it, as the grid search takes them."""
    one_map = (np.array([value]) for value in (thickness, wavelength, refl, trans))
    return film._tiling(n_vals, k_vals, ambient, substrate), film._Maps(*one_map)


def _seeds_or_failure(find):
    """What ``find`` returns, or the reason NoMinimumFound gives."""
    try:
        return find()
    except NoMinimumFound as failure:
        return str(failure)


def _seeds_by_map(seeds, count):
    """The (row, column) seeds of each of ``count`` maps, from the columns
    of _grid_seeds, in the form of _two_lowest_minima."""
    owner, rows, cols = (column.tolist() for column in seeds)
    return [[(r, c) for o, r, c in zip(owner, rows, cols) if o == m] for m in range(count)]


class TestGridAxes:
    """NkGrid's axes lie inside their window, start at its lower end, and
    keep its upper end when the span is a whole number of steps."""

    @given(_GRIDS)
    # a span of 9.7 steps, and one of 10.7: the axes used to reach 3.6 and 3.3
    @example(NkGrid(n_step=0.35))
    @example(NkGrid(kappa_step=0.3))
    def test_axes_stay_inside_the_window(self, grid):
        for lo, hi, step, values in (
            (grid.n_min, grid.n_max, grid.n_step, grid.n_values),
            (grid.kappa_min, grid.kappa_max, grid.kappa_step, grid.kappa_values),
        ):
            assert values[0] == lo
            assert lo <= values.min() and values.max() <= hi
            steps = (hi - lo) / step
            if abs(steps - round(steps)) < 1e-7:
                assert values.size == round(steps) + 1
                assert abs(values[-1] - hi) <= 1e-6 * step + 2.0 * np.spacing(hi)


class TestTileSearch:
    """The pruned grid search against the full reference map on random
    maps and small grid windows, with tiles cut at every grid edge."""

    @given(_GRIDS, _MAPS)
    # one point, where the bound meets the map but for rounding: fails
    # without the bound's slack
    @example(
        _window(2.5, 1, 1e-13, 0.0, 1, 1e-16),
        (3.896898120853722e-07, 4.4182005066443355e-07, 0.0, 0.0, (1.0, 1.52)),
    )
    # a 1 x 10 window whose bound is nearly tight: fails with the tile
    # discs shrunk by 10%
    @example(
        _window(1.5, 1, 1e-13, 0.0, 10, 0.1),
        (5.104455015188793e-07, 3e-07, 0.0, 1.0, (1.0, 1.52)),
    )
    def test_no_tile_bound_exceeds_the_map_inside_the_tile(self, grid, params):
        surface, n_vals, k_vals = _residual_map(grid, *_map_of(*params))
        tiling, maps = _search_of(n_vals, k_vals, *_map_of(*params))
        for size in (film._FINE, film._COARSE):
            # the whole grid as one tile, cut into tiles of the given size
            bounds = film._sub_tile_bounds(
                tiling, maps, *np.zeros((3, 1), dtype=int), size, tiling.tiles(size)
            )
            origins = film._tile_origins(surface.shape, size)
            for bound, row, col in zip(bounds.ravel(), *origins):
                assert bound <= surface[row : row + size, col : col + size].min()

    @given(_GRIDS, _MAPS)
    def test_no_refined_bound_exceeds_the_map_inside_the_tile(self, grid, params):
        # the least bound of a fine tile's sub-tiles, at each side the
        # search refines to, sub-tiles past the grid's edges included
        surface, n_vals, k_vals = _residual_map(grid, *_map_of(*params))
        tiling, maps = _search_of(n_vals, k_vals, *_map_of(*params))
        rows, cols = tiling.origins
        for side in film._SUB_TILES:
            refined = film._sub_tile_bounds(
                tiling, maps, np.zeros_like(rows), rows, cols, side, (film._FINE // side,) * 2
            ).min(axis=(0, 1))
            for bound, row, col in zip(refined, rows, cols):
                assert bound <= surface[row : row + film._FINE, col : col + film._FINE].min()

    @given(_GRIDS, _MAPS)
    # a tile on the kappa = 0 edge whose map rises with kappa, with a local
    # minimum on that edge: fails without the rule that a point's lower
    # neighbour must lie inside the grid
    @example(
        _window(3.32, 3, 0.001, 0.0, 21, 0.001),
        (3.35e-07, 2.79e-07, 0.81, 0.84, (1.0, 1.0)),
    )
    # repeated rows (10 points, 6 distinct values), whose neighbours along
    # n tie although the map's slope along n keeps its sign: fails without
    # the margin over the least grid spacing
    @example(
        _window(1.0, 10, 1.2e-16, 0.0, 1, 1e-16),
        (4.825114521802965e-07, 2.611879140881655e-07, 0.0, 1.0, (1.0, 1.52)),
    )
    def test_no_monotone_tile_holds_a_local_minimum(self, grid, params):
        surface, n_vals, k_vals = _residual_map(grid, *_map_of(*params))
        tiling, maps = _search_of(n_vals, k_vals, *_map_of(*params))
        local = surface <= _window_min(surface)
        tiles = np.arange(tiling.origins[0].size)
        dropped = film._monotone(tiling, maps, np.zeros_like(tiles), tiles)
        for row, col in zip(tiling.origins[0][dropped], tiling.origins[1][dropped]):
            assert not local[row : row + film._FINE, col : col + film._FINE].any()

    @given(_GRIDS, _MAPS)
    # a map with one local minimum, whose first tiles have no bound
    @example(
        _window(1.0, 9, 0.1, 0.0, 40, 0.4),
        (4.772963985846437e-07, 5e-09, 0.0, 0.0, (1.0, 1.52)),
    )
    # repeated rows: the two lowest minima tie exactly, in row-major order
    @example(_window(2.0, 4, 1e-16, 0.5, 12, 0.1), (550e-9, 70e-9, 0.2, 0.5, (1.0, 1.52)))
    def test_pruned_seeds_equal_the_reference_seeds(self, grid, params):
        one_map = _map_of(*params)
        expected = _seeds_or_failure(lambda: _two_lowest_minima(_residual_map(grid, *one_map)[0]))
        per_map = np.array(one_map[:4])[:, None]
        assert _seeds_or_failure(
            lambda: _seeds_by_map(film._grid_seeds(grid, *per_map, *one_map[4:]), 1)[0]
        ) == expected

    @given(_GRIDS, st.lists(_MAPS, min_size=2, max_size=4))
    # two local minima beside one
    @example(_window(2.0, 7, 0.4, 2.5, 31, 0.1),
             [(658e-9, 917e-9, 0.69, 0.5, (1.0, 1.52)), (346e-9, 490e-9, 0.21, 0.13, (1.0, 1.52))])
    # a map with two minima, then two flat maps
    @example(_window(3.44, 9, 1e-16, 0.51, 33, 1e-16),
             [(432e-9, 131e-9, 0.26, 0.23, (1.0, 1.52)), (423e-9, 480e-9, 0.55, 0.057, (1.0, 1.52)),
              (708e-9, 154e-9, 0.89, 0.069, (1.0, 1.52))])
    def test_batch_seeds_equal_the_reference_seeds(self, grid, params):
        # one search over maps of one grid and one stack (the first map's
        # media): a map whose threshold falls while another still has fewer
        # than two minima, and failing maps among good ones
        media = params[0][4]
        per_map = [_map_of(*map_params[:4], media)[:4] for map_params in params]
        expected = [
            _seeds_or_failure(lambda: _two_lowest_minima(_residual_map(grid, *one, *media)[0]))
            for one in per_map
        ]
        failures = [seeds for seeds in expected if isinstance(seeds, str)]
        columns = np.array(per_map).T
        assert _seeds_or_failure(
            lambda: _seeds_by_map(film._grid_seeds(grid, *columns, *media), len(per_map))
        ) == (failures[0] if failures else expected)

    def test_flat_map_beside_an_unfinished_map(self):
        # Map A (packaged row 45 at 70 nm) ends the search with a coarse
        # tile never split and fine tiles still queued: it found its second
        # minimum in the last round that took tiles.  Map B (R = T = 1e6)
        # is exactly flat on this window, where R + T = 1 rounds away
        # against 2e6.  Fails if B's flat decision reads the closed tiles
        # or the queue of the whole batch instead of B's own.
        measured = read_rt_csv(files("lsepkit") / "data" / "film_rt.csv")
        grid = NkGrid(kappa_max=1e-14, kappa_step=1e-16)
        wavelength = measured.wavelength[45]
        a = (70e-9, wavelength, measured.reflectance[45], measured.transmittance[45])
        b = (70e-9, wavelength, 1e6, 1e6)
        with pytest.raises(NoMinimumFound, match="residual landscape is flat"):
            _two_lowest_minima(_residual_map(grid, *b, 1.0, 1.52)[0])
        expected = _two_lowest_minima(_residual_map(grid, *a, 1.0, 1.52)[0])
        assert _seeds_by_map(film._grid_seeds(grid, *np.array([a]).T, 1.0, 1.52), 1) == [expected]
        for batch in ([a, b], [b, a]):
            with pytest.raises(NoMinimumFound, match="residual landscape is flat"):
                film._grid_seeds(grid, *np.array(batch).T, 1.0, 1.52)

    def test_map_without_near_minimum_raises_no_minimum_found(self):
        # an ambient index of 1e308 makes every residual NaN: no map has a
        # local minimum, and the answer is that of the full reference map
        measurements = rows_of(read_rt_csv(files("lsepkit") / "data" / "film_rt.csv"), slice(20))
        grid = NkGrid(n_step=0.05, kappa_step=0.05)
        first = (measurements.wavelength[0], measurements.reflectance[0],
                 measurements.transmittance[0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NoMinimumFound):
                _two_lowest_minima(_residual_map(grid, 70e-9, *first, 1e308, 1.52)[0])
            with pytest.raises(NoMinimumFound):
                extract_nk(measurements, SWEEP, grid, 1.52, 1e308)

    def test_shared_fresnel_factors_equal_the_values_alone(self):
        # the search computes r1, r2 and t1 t2 once per distinct tile and
        # gathers them for every map that evaluates the tile, in calls of
        # more than 256 KiB per array, and builds the phase from one factor
        # per row and one per column of each map
        rng = np.random.default_rng(7)
        grid = NkGrid()
        n_vals, k_vals = grid.n_values, grid.kappa_values
        rows = rng.integers(0, n_vals.size, (40, film._HALO.size))
        cols = rng.integers(0, k_vals.size, (40, film._HALO.size))
        at = rng.integers(0, 40, 500)
        fixture_rows = rng.integers(0, FIXTURE_RT.wavelength.size, 8)
        params = np.array([(d, FIXTURE_RT.wavelength[row], FIXTURE_RT.reflectance[row],
                            FIXTURE_RT.transmittance[row])
                           for d in FIXTURE_THICKNESSES for row in fixture_rows])
        owner = rng.integers(0, len(params), at.size)
        tiling = film._tiling(n_vals, k_vals, 1.0, 1.52)
        shared = film._tile_values(tiling, film._Maps(*params.T), owner, at, rows, cols)
        reference = np.stack([_residual_map(grid, *map_, 1.0, 1.52)[0] for map_ in params])
        expected = reference[owner[:, None, None], rows[at][:, :, None], cols[at][:, None, :]]
        assert np.array_equal(shared, expected)

    def test_fixture_seeds_from_few_values(self, monkeypatch):
        # the CLI's default sweep: 303 maps of the default 681 x 641 grid,
        # 132 M values in full; the refined bounds and the monotone tiles
        # leave at most 850,000
        measured = np.column_stack(
            (FIXTURE_RT.wavelength, FIXTURE_RT.reflectance, FIXTURE_RT.transmittance)
        )
        per_map = np.column_stack(
            (np.repeat(FIXTURE_THICKNESSES, len(measured)), np.tile(measured, (3, 1)))
        )
        grid = NkGrid()
        evaluated, dropped = [], []
        tile_values, monotone = film._tile_values, film._monotone

        def counted(tiling, maps, owner, *args):
            evaluated.append(owner.size * film._HALO.size**2)
            return tile_values(tiling, maps, owner, *args)

        def counted_drops(*args):
            drops = monotone(*args)
            dropped.append(int(drops.sum()))
            return drops

        monkeypatch.setattr(film, "_tile_values", counted)
        monkeypatch.setattr(film, "_monotone", counted_drops)
        seeds = _seeds_by_map(film._grid_seeds(grid, *per_map.T, 1.0, 1.52), len(per_map))
        monkeypatch.undo()
        assert 0 < sum(evaluated) <= 850_000
        assert sum(dropped) >= 3_000
        for params, found in list(zip(per_map, seeds))[::10]:
            assert found == _two_lowest_minima(_residual_map(grid, *params, 1.0, 1.52)[0])

    # 327 tiles make complex arrays of 511 KiB, past numpy's 256 KiB reuse
    # of temporaries, whatever size the search itself uses per call
    @pytest.mark.parametrize(
        "per_call", sorted({1, 37, 327, film._VALUES_PER_CALL // film._HALO.size**2})
    )
    def test_reference_arithmetic_on_tiles_equals_reference_map(self, per_call):
        # bit for bit, in arrays of any size (numpy rounds a complex
        # product by the order of its operands, which it swaps itself when
        # it reuses a temporary of 256 KiB or more), and in calls whose
        # tiles come from maps of different thickness and wavelength
        grid = NkGrid()
        n_vals, k_vals = grid.n_values, grid.kappa_values
        tiling = film._tiling(n_vals, k_vals, 1.0, 1.52)
        rows, cols = (
            np.clip(start[:, None] + film._HALO, 0, values.size - 1)
            for start, values in zip(tiling.origins, (n_vals, k_vals))
        )
        close_calls = TestCloseCalls.fixture(TestCloseCalls.CLOSE_CALLS_NM)
        measured = np.column_stack(
            (close_calls.wavelength, close_calls.reflectance, close_calls.transmittance)
        )
        maps = [(TestCloseCalls.THICKNESS, row) for row in range(4)] + [
            (FIXTURE_THICKNESSES[1], 1), (FIXTURE_THICKNESSES[2], 3)
        ]
        params = np.array([(d, *measured[row]) for d, row in maps])
        reference = np.stack([_residual_map(grid, *map_, 1.0, 1.52)[0] for map_ in params])
        # every tile of every map, grouped by tile as the search groups them,
        # so that a call mixes the maps
        tile, owner = np.divmod(np.arange(rows.shape[0] * len(maps)), len(maps))
        for part, distinct, at in film._by_tile(tile, per_call):
            values = film._tile_values(
                tiling, film._Maps(*params.T), owner[part], at, rows[distinct], cols[distinct]
            )
            points = rows[tile[part]][:, :, None], cols[tile[part]][:, None, :]
            expected = reference[(owner[part][:, None, None], *points)]
            assert np.array_equal(values, expected)


FIXTURE_RT = read_rt_csv(files("lsepkit") / "data" / "film_rt.csv")
# the CLI's default thickness sweep
FIXTURE_THICKNESSES = tuple(float(t) for t in np.linspace(63.0 * 1e-9, 77.0 * 1e-9, 3))


def scalar_residual(n, kappa, thickness, row):
    """The residual one root at a time in numpy scalar arithmetic, on
    fixture row ``row``: the model's former scalar path, whose every bit
    the refinement keeps."""
    nf = np.asarray(complex(n, kappa))
    phase = np.exp(2j * np.pi * nf * thickness / float(FIXTURE_RT.wavelength[row]))
    r_amp, t_amp = film._airy(film._interfaces(nf, 1.0, 1.52), phase)
    flux_ratio = 1.52 / 1.0  # substrate / ambient
    refl, trans = float(np.abs(r_amp) ** 2), float(flux_ratio * np.abs(t_amp) ** 2)
    return (abs(trans - float(FIXTURE_RT.transmittance[row]))
            + abs(refl - float(FIXTURE_RT.reflectance[row])))


def _misfit_of(roots):
    """extract_nk's objective for (thickness, fixture row) roots."""
    fixture = rows_of(FIXTURE_RT, [row for _, row in roots])
    table = np.column_stack(([d for d, _ in roots], fixture.wavelength,
                             fixture.reflectance, fixture.transmittance))
    return film._root_misfits(table, 1.0, 1.52)


def _fixture_at(wavelength_nm):
    """The fixture row at the given wavelength."""
    return next(
        row for row, wl in enumerate(FIXTURE_RT.wavelength.tolist())
        if round(wl * 1e9, 6) == wavelength_nm
    )


@given(
    st.lists(
        st.tuples(
            st.floats(0.1, 3.5),
            st.one_of(st.just(0.0), st.floats(0.0, 3.2)),
            st.sampled_from(FIXTURE_THICKNESSES),
            st.integers(0, FIXTURE_RT.wavelength.size - 1),
        ),
        min_size=1,
        max_size=8,
    )
)
# where R or T squared as x*x instead of through libm pow differs
@example([(1.95, 1.4, FIXTURE_THICKNESSES[2], _fixture_at(487.5))])
@example([(0.684, 0.352, FIXTURE_THICKNESSES[0], _fixture_at(550.0))])
def test_batched_residual_equals_scalar_residual(trials):
    roots = [(t, row) for _, _, t, row in trials]
    points = np.array([(n, kappa) for n, kappa, _, _ in trials])
    batch = _misfit_of(roots)(points, np.arange(len(trials)))
    for (n, kappa), (t, row), value in zip(points, roots, batch):
        expected = scalar_residual(n, kappa, t, row)
        assert value == expected
        assert residual(n, kappa, t, rows_of(FIXTURE_RT, [row]))[0] == expected


@given(
    st.lists(st.tuples(st.floats(0.1, 3.5), st.one_of(st.just(0.0), st.floats(0.0, 3.2))),
             min_size=1, max_size=4),
    st.lists(st.one_of(st.sampled_from(FIXTURE_THICKNESSES), st.floats(5e-9, 999e-9)),
             min_size=1, max_size=3),
    st.lists(st.integers(0, FIXTURE_RT.wavelength.size - 1), min_size=1, max_size=5),
    st.sampled_from([(1.0, 1.52), (1.33, 2.4)]),
)
def test_forward_model_on_arrays_equals_per_element_calls(indices, thicknesses, rows, media):
    # bit for bit: the fixture generator calls the model once on its whole
    # wavelength axis, where it once called it per wavelength
    ambient, substrate = media
    n, kappa = (np.array(column)[:, None, None] for column in zip(*indices))
    thickness = np.array(thicknesses)[None, :, None]
    spectrum = rows_of(FIXTURE_RT, rows)
    media = dict(substrate_index=substrate, ambient_index=ambient)
    refl, trans = rt_theoretical(n + 1j * kappa, thickness, spectrum.wavelength, **media)
    misfit = residual(n, kappa, thickness, spectrum, **media)
    assert refl.shape == trans.shape == misfit.shape == (len(indices), len(thicknesses), len(rows))
    for i, j, k in np.ndindex(refl.shape):
        nf = complex(n[i, 0, 0], kappa[i, 0, 0])
        one = rt_theoretical(nf, thicknesses[j], float(spectrum.wavelength[k]), **media)
        assert (refl[i, j, k], trans[i, j, k]) == one
        alone = residual(nf.real, nf.imag, thicknesses[j], rows_of(spectrum, [k]), **media)
        assert misfit[i, j, k] == alone[0]


class TestLockstepRefine:
    """nelder_mead against scipy's Nelder-Mead with the options of both
    callers.  extract_nk's options run root by root on fixture roots at
    63 nm: the 475 nm close call seeds one root on the kappa = 0 edge, a
    512.5 nm root meets an outside contraction exactly as good as its
    reflection, the 475 and 590 nm roots take shrink steps, and two extra
    seeds at n_max start from a simplex reflected back inside the bound.
    One-dimensional runs, with the options fit_material took before its
    golden-section search, run on its projected misfit of the packaged
    target spectrum from the fit-permittivity defaults."""

    THICKNESS = 63 * 1e-9
    WAVELENGTHS_NM = (475.0, 512.5, 590.0)
    GRID = NkGrid()

    def roots_and_seeds(self):
        n_vals, k_vals = self.GRID.n_values, self.GRID.kappa_values
        roots, seeds = [], []
        for wavelength_nm in self.WAVELENGTHS_NM:
            fixture_row = _fixture_at(wavelength_nm)
            one_map = (FIXTURE_RT.wavelength[fixture_row], FIXTURE_RT.reflectance[fixture_row],
                       FIXTURE_RT.transmittance[fixture_row])
            surface = _residual_map(self.GRID, self.THICKNESS, *one_map, 1.0, 1.52)[0]
            for row, col in _two_lowest_minima(surface):
                roots.append((self.THICKNESS, fixture_row))
                seeds.append((n_vals[row], k_vals[col]))
        for kappa in (0.0, 0.5):  # on the last (590 nm) map
            roots.append(roots[-1])
            seeds.append((self.GRID.n_max, kappa))
        return roots, np.array(seeds)

    def scipy_refine(self, seed, thickness, fixture_row, maxiter):
        """scipy's result for one root, and whether it took a shrink step
        (the only step that evaluates four points)."""
        calls, marks = [0], []

        def objective(x):
            calls[0] += 1
            return scalar_residual(x[0], x[1], thickness, fixture_row)

        result = optimize.minimize(
            objective,
            x0=seed,
            method="Nelder-Mead",
            bounds=[(self.GRID.n_min, self.GRID.n_max), (self.GRID.kappa_min, self.GRID.kappa_max)],
            options={"xatol": 1e-9, "fatol": 1e-14, "maxiter": maxiter},
            callback=lambda xk: marks.append(calls[0]),
        )
        # the initial simplex takes 3 evaluations, then each step its own
        return result, 4 in np.diff([3] + marks)

    @pytest.mark.parametrize("maxiter", [600, 20])
    def test_matches_scipy_bit_for_bit(self, maxiter):
        roots, seeds = self.roots_and_seeds()
        x, fun, nfev, nit, success = nelder_mead(
            _misfit_of(roots),
            seeds,
            lower=np.array([self.GRID.n_min, self.GRID.kappa_min]),
            upper=np.array([self.GRID.n_max, self.GRID.kappa_max]),
            xatol=1e-9,
            fatol=1e-14,
            maxiter=maxiter,
        )
        shrunk = []
        for i, (seed, (thickness, fixture_row)) in enumerate(zip(seeds, roots)):
            expected, took_shrink = self.scipy_refine(seed, thickness, fixture_row, maxiter)
            shrunk.append(took_shrink)
            assert x[i].tolist() == expected.x.tolist()
            assert fun[i] == expected.fun
            assert (nfev[i], nit[i]) == (expected.nfev, expected.nit)
            assert success[i] == expected.success
        assert 0.0 in seeds[:, 1] and self.GRID.n_max in seeds[:, 0]
        if maxiter == 600:
            assert any(shrunk) and nit.max() < maxiter
        else:
            assert np.all(nit == maxiter)

    # the fit's former options, capped at 20 iterations, and with the
    # 1e-9 eV xatol it took before its dipole was projected
    @pytest.mark.parametrize("xatol, maxiter", [(1e-11, 4000), (1e-9, 4000), (1e-11, 20)])
    def test_fit_options_match_scipy_bit_for_bit(self, xatol, maxiter):
        defaults = cli.load_config("fit-permittivity", None)
        fixed = cli._material(defaults)
        target = medium.read_spectrum_csv(cli._packaged("epsilon_extracted.csv"))
        two_level, background = fixed.two_level, fixed.background_permittivity
        excess = target.epsilon - background

        def cost(x):
            # the misfit at the least-squares dipole of dephasing x[0]
            material = dataclasses.replace(fixed, two_level=dataclasses.replace(
                two_level, dipole=1.0, pure_dephasing=x[0]))
            unit = medium.epsilon_steady(material, target.energies).epsilon - background
            d2 = np.clip(np.vdot(unit, excess).real / np.vdot(unit, unit).real,
                         0.0, medium.MAX_DIPOLE_DEBYE**2)
            return float(np.sum(np.abs(d2 * unit - excess) ** 2))

        start = np.array([two_level.pure_dephasing])
        initial = medium.epsilon_steady(fixed, target.energies).epsilon - target.epsilon
        scale = max(np.sum(np.abs(initial) ** 2), np.sum(np.abs(target.epsilon) ** 2), 1e-30)
        x, fun, nfev, nit, success = nelder_mead(
            lambda points, rows: np.array([cost(p) for p in points]),
            start[None, :],
            lower=np.array([0.0]),
            upper=np.array([10.0]),
            xatol=xatol,
            fatol=1e-8 * scale,
            maxiter=maxiter,
        )
        expected = optimize.minimize(
            cost, start, method="Nelder-Mead", bounds=[(0.0, 10.0)],
            options={"xatol": xatol, "fatol": 1e-8 * scale, "maxiter": maxiter},
        )
        assert x[0].tolist() == expected.x.tolist()
        assert fun[0] == expected.fun
        assert (nfev[0], nit[0], success[0]) == (expected.nfev, expected.nit, expected.success)
        assert expected.success == (maxiter == 4000)


SEED_GRID = NkGrid()
# extract_nk's simplex options, and two looser pairs under which rows
# converge within the drawn maxiter, each at its own iteration
REFINE_TOLERANCES = ((1e-9, 1e-14), (1e-3, 1e-6), (1e-2, 1e-4))
# about 20 examples in Tier-1, a tenth of the profile's under --hypothesis-profile=deep
REFINE_EXAMPLES = max(20, settings.default.max_examples // 10)


@functools.cache
def fixture_seeds():
    """(thickness, fixture row, n, kappa) of every seed that extract_nk
    refines on the packaged fixture at the CLI's thicknesses."""
    count = FIXTURE_RT.wavelength.size
    thickness = np.repeat(FIXTURE_THICKNESSES, count)
    measured = (np.tile(column, len(FIXTURE_THICKNESSES)) for column in
                (FIXTURE_RT.wavelength, FIXTURE_RT.reflectance, FIXTURE_RT.transmittance))
    owner, row, col = film._grid_seeds(SEED_GRID, thickness, *measured, 1.0, 1.52)
    return [(thickness[m], m % count, SEED_GRID.n_values[i], SEED_GRID.kappa_values[j])
            for m, i, j in zip(owner.tolist(), row.tolist(), col.tolist())]


N_LAST, KAPPA_LAST = SEED_GRID.n_values.size - 1, SEED_GRID.kappa_values.size - 1


def _grid_root(n_index, kappa_index):
    """(thickness, fixture row, n, kappa) roots seeded at the drawn grid point."""

    def root(thickness, row, i, j):
        return thickness, row, SEED_GRID.n_values[i], SEED_GRID.kappa_values[j]

    return st.builds(root, st.sampled_from(FIXTURE_THICKNESSES),
                     st.integers(0, FIXTURE_RT.wavelength.size - 1), n_index, kappa_index)


def scipy_steps(seed, thickness, fixture_row, maxiter, xatol, fatol):
    """scipy's Nelder-Mead from one seed on extract_nk's bounds, and the
    evaluations each of its iterations made (4 for a shrink step)."""
    calls, marks = [0], []

    def objective(x):
        calls[0] += 1
        return scalar_residual(x[0], x[1], thickness, fixture_row)

    result = optimize.minimize(
        objective, x0=seed, method="Nelder-Mead",
        bounds=[(SEED_GRID.n_min, SEED_GRID.n_max), (SEED_GRID.kappa_min, SEED_GRID.kappa_max)],
        options={"xatol": xatol, "fatol": fatol, "maxiter": maxiter},
        callback=lambda xk: marks.append(calls[0]),
    )
    return result, np.diff([3] + marks)


def refine_against_scipy(batch, maxiter, xatol, fatol):
    """Assert that nelder_mead on the batch of (thickness, fixture row, n,
    kappa) roots equals scipy root by root, bit for bit; return which of
    the lockstep loop's paths the batch took."""
    seeds = np.array([(n, kappa) for _, _, n, kappa in batch])
    got = nelder_mead(
        _misfit_of([(thickness, row) for thickness, row, _, _ in batch]), seeds,
        lower=np.array([SEED_GRID.n_min, SEED_GRID.kappa_min]),
        upper=np.array([SEED_GRID.n_max, SEED_GRID.kappa_max]),
        xatol=xatol, fatol=fatol, maxiter=maxiter,
    )
    steps = []
    for i, (seed, (thickness, row, _, _)) in enumerate(zip(seeds, batch)):
        expected, evaluations = scipy_steps(seed, thickness, row, maxiter, xatol, fatol)
        assert got.x[i].tolist() == expected.x.tolist()
        assert got.fun[i] == expected.fun
        assert (got.nfev[i], got.nit[i], got.success[i]) == (
            expected.nfev, expected.nit, expected.success)
        steps.append(evaluations)
    converged = got.nit[got.success]
    paths = set()
    if np.unique(converged).size > 1:
        paths.add("rows finish in different iterations")
    if converged.size and not got.success.all():
        paths.add("the cap stops rows that others outlived")
    for k in range(max(map(len, steps), default=0)):
        shrunk = [evaluations[k] == 4 for evaluations in steps if k < len(evaluations)]
        if any(shrunk) and not all(shrunk):
            paths.add("shrink rows beside other steps")
    return paths


# on four fixture maps, from n_max, kappa = 0 and two inner grid points
COVERING_BATCH = (
    [(FIXTURE_THICKNESSES[1], 56, SEED_GRID.n_max, SEED_GRID.kappa_values[355]),
     (FIXTURE_THICKNESSES[2], 28, SEED_GRID.n_values[22], 0.0),
     (FIXTURE_THICKNESSES[2], 67, SEED_GRID.n_values[496], SEED_GRID.kappa_values[542]),
     (FIXTURE_THICKNESSES[0], 39, SEED_GRID.n_values[119], SEED_GRID.kappa_values[57])],
    36, 1e-3, 1e-6,
)


@settings(max_examples=REFINE_EXAMPLES, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.integers(0, 605).map(lambda i: fixture_seeds()[i]),
            _grid_root(st.just(N_LAST), st.integers(0, KAPPA_LAST)),
            _grid_root(st.integers(0, N_LAST), st.just(0)),
        ),
        min_size=1,
        max_size=6,
    ),
    st.integers(1, 40),
    st.sampled_from(REFINE_TOLERANCES),
)
@example(*COVERING_BATCH[:2], COVERING_BATCH[2:])
def test_drawn_refine_batches_equal_scipy(batch, maxiter, tolerances):
    # seeds from the fixture maps' grid search and on the n_max and kappa = 0
    # bounds, refined together under a drawn cap
    refine_against_scipy(batch, maxiter, *tolerances)


def test_covering_refine_batch_takes_every_lockstep_path():
    assert len(fixture_seeds()) == 606  # the seeds the drawn batches index
    assert refine_against_scipy(*COVERING_BATCH) == {
        "rows finish in different iterations",
        "the cap stops rows that others outlived",
        "shrink rows beside other steps",
    }


class TestExtraction:
    GRID = NkGrid(n_min=1.0, n_max=3.0, n_step=0.01, kappa_min=0.0, kappa_max=2.0, kappa_step=0.01)

    def test_round_trip_recovers_truth(self):
        meas, n_true, k_true = synthetic_measurements()
        cands = extract_nk(meas, [70e-9], self.GRID, 1.52, 1.0)
        assert isinstance(cands, NkCandidates)
        assert all(column.shape == (2 * meas.wavelength.size,) for column in cands)
        chosen = select_physical_branch(cands)
        physical = cands.take(chosen)
        assert np.all(np.diff(physical.wavelength) > 0.0)
        assert physical.wavelength.size == meas.wavelength.size
        for n, kappa, nv, kv in zip(physical.n, physical.kappa, n_true, k_true):
            assert abs(n - nv) <= 2.0 * self.GRID.n_step
            assert abs(kappa - kv) <= 2.0 * self.GRID.kappa_step
        # the rejected branch (the rows not chosen) is genuinely distinct in
        # the dispersive band
        rejected = cands.take(np.setdiff1d(np.arange(cands.wavelength.size), chosen))
        assert np.array_equal(rejected.wavelength, physical.wavelength)
        spurious_gap = np.abs(rejected.kappa - physical.kappa)
        assert max(spurious_gap) > 0.1

    def test_zero_absorption_recovered(self):
        wavelengths = np.linspace(520e-9, 640e-9, 8)
        meas = RTSpectrum(wavelengths, *rt_theoretical(1.8 + 0j, 70e-9, wavelengths))
        cands = extract_nk(meas, [70e-9], self.GRID, 1.52, 1.0)
        for wl in set(cands.wavelength.tolist()):
            at = np.flatnonzero(cands.wavelength == wl)
            best = at[np.argmin(cands.residual[at])]
            assert cands.kappa[best] <= 2.0 * self.GRID.kappa_step
            assert abs(cands.n[best] - 1.8) <= 2.0 * self.GRID.n_step

    def test_thickness_sweep_produces_per_thickness_candidates(self):
        meas, _, _ = synthetic_measurements()
        sweep = film.thickness_sweep((63e-9, 77e-9), 3)
        cands = extract_nk(rows_of(meas, slice(2)), sweep, self.GRID, 1.52, 1.0)
        thicknesses = {round(d * 1e9, 3) for d in cands.thickness.tolist()}
        assert thicknesses == {63.0, 70.0, 77.0}

    def test_input_guards(self):
        with pytest.raises(ValueError, match="^at least one measurement is required$"):
            extract_nk(RTSpectrum([], [], []), [70e-9], self.GRID, 1.52, 1.0)
        with pytest.raises(ValueError, match="^thickness_range must be 0 < low <= high"):
            film.thickness_sweep((77e-9, 63e-9), 3)
        with pytest.raises(ValueError, match="^thickness_range must be 0 < low <= high"):
            film.thickness_sweep((0.5e-6, 2e-6), 3)
        # one sample cannot sweep a range; it used to sweep both ends
        with pytest.raises(ValueError, match="at least 2 thickness samples, got 1"):
            film.thickness_sweep((63e-9, 77e-9), 1)
        # samples closer than the float spacing used to repeat thicknesses
        with pytest.raises(ValueError, match="^100 thickness samples repeat a thickness"):
            film.thickness_sweep((63e-9, 63e-9 * (1.0 + 1e-15)), 100)

    @pytest.mark.parametrize(
        "thicknesses",
        [[], 70e-9, [[63e-9, 70e-9]], [70e-9, 63e-9], [70e-9, 70e-9], [np.nan],
         [63e-9, np.nan], [np.inf], [-np.inf, 70e-9], [0.0, 70e-9], [-70e-9],
         [70e-9, np.nextafter(film.MAX_THICKNESS, 1.0)]],
        ids=["empty", "scalar", "2-d", "decreasing", "repeated", "nan", "nan-after", "inf",
             "-inf", "zero", "negative", "past-1-um"],
    )
    def test_bad_thicknesses_are_named(self, thicknesses):
        meas = rows_of(synthetic_measurements()[0], slice(1))
        with pytest.raises(ValueError, match="^thicknesses must be a non-empty, strictly"):
            extract_nk(meas, thicknesses, self.GRID, 1.52, 1.0)

    def test_thickest_film_matches_the_config_keys(self):
        # the thickness keys' maximum, in metres as the CLI converts it, is
        # the thickest film extract_nk takes; the next float up is refused
        edge = cli.DEFAULTS["extract-nk"]["thickness_max_nm"].maximum * 1e-9
        assert edge == film.MAX_THICKNESS
        meas = rows_of(synthetic_measurements()[0], slice(1))
        assert extract_nk(meas, [edge], self.GRID, 1.52, 1.0).thickness[0] == edge
        with pytest.raises(ValueError, match="^thicknesses must be"):
            extract_nk(meas, [np.nextafter(edge, 1.0)], self.GRID, 1.52, 1.0)
        with pytest.raises(ValueError, match="1 um"):
            film.thickness_sweep((edge, np.nextafter(edge, 1.0)), 2)


def test_readme_film_example_runs_on_packaged_fixture(tmp_path, monkeypatch, capsys):
    # the README's film snippet, exactly as shown, reading the packaged
    # fixture as rt.csv, prints the rows of extract-nk's nk.csv bit for bit
    root = Path(__file__).resolve().parents[1]
    blocks = (root / "README.md").read_text(encoding="utf-8").split("```python\n")[1:]
    (snippet,) = [b.split("```")[0] for b in blocks if "film.extract_nk(" in b]
    (tmp_path / "rt.csv").write_text((files("lsepkit") / "data" / "film_rt.csv").read_text())
    monkeypatch.chdir(tmp_path)
    exec(compile(snippet, "README.md", "exec"), {})
    printed = np.array([line.split() for line in capsys.readouterr().out.splitlines()], float)
    assert cli.main(["extract-nk", "--out", "nk"]) == cli.EXIT_OK
    with open("nk/nk.csv", newline="") as handle:
        nk = [[float(r[k]) for k in ("wavelength_nm", "n", "kappa", "residual")]
              for r in csv.DictReader(handle)]
    assert printed.shape == (len(nk), 4)
    assert np.array_equal(printed[:, 0] * 1e9, [row[0] for row in nk])
    assert np.array_equal(printed[:, 1:], [row[1:] for row in nk])


def _outcome(find):
    """The candidates ``find`` returns, as bytes, or the class and message
    of what it raises."""
    try:
        return np.array(find()).tobytes()
    except Exception as failure:
        return type(failure), str(failure)


@st.composite
def _films(draw):
    """A film with one absorption band through the forward model: its
    spectrum at 4-16 wavelengths in 450-700 nm, its thickness of 30-300
    nm and its substrate index of 1.3-1.8."""
    wavelengths = np.linspace(450e-9, 700e-9, draw(st.integers(4, 16)))
    band = draw(st.floats(450e-9, 700e-9))
    index = draw(st.floats(1.3, 2.5)) + 1j * draw(st.floats(0.0, 1.5)) * np.exp(
        -(((wavelengths - band) / 30e-9) ** 2)
    )
    thickness, substrate = draw(st.floats(30e-9, 300e-9)), draw(st.floats(1.3, 1.8))
    spectrum = RTSpectrum(wavelengths, *rt_theoretical(index, thickness, wavelengths, substrate))
    return spectrum, thickness, substrate


class TestSlices:
    """extract_nk solves contiguous slices of its maps in forked children,
    one per usable core: the split's candidates, failures and messages
    are those of one process, and no child outlives the call."""

    GRID = NkGrid(n_min=1.0, n_max=3.0, n_step=0.02, kappa_min=0.0, kappa_max=2.0, kappa_step=0.02)
    FIXTURE = files("lsepkit") / "data" / "film_rt.csv"

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def cores(monkeypatch, count):
        """extract_nk cuts ``count`` slices from as few as ``count`` maps."""
        monkeypatch.setattr(film, "_MIN_MAPS_PER_SLICE", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)

    def test_slice_count(self, monkeypatch):
        minimum = film._MIN_MAPS_PER_SLICE
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert [film._slice_count(maps) for maps in (1, 2 * minimum - 1, 2 * minimum, 303)] == [
            1, 1, 2, min(3, 303 // minimum)
        ]
        monkeypatch.delattr(os, "sched_getaffinity")
        assert film._slice_count(10**6) == 1

    @pytest.mark.parametrize("count", [2, 3])
    def test_fixture_splits_bit_for_bit(self, monkeypatch, count):
        measured = read_rt_csv(self.FIXTURE)
        self.cores(monkeypatch, 1)
        one = _outcome(lambda: extract_nk(measured, SWEEP, NkGrid(), 1.52, 1.0))
        self.cores(monkeypatch, count)
        assert _outcome(lambda: extract_nk(measured, SWEEP, NkGrid(), 1.52, 1.0)) == one

    @settings(max_examples=10, deadline=None)
    @given(_films(), st.integers(2, 4))
    def test_drawn_films_split_bit_for_bit(self, film_case, count):
        spectrum, thickness, substrate = film_case

        def find():
            sweep = film.thickness_sweep((0.9 * thickness, 1.1 * thickness), 3)
            return extract_nk(spectrum, sweep, self.GRID, substrate, 1.0)

        with pytest.MonkeyPatch.context() as patch:
            self.cores(patch, 1)
            one = _outcome(find)
            self.cores(patch, count)
            assert _outcome(find) == one

    def test_failing_child_slice_fails_as_one_process(self, monkeypatch):
        # a 1 pm wavelength underflows the film's phase factor; under
        # under="raise" only that row's map fails, in the last slice
        measured = rows_of(read_rt_csv(self.FIXTURE), slice(40))
        wavelength = measured.wavelength.copy()
        wavelength[30] = 1e-12
        spectrum = RTSpectrum(wavelength, measured.reflectance, measured.transmittance)
        outcomes = []
        for count in (1, 2, 3):
            self.cores(monkeypatch, count)
            with np.errstate(under="raise"):
                outcomes.append(_outcome(
                    lambda: extract_nk(spectrum, [70e-9], self.GRID, 1.52, 1.0)
                ))
        assert outcomes[0][0] is FloatingPointError
        assert outcomes[1:] == outcomes[:1] * 2

    def test_first_failing_map_is_named(self, monkeypatch):
        # maps that fail in slices 1 and 2 of 3: the split raises for the
        # first of them, as one process does
        measured = rows_of(read_rt_csv(self.FIXTURE), slice(30))
        failing = measured.wavelength[[25, 15]]
        seeds = film._grid_seeds

        def failing_seeds(grid, thickness, wavelength, *rest):
            hit = np.isin(wavelength, failing)
            if hit.any():
                raise NoMinimumFound(f"no local minimum at {wavelength[hit][0]}")
            return seeds(grid, thickness, wavelength, *rest)

        monkeypatch.setattr(film, "_grid_seeds", failing_seeds)
        outcomes = []
        for count in (1, 3):
            self.cores(monkeypatch, count)
            outcomes.append(_outcome(lambda: extract_nk(measured, [70e-9], self.GRID, 1.52, 1.0)))
        assert outcomes[0] == (NoMinimumFound, f"no local minimum at {failing[1]}")
        assert outcomes[1] == outcomes[0]

    def test_failing_own_slice_kills_the_children(self, monkeypatch):
        # an ambient index of 1e308 fails every map, the first in this
        # process's own slice: the children are killed and reaped
        measured = rows_of(read_rt_csv(self.FIXTURE), slice(20))
        outcomes = []
        for count in (1, 4):
            self.cores(monkeypatch, count)
            with np.errstate(over="ignore", invalid="ignore"):
                outcomes.append(_outcome(
                    lambda: extract_nk(measured, SWEEP, self.GRID, 1.52, 1e308)
                ))
        assert outcomes[0] == (NoMinimumFound, "no local minimum on the search grid")
        assert outcomes[1] == outcomes[0]

    @pytest.mark.parametrize("fault", ["exit", "late"])
    def test_failed_child_slice_is_solved_again(self, monkeypatch, fault):
        # a child killed by os._exit(9), or one that sends a whole table
        # of zeros and then exits 9: this process solves its slice (3
        # thicknesses of 24 rows make 3 slices of 24 maps)
        measured = rows_of(read_rt_csv(self.FIXTURE), slice(24))
        self.cores(monkeypatch, 1)
        one = _outcome(lambda: extract_nk(measured, SWEEP, self.GRID, 1.52, 1.0))
        parent, solve, solved_here, leave = os.getpid(), film._solve, [], os._exit

        def faulty_solve(grid, per_map, *media):
            if os.getpid() == parent:
                solved_here.append(len(per_map))
                return solve(grid, per_map, *media)
            if fault == "exit":
                os._exit(9)
            return 0.0 * solve(grid, per_map, *media)

        monkeypatch.setattr(film, "_solve", faulty_solve)
        if fault == "late":
            monkeypatch.setattr(os, "_exit", lambda status: leave(9))
        self.cores(monkeypatch, 3)
        assert _outcome(lambda: extract_nk(measured, SWEEP, self.GRID, 1.52, 1.0)) == one
        assert solved_here == [24, 24, 24]

    def test_failed_fork_solves_every_slice_here(self, monkeypatch):
        # a fork that raises OSError (no process to spare) leaves _forked
        # no child: this process solves all 3 slices of 24 maps, with the
        # candidates of one process, and leaves no child behind
        measured = rows_of(read_rt_csv(self.FIXTURE), slice(24))
        self.cores(monkeypatch, 1)
        one = _outcome(lambda: extract_nk(measured, SWEEP, self.GRID, 1.52, 1.0))
        solve, solved_here = film._solve, []

        def counted_solve(grid, per_map, *media):
            solved_here.append(len(per_map))
            return solve(grid, per_map, *media)

        def no_fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(film, "_solve", counted_solve)
        monkeypatch.setattr(os, "fork", no_fork)
        self.cores(monkeypatch, 3)
        assert film._forked(self.GRID, np.empty((0, 4)), 1.0, 1.52) is None
        assert _outcome(lambda: extract_nk(measured, SWEEP, self.GRID, 1.52, 1.0)) == one
        assert solved_here == [24, 24, 24]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestThicknessRescale:
    def test_identity_and_composition(self):
        assert thickness_rescale(0.37, 70e-9, 70e-9) == 0.37
        once = thickness_rescale(0.5, 63e-9, 77e-9)
        assert thickness_rescale(once, 77e-9, 63e-9) == 0.5

    def test_reference_example(self):
        assert abs(thickness_rescale(0.5, 63e-9, 77e-9) - 0.5 * 63.0 / 77.0) < 1e-15

    def test_zero_kappa(self):
        assert thickness_rescale(0.0, 63e-9, 77e-9) == 0.0

    def test_guards(self):
        with pytest.raises(ValueError):
            thickness_rescale(0.5, 0.0, 70e-9)


def candidate_table(rows):
    """An NkCandidates table from (wavelength, n, kappa, residual,
    thickness) rows."""
    return NkCandidates(*np.array(rows, dtype=float).reshape(-1, 5).T)


def per_wavelength_branch(cands, ambiguity_threshold=0.05):
    """The rows of the physical curve by a per-wavelength loop: the
    object-at-a-time form of select_physical_branch, kept as its oracle."""
    wavelength, n, kappa, res = (column.tolist() for column in cands[:4])
    if not wavelength:
        raise ValueError("no candidates supplied")
    by_wavelength = {}
    for row, wl in enumerate(wavelength):
        by_wavelength.setdefault(wl, []).append(row)

    def dist(prev, row):
        return float(np.hypot(n[row] - n[prev], kappa[row] - kappa[prev]))

    track_a, track_b = [], []
    for wl in sorted(by_wavelength):
        group = sorted(by_wavelength[wl], key=lambda row: (kappa[row], res[row]))
        first, second = group[0], group[-1]
        if track_a:
            straight = dist(track_a[-1], first) + dist(track_b[-1], second)
            crossed = dist(track_a[-1], second) + dist(track_b[-1], first)
            if crossed < straight:
                first, second = second, first
        track_a.append(first)
        track_b.append(second)

    def total_variation(track):
        kappas = np.array([kappa[row] for row in track])
        return float(np.sum(np.abs(np.diff(kappas)))) if kappas.size > 1 else 0.0

    tv_a, tv_b = total_variation(track_a), total_variation(track_b)
    scale = max(tv_a, tv_b)
    distinct = any(u != l for u, l in zip(track_b, track_a))
    if distinct and scale > 0.0 and abs(tv_a - tv_b) < ambiguity_threshold * scale:
        raise BranchAmbiguous(f"total variations {tv_a:.4g} and {tv_b:.4g}")
    if tv_a != tv_b:
        return track_a if tv_a < tv_b else track_b
    mean_a = float(np.mean([kappa[row] for row in track_a]))
    mean_b = float(np.mean([kappa[row] for row in track_b]))
    return track_a if mean_a <= mean_b else track_b


# coarse values, so that equal kappa, equal residuals and equal summed
# steps (exact ties of the continuation) occur often
_COARSE_VALUE = st.integers(0, 6).map(lambda k: k / 4)


@st.composite
def _candidate_sets(draw):
    rows = []
    most = draw(st.integers(1, 3))  # all, some or no wavelengths with one root
    for i in range(draw(st.integers(1, 10))):
        for _ in range(draw(st.integers(1, most))):
            rows.append(
                (500e-9 + 10e-9 * i, 1.0 + draw(_COARSE_VALUE), draw(_COARSE_VALUE),
                 draw(st.sampled_from([0.0, 1e-6, 2e-6])), 70e-9)
            )
    return candidate_table(draw(st.permutations(rows)))


@given(_candidate_sets(), st.sampled_from([0.05, 0.0, 0.5]))
@example(candidate_table([(5e-7, 1.5, 0.0, 0.0, 7e-8), (5e-7, 1.5, 0.0, 0.0, 7e-8)]), 0.05)
@example(candidate_table([(5e-7, 1.5, 0.0, 0.0, 7e-8), (5.1e-7, 1.5, 0.5, 0.0, 7e-8)]), 0.05)
def test_branch_rows_equal_per_wavelength_loop(cands, threshold):
    try:
        expected = per_wavelength_branch(cands, threshold)
    except BranchAmbiguous:
        with pytest.raises(BranchAmbiguous):
            select_physical_branch(cands, threshold)
        return
    assert select_physical_branch(cands, threshold).tolist() == expected


class TestBranchSelection:
    @staticmethod
    def make(rows, thickness=70e-9):
        """A table from (wavelength, n, kappa) rows, residual 1e-6."""
        return candidate_table([(wl, n, k, 1e-6, thickness) for wl, n, k in rows])

    def test_single_branch_is_identity(self):
        wavelengths = np.linspace(500e-9, 600e-9, 6)
        cands = self.make([(wl, 1.6, 0.2) for wl in wavelengths])
        chosen = select_physical_branch(cands)
        assert len(chosen) == 6
        assert chosen.tolist() == list(range(6))
        # every row is physical, so no row is left as spurious
        assert np.setdiff1d(np.arange(6), chosen).size == 0

    def test_smooth_branch_wins_over_jagged(self):
        wavelengths = np.linspace(500e-9, 600e-9, 8)
        rows = []
        for i, wl in enumerate(wavelengths):
            rows.append((wl, 1.6, 0.2 + 0.01 * i))
            rows.append((wl, 2.4, 0.2 if i % 2 == 0 else 1.5))
        cands = self.make(rows)
        physical = cands.take(select_physical_branch(cands))
        assert all(abs(k - 0.2) < 0.1 for k in physical.kappa)

    def test_parallel_branches_are_ambiguous(self):
        wavelengths = np.linspace(500e-9, 600e-9, 8)
        rows = []
        for i, wl in enumerate(wavelengths):
            drift = 0.05 * i
            rows.append((wl, 1.6, 0.2 + drift))
            rows.append((wl, 2.4, 0.9 + drift))
        with pytest.raises(BranchAmbiguous):
            select_physical_branch(self.make(rows))

    def test_no_candidates(self):
        with pytest.raises(ValueError, match="no candidates"):
            select_physical_branch(candidate_table([]))


class TestKkClosure:
    def test_zero_kappa_returns_asymptote(self):
        energies = np.linspace(1.0, 3.0, 64)
        n_kk = close_with_kk(energies, np.zeros_like(energies), 1.52)
        assert np.allclose(n_kk, 1.52, atol=1e-12)

    def test_lorentzian_kappa_rebuilds_dispersive_n(self):
        """Feed the analytic Lorentz kappa in; n must come back out."""
        eps_m, f0, w0_ev, g0_ev = 2.3104, 0.05, 2.11, 0.0461
        energies = np.linspace(0.25, 5.0, 3000)
        omega = energies * EV_TO_RADS
        w0 = w0_ev * EV_TO_RADS
        g0 = g0_ev * EV_TO_RADS
        eps = eps_m + f0 * w0**2 / (w0**2 - omega**2 - 1j * omega * g0)
        index = np.sqrt(eps)
        n_kk = close_with_kk(energies, index.imag, np.sqrt(eps_m))
        band = (energies > 2.01) & (energies < 2.21)
        rel = np.abs(n_kk[band] - index.real[band]) / index.real[band]
        assert rel.max() < 0.02


class TestPhysicalCurve:
    """physical_curve on a hand-built sweep of three films, one root per
    wavelength each.  The reference, 2**-24 m (59.6 nm), and the films at
    0.75, 1.25 and 2 times it are binary fractions, so the thinner two tie
    exactly in distance and the kappa scale 0.75 is exact."""

    REFERENCE = 2.0**-24
    THIN, THICK, FAR = 0.75 * REFERENCE, 1.25 * REFERENCE, 2.0 * REFERENCE
    WAVELENGTHS = np.linspace(500e-9, 650e-9, 16)
    ASYMPTOTE = 1.5

    @classmethod
    def film_rows(cls, thickness, n, residual):
        x = (cls.WAVELENGTHS - 575e-9) / 30e-9
        return [(wl, n, k, residual, thickness)
                for wl, k in zip(cls.WAVELENGTHS, 0.2 + 0.3 * np.exp(-x**2))]

    @pytest.fixture
    def curve(self):
        # the thicker film first and every film descending in wavelength:
        # the rule must not lean on the row order extract_nk gives
        rows = (self.film_rows(self.FAR, 1.8, 2e-13) + self.film_rows(self.THIN, 1.6, 1e-13)
                + self.film_rows(self.THICK, 2.0, 3e-13))
        table = candidate_table(rows[::-1])
        return film.physical_curve(table, self.REFERENCE, self.ASYMPTOTE)

    def test_a_tie_takes_the_thinner_film(self, curve):
        assert abs(self.THIN - self.REFERENCE) == abs(self.THICK - self.REFERENCE)
        assert (curve.thickness == self.THIN).all()
        assert (curve.residual == 1e-13).all()

    def test_kappa_scales_by_nearest_over_reference(self, curve):
        kappa = np.array([row[2] for row in self.film_rows(self.THIN, 1.6, 1e-13)])
        assert np.array_equal(curve.kappa, kappa * (self.THIN / self.REFERENCE))
        assert not np.array_equal(curve.kappa, kappa)

    def test_one_row_per_wavelength_ascending(self, curve):
        assert np.array_equal(curve.wavelength, self.WAVELENGTHS)

    def test_n_is_the_closure_over_ascending_energies(self, curve):
        energies = vacuum_wavelength_m_to_ev(curve.wavelength)
        n = close_with_kk(energies[::-1], curve.kappa[::-1], self.ASYMPTOTE)[::-1]
        assert n.tobytes() == curve.n.tobytes()
        assert (n != 1.6).all()


class TestCsvIo:
    def test_round_trip(self, tmp_path):
        meas, _, _ = synthetic_measurements()
        path = tmp_path / "rt.csv"
        write_rt_csv(path, meas)
        back = read_rt_csv(path)
        assert back.wavelength.shape == meas.wavelength.shape
        assert np.all(np.abs(meas.wavelength - back.wavelength) < 1e-18)
        assert np.array_equal(back.reflectance, meas.reflectance)
        assert np.array_equal(back.transmittance, meas.transmittance)

    def test_header_is_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("lambda,refl,trans\n600,0.1,0.8\n")
        with pytest.raises(ValueError):
            read_rt_csv(path)

    def test_packaged_fixture_loads(self):
        from importlib.resources import files

        fixture = files("lsepkit") / "data" / "film_rt.csv"
        spectrum = read_rt_csv(fixture)
        assert spectrum.wavelength.size > 50
        assert np.all(spectrum.reflectance + spectrum.transmittance <= 1.0 + 1e-9)
