"""Film R/T forward model against a transfer-matrix oracle, inversion
round trips, branch selection, and the dispersion-integral closure."""

import csv
import dataclasses
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage, optimize

from lsepkit import cli, film, medium
from lsepkit.constants import EV_TO_RADS, ev_to_vacuum_wavelength_m
from lsepkit.film import (
    Branch,
    BranchAmbiguous,
    BranchSelection,
    FilmStack,
    NkCandidate,
    NkGrid,
    NoMinimumFound,
    RTMeasurement,
    _residual_map,
    _two_lowest_minima,
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


def synthetic_measurements(thickness=70e-9):
    """Smooth dispersive film curve pushed through the forward model."""
    wavelengths = np.linspace(500e-9, 650e-9, 16)
    n_true = 1.6 + 0.25 * np.exp(-(((wavelengths - 580e-9) / 30e-9) ** 2))
    k_true = 0.9 * np.exp(-(((wavelengths - 586e-9) / 25e-9) ** 2))
    rows = []
    for wl, nv, kv in zip(wavelengths, n_true, k_true):
        stack = FilmStack(thickness=thickness, film_index=complex(nv, kv))
        rt = rt_theoretical(stack, wl)
        rows.append(RTMeasurement(wl, rt.reflectance, rt.transmittance))
    return rows, n_true, k_true


class TestForwardModel:
    def test_matches_transfer_matrix_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            nf = complex(rng.uniform(1.0, 3.5), rng.uniform(0.0, 3.0))
            t = rng.uniform(20e-9, 200e-9)
            lam = rng.uniform(400e-9, 700e-9)
            rt = rt_theoretical(FilmStack(thickness=t, film_index=nf), lam)
            r_ref, t_ref = transfer_matrix_rt(nf, t, lam)
            assert abs(rt.reflectance - r_ref) < 1e-10
            assert abs(rt.transmittance - t_ref) < 1e-10

    def test_uniform_space_is_transparent(self):
        stack = FilmStack(thickness=70e-9, film_index=1.0 + 0j, substrate_index=1.0)
        rt = rt_theoretical(stack, 600e-9)
        assert abs(rt.reflectance) < 1e-14
        assert abs(rt.transmittance - 1.0) < 1e-14

    def test_absentee_half_wave_layer(self):
        lam = 600e-9
        nf = 2.0 + 0j
        stack = FilmStack(thickness=lam / (2.0 * nf.real), film_index=nf)
        rt = rt_theoretical(stack, lam)
        bare = abs((1.0 - 1.52) / (1.0 + 1.52)) ** 2
        assert abs(rt.reflectance - bare) < 1e-14

    def test_thick_absorbing_film_shows_front_interface(self):
        nf = 2.0 + 1.0j
        rt = rt_theoretical(FilmStack(thickness=5e-6, film_index=nf), 600e-9)
        front = abs((1.0 - nf) / (1.0 + nf)) ** 2
        assert abs(rt.reflectance - front) < 1e-12
        assert rt.transmittance < 1e-30

    def test_energy_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            kappa = rng.choice([0.0, rng.uniform(0.05, 2.0)])
            nf = complex(rng.uniform(1.0, 3.0), kappa)
            stack = FilmStack(thickness=rng.uniform(30e-9, 150e-9), film_index=nf)
            rt = rt_theoretical(stack, rng.uniform(400e-9, 700e-9))
            total = rt.reflectance + rt.transmittance
            if kappa == 0.0:
                assert abs(total - 1.0) < 1e-10
            else:
                assert total < 1.0

    def test_wavelength_guard(self):
        with pytest.raises(ValueError):
            rt_theoretical(FilmStack(thickness=70e-9, film_index=1.5 + 0j), -1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_wavelength_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="wavelength must be finite"):
            rt_theoretical(FilmStack(thickness=70e-9, film_index=1.5 + 0j), bad)


class TestValidation:
    def test_stack_rejects_gain_film(self):
        with pytest.raises(ValueError):
            FilmStack(thickness=70e-9, film_index=1.5 - 0.1j)

    def test_stack_rejects_nonpositive_thickness(self):
        with pytest.raises(ValueError):
            FilmStack(thickness=0.0, film_index=1.5 + 0j)

    def test_measurement_bounds(self):
        with pytest.raises(ValueError):
            RTMeasurement(600e-9, 1.2, 0.0)
        with pytest.raises(ValueError):
            RTMeasurement(600e-9, 0.6, 0.6)
        RTMeasurement(600e-9, 0.51, 0.50)  # inside the noise allowance

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_measurement_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            RTMeasurement(bad, 0.1, 0.8)
        with pytest.raises(ValueError):
            RTMeasurement(600e-9, bad, 0.8)
        with pytest.raises(ValueError):
            RTMeasurement(600e-9, 0.1, bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_stack_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            FilmStack(thickness=bad, film_index=1.5 + 0j)
        with pytest.raises(ValueError):
            FilmStack(thickness=70e-9, film_index=complex(bad, 0.1))
        with pytest.raises(ValueError):
            FilmStack(thickness=70e-9, film_index=complex(1.5, bad))
        with pytest.raises(ValueError):
            FilmStack(thickness=70e-9, film_index=1.5 + 0j, substrate_index=bad)
        with pytest.raises(ValueError):
            FilmStack(thickness=70e-9, film_index=1.5 + 0j, ambient_index=bad)

    def test_candidate_rejects_negative_residual(self):
        with pytest.raises(ValueError):
            NkCandidate(600e-9, 1.5, 0.1, -1e-3, Branch.UNRESOLVED, 70e-9)

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
        stack = FilmStack(thickness=70e-9, film_index=1.0 + 0j)
        truth = FilmStack(thickness=70e-9, film_index=2.1 + 0.7j)
        rt = rt_theoretical(truth, 574e-9)
        meas = RTMeasurement(574e-9, rt.reflectance, rt.transmittance)
        assert residual(2.1, 0.7, stack, meas) < 1e-12
        assert residual(2.2, 0.7, stack, meas) > 0.0
        assert residual(1.3, 0.2, stack, meas) >= 0.0

    def test_flat_landscape_raises(self):
        with pytest.raises(NoMinimumFound):
            _two_lowest_minima(np.full((11, 11), 0.25))

    def test_rejects_gain_trial(self):
        stack = FilmStack(thickness=70e-9, film_index=1.5 + 0j)
        with pytest.raises(ValueError):
            residual(1.5, -0.1, stack, RTMeasurement(600e-9, 0.1, 0.8))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_trial(self, bad):
        stack = FilmStack(thickness=70e-9, film_index=1.5 + 0j)
        meas = RTMeasurement(600e-9, 0.1, 0.8)
        with pytest.raises(ValueError, match="n must be finite"):
            residual(bad, 0.1, stack, meas)
        with pytest.raises(ValueError, match="kappa must be finite"):
            residual(1.5, bad, stack, meas)


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
        rows = read_rt_csv(files("lsepkit") / "data" / "film_rt.csv")
        picked = [m for m in rows if round(m.wavelength * 1e9, 6) in wavelengths_nm]
        assert len(picked) == len(wavelengths_nm)
        return picked

    def test_close_calls_reproduce_reference_branches(self):
        wanted = self.CLOSE_CALLS_NM + self.ORDINARY_NM
        cands = extract_nk(
            self.fixture(wanted), thickness_range=(self.THICKNESS, self.THICKNESS)
        )

        with self.REFERENCE.open(newline="") as handle:
            pinned = [
                r for r in csv.DictReader(handle)
                if abs(float(r["thickness_nm"]) - 63.0) < 1e-9
                and round(float(r["wavelength_nm"]), 6) in wanted
            ]
        assert len(pinned) == len(cands) == 2 * len(wanted)
        cands.sort(key=lambda c: (c.wavelength, c.kappa))
        for cand, row in zip(cands, pinned):
            assert round(cand.wavelength * 1e9, 6) == round(float(row["wavelength_nm"]), 6)
            assert abs(cand.n - float(row["n"])) < 1e-8
            assert abs(cand.kappa - float(row["kappa"])) < 1e-8
            assert abs(cand.residual - float(row["residual"])) < 1e-8


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


def _stack_and_measurement(wavelength, thickness, refl, trans, indices):
    ambient, substrate = indices
    stack = FilmStack(thickness, 1.5 + 0j, substrate_index=substrate, ambient_index=ambient)
    return stack, RTMeasurement(wavelength, refl, trans * (1.0 - refl))


def _seeds_or_flat(find):
    try:
        return find()
    except NoMinimumFound:
        return "no minimum"


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
        stack, meas = _stack_and_measurement(*params)
        surface, n_vals, k_vals = _residual_map(grid, stack, meas)
        tiling = film._tiling(n_vals, k_vals, stack.ambient_index, stack.substrate_index)
        k0d = 2.0 * np.pi * stack.thickness / meas.wavelength
        for size, discs in ((film._FINE, tiling.fine), (film._COARSE, tiling.coarse)):
            bounds = film._lower_bounds(discs, k0d, meas.reflectance, meas.transmittance)
            origins = film._tile_origins(surface.shape, size)
            for bound, row, col in zip(bounds, *origins):
                assert bound <= surface[row : row + size, col : col + size].min()

    @given(_GRIDS, _MAPS)
    # a map with one local minimum, whose first tiles have no bound
    @example(
        _window(1.0, 9, 0.1, 0.0, 40, 0.4),
        (4.772963985846437e-07, 5e-09, 0.0, 0.0, (1.0, 1.52)),
    )
    # repeated rows: the two lowest minima tie exactly, in row-major order
    @example(_window(2.0, 4, 1e-16, 0.5, 12, 0.1), (550e-9, 70e-9, 0.2, 0.5, (1.0, 1.52)))
    def test_pruned_seeds_equal_the_reference_seeds(self, grid, params):
        stack, meas = _stack_and_measurement(*params)
        expected = _seeds_or_flat(lambda: _two_lowest_minima(_residual_map(grid, stack, meas)[0]))
        per_map = np.array(
            [[stack.thickness], [meas.wavelength], [meas.reflectance], [meas.transmittance]]
        )
        assert _seeds_or_flat(
            lambda: film._grid_seeds(grid, *per_map, stack.ambient_index, stack.substrate_index)[0]
        ) == expected

    def test_map_without_near_minimum_raises_no_minimum_found(self):
        # an ambient index of 1e308 makes every residual NaN: no map has a
        # local minimum, and the answer is that of the full reference map
        measurements = read_rt_csv(files("lsepkit") / "data" / "film_rt.csv")[:20]
        grid = NkGrid(n_step=0.05, kappa_step=0.05)
        stack = FilmStack(thickness=70e-9, film_index=1.5 + 0j, ambient_index=1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NoMinimumFound):
                _two_lowest_minima(_residual_map(grid, stack, measurements[0])[0])
            with pytest.raises(NoMinimumFound):
                extract_nk(measurements, grid=grid, ambient_index=1e308)

    @pytest.mark.parametrize("per_call", [1, 37, film._VALUES_PER_CALL // film._HALO.size**2])
    def test_reference_arithmetic_on_tiles_equals_reference_map(self, per_call):
        # bit for bit, in arrays of any size (numpy rounds a complex
        # product by the order of its operands, which it swaps itself when
        # it reuses a temporary of 256 KiB or more), and in calls whose
        # tiles come from maps of different thickness and wavelength
        grid = NkGrid()
        n_vals, k_vals = grid.n_values, grid.kappa_values
        rows, cols = (
            np.clip(start[:, None] + film._HALO, 0, size - 1)
            for start, size in zip(
                film._tile_origins((n_vals.size, k_vals.size), film._FINE),
                (n_vals.size, k_vals.size),
            )
        )
        nf = n_vals[rows][:, :, None] + 1j * k_vals[cols][:, None, :]
        close_calls = TestCloseCalls.fixture(TestCloseCalls.CLOSE_CALLS_NM)
        maps = [(TestCloseCalls.THICKNESS, meas) for meas in close_calls] + [
            (FIXTURE_THICKNESSES[1], close_calls[1]), (FIXTURE_THICKNESSES[2], close_calls[3])
        ]
        params = np.array([(d, m.wavelength, m.reflectance, m.transmittance) for d, m in maps])
        reference = np.stack([
            _residual_map(grid, FilmStack(thickness=d, film_index=1.5 + 0j), m)[0]
            for d, m in maps
        ])
        # every tile of every map, the maps taking turns so that a call mixes them
        tile, owner = np.divmod(np.arange(rows.shape[0] * len(maps)), len(maps))
        for lo in range(0, tile.size, per_call):
            part, at = tile[lo : lo + per_call], owner[lo : lo + per_call]
            tiles = film._reference_surface(
                nf[part], *params[at].T[:, :, None, None], 1.0, 1.52
            )
            expected = reference[at[:, None, None], rows[part][:, :, None], cols[part][:, None, :]]
            assert np.array_equal(tiles, expected)


FIXTURE_RT = read_rt_csv(files("lsepkit") / "data" / "film_rt.csv")
# the CLI's default thickness sweep
FIXTURE_THICKNESSES = tuple(float(t) for t in np.linspace(63.0 * 1e-9, 77.0 * 1e-9, 3))


def scalar_residual(n, kappa, stack, meas):
    """The residual one root at a time in numpy scalar arithmetic: the
    model's former scalar path, whose every bit the refinement keeps."""
    r_amp, t_amp = film._amplitudes(
        complex(n, kappa), stack.thickness, meas.wavelength, stack.ambient_index,
        stack.substrate_index,
    )
    flux_ratio = stack.substrate_index / stack.ambient_index
    refl, trans = float(np.abs(r_amp) ** 2), float(flux_ratio * np.abs(t_amp) ** 2)
    return abs(trans - meas.transmittance) + abs(refl - meas.reflectance)


def _misfit_of(roots):
    """The objective nelder_mead takes, for (stack, measurement) roots."""
    thickness = np.array([stack.thickness for stack, _ in roots])
    wavelength = np.array([meas.wavelength for _, meas in roots])
    refl = np.array([meas.reflectance for _, meas in roots])
    trans = np.array([meas.transmittance for _, meas in roots])

    def objective(points, rows):
        return film._misfits(
            points[:, 0] + 1j * points[:, 1], thickness[rows], wavelength[rows],
            refl[rows], trans[rows], 1.0, 1.52,
        )

    return objective


def _fixture_at(wavelength_nm):
    return next(m for m in FIXTURE_RT if round(m.wavelength * 1e9, 6) == wavelength_nm)


@given(
    st.lists(
        st.tuples(
            st.floats(0.1, 3.5),
            st.one_of(st.just(0.0), st.floats(0.0, 3.2)),
            st.sampled_from(FIXTURE_THICKNESSES),
            st.sampled_from(FIXTURE_RT),
        ),
        min_size=1,
        max_size=8,
    )
)
# where R or T squared as x*x instead of through libm pow differs
@example([(1.95, 1.4, FIXTURE_THICKNESSES[2], _fixture_at(487.5))])
@example([(0.684, 0.352, FIXTURE_THICKNESSES[0], _fixture_at(550.0))])
def test_batched_residual_equals_scalar_residual(trials):
    roots = [(FilmStack(thickness=t, film_index=1.5 + 0j), meas) for _, _, t, meas in trials]
    points = np.array([(n, kappa) for n, kappa, _, _ in trials])
    batch = _misfit_of(roots)(points, np.arange(len(trials)))
    for (n, kappa), (stack, meas), value in zip(points, roots, batch):
        expected = scalar_residual(n, kappa, stack, meas)
        assert value == expected
        assert residual(n, kappa, stack, meas) == expected


class TestLockstepRefine:
    """nelder_mead against scipy's Nelder-Mead with the options of both
    callers.  extract_nk's options run root by root on fixture roots at
    63 nm: the 475 nm close call seeds one root on the kappa = 0 edge, a
    512.5 nm root meets an outside contraction exactly as good as its
    reflection, the 475 and 590 nm roots take shrink steps, and two extra
    seeds at n_max start from a simplex reflected back inside the bound.
    fit_material's options run on the packaged target spectrum from the
    fit-permittivity defaults."""

    THICKNESS = 63 * 1e-9
    WAVELENGTHS_NM = (475.0, 512.5, 590.0)
    GRID = NkGrid()

    def roots_and_seeds(self):
        stack = FilmStack(thickness=self.THICKNESS, film_index=1.5 + 0j)
        n_vals, k_vals = self.GRID.n_values, self.GRID.kappa_values
        roots, seeds = [], []
        for meas in TestCloseCalls.fixture(self.WAVELENGTHS_NM):
            for row, col in _two_lowest_minima(_residual_map(self.GRID, stack, meas)[0]):
                roots.append((stack, meas))
                seeds.append((n_vals[row], k_vals[col]))
        for kappa in (0.0, 0.5):  # on the last (590 nm) map
            roots.append(roots[-1])
            seeds.append((self.GRID.n_max, kappa))
        return roots, np.array(seeds)

    def scipy_refine(self, seed, stack, meas, maxiter):
        """scipy's result for one root, and whether it took a shrink step
        (the only step that evaluates four points)."""
        calls, marks = [0], []

        def objective(x):
            calls[0] += 1
            return scalar_residual(x[0], x[1], stack, meas)

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
        for i, (seed, (stack, meas)) in enumerate(zip(seeds, roots)):
            expected, took_shrink = self.scipy_refine(seed, stack, meas, maxiter)
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

    # the fit's options, capped at 20 iterations, and with a loose xatol
    # under which fatol decides convergence
    @pytest.mark.parametrize(
        "xatol, maxiter", [(1e-9, medium.FIT_MAXITER), (1e-9, 20), (1e-3, medium.FIT_MAXITER)]
    )
    def test_fit_options_match_scipy_bit_for_bit(self, xatol, maxiter):
        defaults = cli.load_config("fit-permittivity", None, ".")
        fixed = cli._material(defaults)
        target = medium.read_spectrum_csv(cli._packaged("epsilon_extracted.csv"))
        two_level = fixed.two_level

        def cost(x):
            material = dataclasses.replace(fixed, two_level=dataclasses.replace(
                two_level, dipole=np.exp(x[0]), pure_dephasing=x[1]))
            model = medium.epsilon_steady(material, target.energies)
            return float(np.sum(np.abs(model.epsilon - target.epsilon) ** 2))

        start = np.array([
            np.log(defaults["initial_dipole_debye"]),
            defaults["initial_pure_dephasing_ev"],
        ])
        scale = max(cost(start), np.sum(np.abs(target.epsilon) ** 2), 1e-30)
        bounds = [(np.log(1e-6), np.log(1e6)), (0.0, 10.0)]
        x, fun, nfev, nit, success = nelder_mead(
            lambda points, rows: np.array([cost(p) for p in points]),
            start[None, :],
            lower=np.array([lo for lo, _ in bounds]),
            upper=np.array([hi for _, hi in bounds]),
            xatol=xatol,
            fatol=1e-8 * scale,
            maxiter=maxiter,
        )
        expected = optimize.minimize(
            cost, start, method="Nelder-Mead", bounds=bounds,
            options={"xatol": xatol, "fatol": 1e-8 * scale, "maxiter": maxiter},
        )
        assert x[0].tolist() == expected.x.tolist()
        assert fun[0] == expected.fun
        assert (nfev[0], nit[0], success[0]) == (expected.nfev, expected.nit, expected.success)
        assert expected.success == (maxiter == medium.FIT_MAXITER)
        if expected.success and xatol == 1e-9:
            report = medium.fit_material(
                target,
                fixed,
                dipole_init=defaults["initial_dipole_debye"],
                dephasing_init=defaults["initial_pure_dephasing_ev"],
            )
            assert report.params.two_level.dipole == float(np.exp(expected.x[0]))
            assert report.params.two_level.pure_dephasing == float(expected.x[1])
            assert (report.residual, report.n_evaluations) == (expected.fun, expected.nfev)


class TestExtraction:
    GRID = NkGrid(n_min=1.0, n_max=3.0, n_step=0.01, kappa_min=0.0, kappa_max=2.0, kappa_step=0.01)

    def test_round_trip_recovers_truth(self):
        meas, n_true, k_true = synthetic_measurements()
        cands = extract_nk(meas, thickness_range=(70e-9, 70e-9), grid=self.GRID)
        assert all(c.branch is Branch.UNRESOLVED for c in cands)
        assert len(cands) == 2 * len(meas)
        selection = select_physical_branch(cands)
        for cand, nv, kv in zip(selection.physical, n_true, k_true):
            assert abs(cand.n - nv) <= 2.0 * self.GRID.n_step
            assert abs(cand.kappa - kv) <= 2.0 * self.GRID.kappa_step
            assert cand.branch is Branch.PHYSICAL
        # the rejected branch is genuinely distinct in the dispersive band
        spurious_gap = [
            abs(s.kappa - p.kappa)
            for s, p in zip(selection.spurious, selection.physical)
        ]
        assert max(spurious_gap) > 0.1

    def test_zero_absorption_recovered(self):
        wavelengths = np.linspace(520e-9, 640e-9, 8)
        meas = []
        for wl in wavelengths:
            rt = rt_theoretical(FilmStack(thickness=70e-9, film_index=1.8 + 0j), wl)
            meas.append(RTMeasurement(wl, rt.reflectance, rt.transmittance))
        cands = extract_nk(meas, thickness_range=(70e-9, 70e-9), grid=self.GRID)
        best = {c.wavelength: min((d for d in cands if d.wavelength == c.wavelength),
                                  key=lambda d: d.residual) for c in cands}
        for cand in best.values():
            assert cand.kappa <= 2.0 * self.GRID.kappa_step
            assert abs(cand.n - 1.8) <= 2.0 * self.GRID.n_step

    def test_thickness_sweep_produces_per_thickness_candidates(self):
        meas, _, _ = synthetic_measurements()
        cands = extract_nk(
            meas[:2], thickness_range=(63e-9, 77e-9), grid=self.GRID, n_thickness=3
        )
        thicknesses = {round(c.thickness_used * 1e9, 3) for c in cands}
        assert thicknesses == {63.0, 70.0, 77.0}

    def test_input_guards(self):
        with pytest.raises(ValueError):
            extract_nk([], thickness_range=(70e-9, 70e-9))
        meas, _, _ = synthetic_measurements()
        with pytest.raises(ValueError):
            extract_nk(meas, thickness_range=(77e-9, 63e-9))
        with pytest.raises(ValueError):
            extract_nk(meas, thickness_range=(0.5e-6, 2e-6))


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


class TestBranchSelection:
    @staticmethod
    def make(wl, n, k, thickness=70e-9):
        return NkCandidate(wl, n, k, 1e-6, Branch.UNRESOLVED, thickness)

    def test_single_branch_is_identity(self):
        wavelengths = np.linspace(500e-9, 600e-9, 6)
        cands = [self.make(wl, 1.6, 0.2) for wl in wavelengths]
        selection = select_physical_branch(cands)
        assert len(selection.physical) == 6
        assert all(c.branch is Branch.PHYSICAL for c in selection.physical)
        assert selection.spurious == ()

    def test_smooth_branch_wins_over_jagged(self):
        wavelengths = np.linspace(500e-9, 600e-9, 8)
        cands = []
        for i, wl in enumerate(wavelengths):
            cands.append(self.make(wl, 1.6, 0.2 + 0.01 * i))
            cands.append(self.make(wl, 2.4, 0.2 if i % 2 == 0 else 1.5))
        selection = select_physical_branch(cands)
        assert all(abs(c.kappa - 0.2) < 0.1 for c in selection.physical)

    def test_parallel_branches_are_ambiguous(self):
        wavelengths = np.linspace(500e-9, 600e-9, 8)
        cands = []
        for i, wl in enumerate(wavelengths):
            drift = 0.05 * i
            cands.append(self.make(wl, 1.6, 0.2 + drift))
            cands.append(self.make(wl, 2.4, 0.9 + drift))
        with pytest.raises(BranchAmbiguous):
            select_physical_branch(cands)


class TestKkClosure:
    def test_zero_kappa_returns_asymptote(self):
        energies = np.linspace(1.0, 3.0, 64)
        curve = close_with_kk(energies, np.zeros_like(energies), 1.52)
        assert np.allclose(curve.n, 1.52, atol=1e-12)

    def test_lorentzian_kappa_rebuilds_dispersive_n(self):
        """Feed the analytic Lorentz kappa in; n must come back out."""
        eps_m, f0, w0_ev, g0_ev = 2.3104, 0.05, 2.11, 0.0461
        energies = np.linspace(0.25, 5.0, 3000)
        omega = energies * EV_TO_RADS
        w0 = w0_ev * EV_TO_RADS
        g0 = g0_ev * EV_TO_RADS
        eps = eps_m + f0 * w0**2 / (w0**2 - omega**2 - 1j * omega * g0)
        index = np.sqrt(eps)
        curve = close_with_kk(energies, index.imag, np.sqrt(eps_m))
        band = (energies > 2.01) & (energies < 2.21)
        rel = np.abs(curve.n[band] - index.real[band]) / index.real[band]
        assert rel.max() < 0.02


class TestCsvIo:
    def test_round_trip(self, tmp_path):
        meas, _, _ = synthetic_measurements()
        path = tmp_path / "rt.csv"
        write_rt_csv(path, meas)
        back = read_rt_csv(path)
        assert len(back) == len(meas)
        for a, b in zip(meas, back):
            assert abs(a.wavelength - b.wavelength) < 1e-18
            assert a.reflectance == b.reflectance
            assert a.transmittance == b.transmittance

    def test_header_is_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("lambda,refl,trans\n600,0.1,0.8\n")
        with pytest.raises(ValueError):
            read_rt_csv(path)

    def test_packaged_fixture_loads(self):
        from importlib.resources import files

        fixture = files("lsepkit") / "data" / "film_rt.csv"
        rows = read_rt_csv(fixture)
        assert len(rows) > 50
        assert all(r.reflectance + r.transmittance <= 1.0 + 1e-9 for r in rows)
