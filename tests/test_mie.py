"""Sphere response: coefficients against a high-precision oracle, field
boundary conditions, energy bookkeeping, and streamline behavior."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lsepkit.bloch import DriveField, TwoLevelParams
from lsepkit.constants import C0, EPS0, ev_to_vacuum_wavelength_m, power_to_field
from lsepkit.medium import (
    MaterialParams,
    PermittivitySpectrum,
    epsilon_steady,
    epsilon_transient,
)
from lsepkit.mie import (
    EvaluationTooFarOut,
    SizeParameterOutOfRange,
    SphereScene,
    Termination,
    efficiencies,
    mie_coefficients,
    multipole_cutoff,
    near_field,
    near_field_grid,
    poynting,
    poynting_streamlines,
    qabs_spectrum,
    qabs_transient,
    quasistatic_polarizability,
)

BULK = MaterialParams(
    number_density=3.29e25,
    background_permittivity=1.52**2,
    two_level=TwoLevelParams(
        transition_energy=2.11,
        decay_rate=1.15e12,
        pure_dephasing=0.017,
        dipole=32.0,
    ),
)


def resonant_scene(energy_ev: float) -> SphereScene:
    eps = epsilon_steady(BULK, np.array([energy_ev])).epsilon[0]
    return SphereScene(
        radius=50e-9,
        sphere_epsilon=complex(eps.real, max(eps.imag, 0.0)),
        host_epsilon=1.0,
        wavelength_vacuum=ev_to_vacuum_wavelength_m(energy_ev),
    )


# ---------------------------------------------------------------- oracle

def oracle_coefficients(x: float, m: complex, n_max: int):
    """Partial-wave coefficients from 40-digit Riccati-Bessel ratios."""
    mp.mp.dps = 40
    xm, mm = mp.mpf(x), mp.mpc(m)

    def psi(n, z):
        return mp.sqrt(mp.pi * z / 2) * mp.besselj(n + mp.mpf("0.5"), z)

    def chi(n, z):
        return -mp.sqrt(mp.pi * z / 2) * mp.bessely(n + mp.mpf("0.5"), z)

    def xi(n, z):
        return psi(n, z) - 1j * chi(n, z)

    def dpsi(n, z):
        return psi(n - 1, z) - n / z * psi(n, z)

    def dxi(n, z):
        return xi(n - 1, z) - n / z * xi(n, z)

    rows = []
    for n in range(1, n_max + 1):
        pmx, px, xx = psi(n, mm * xm), psi(n, xm), xi(n, xm)
        dpmx, dpx, dxx = dpsi(n, mm * xm), dpsi(n, xm), dxi(n, xm)
        a = (mm * pmx * dpx - px * dpmx) / (mm * pmx * dxx - xx * dpmx)
        b = (pmx * dpx - mm * px * dpmx) / (pmx * dxx - mm * xx * dpmx)
        c = (mm * px * dxx - mm * xx * dpx) / (pmx * dxx - mm * xx * dpmx)
        d = (mm * px * dxx - mm * xx * dpx) / (mm * pmx * dxx - xx * dpmx)
        rows.append([complex(v) for v in (a, b, c, d)])
    return np.array(rows)


def scene_for(x: float, m: complex, host: float = 1.0) -> SphereScene:
    lam = 600e-9
    radius = x * lam / (2.0 * np.pi * np.sqrt(host))
    return SphereScene(
        radius=radius,
        sphere_epsilon=(m * np.sqrt(host)) ** 2,
        host_epsilon=host,
        wavelength_vacuum=lam,
    )


class TestCoefficients:
    @pytest.mark.parametrize(
        "x,m",
        [
            (1.0, 1.5 + 0.1j),
            (5.0, 1.4 + 0.5j),
            (0.3, 2.0 + 1.5j),
            # psi_0 = sin x is mostly roundoff at nonzero multiples of pi
            (np.pi, 1.5 + 0.1j),
            (2.0 * np.pi, 1.33 + 0.01j),
            (3.0 * np.pi, 1.5 + 0.1j),
        ],
    )
    def test_against_high_precision_oracle(self, x, m):
        scene = scene_for(x, m)
        co = mie_coefficients(scene)
        ref = oracle_coefficients(x, m, co.n_max)
        got = np.stack([co.a, co.b, co.c, co.d], axis=1)
        assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-30)) < 1e-8

    def test_rayleigh_dipole_limit(self):
        m = 1.5 + 0.2j
        scene = scene_for(0.01, m)
        co = mie_coefficients(scene)
        x = scene.size_parameter
        a1_small = -2j / 3 * x**3 * (m**2 - 1) / (m**2 + 2)
        assert abs(co.a[0] - a1_small) / abs(a1_small) < 0.01

    def test_index_matched_sphere_is_transparent(self):
        scene = scene_for(2.0, 1.0 + 0.0j)
        co = mie_coefficients(scene)
        assert np.max(np.abs(co.a)) < 1e-12
        assert np.max(np.abs(co.b)) < 1e-12
        assert np.max(np.abs(co.c - 1.0)) < 1e-12
        assert np.max(np.abs(co.d - 1.0)) < 1e-12

    def test_truncation_is_converged(self):
        scene = scene_for(5.0, 1.4 + 0.5j)
        base = efficiencies(scene)
        extra = efficiencies(scene, mie_coefficients(scene, n_extra=8))
        assert abs(base.q_ext - extra.q_ext) < 1e-10
        assert abs(base.q_abs - extra.q_abs) < 1e-10

    def test_size_parameter_guard(self):
        with pytest.raises(SizeParameterOutOfRange):
            mie_coefficients(scene_for(150.0, 1.5 + 0.1j))

    def test_cutoff_grows_with_size(self):
        assert multipole_cutoff(0.5) >= 3
        assert multipole_cutoff(10.0) > multipole_cutoff(1.0)


class TestEfficiencies:
    def test_lossless_sphere_absorbs_nothing(self):
        scene = scene_for(3.0, 1.33 + 0.0j)
        eff = efficiencies(scene)
        assert abs(eff.q_abs) < 1e-10
        assert eff.q_sca > 0.0
        assert abs(eff.q_ext - eff.q_sca) < 1e-10

    def test_rayleigh_scattering_efficiency(self):
        m = 1.5 + 0.0j
        scene = scene_for(0.05, m)
        eff = efficiencies(scene)
        x = scene.size_parameter
        k_factor = (m**2 - 1) / (m**2 + 2)
        q_small = 8.0 / 3.0 * x**4 * abs(k_factor) ** 2
        assert abs(eff.q_sca - q_small) / q_small < 0.01

    def test_absorbing_sphere_splits_extinction(self):
        eff = efficiencies(scene_for(1.0, 1.5 + 0.1j))
        assert eff.q_abs > 0.0
        assert eff.q_sca > 0.0
        assert abs(eff.q_ext - eff.q_sca - eff.q_abs) < 1e-14

    def test_resonant_scene_absorbs_beyond_geometric(self):
        eff = efficiencies(resonant_scene(2.16))
        assert eff.q_abs > 1.0


class TestSceneValidation:
    def test_negative_radius(self):
        with pytest.raises(ValueError):
            SphereScene(-1e-9, 2.0 + 0j, 1.0, 600e-9)

    def test_gain_sphere_rejected(self):
        with pytest.raises(ValueError):
            SphereScene(50e-9, 2.0 - 0.5j, 1.0, 600e-9)

    def test_host_below_unity(self):
        with pytest.raises(ValueError):
            SphereScene(50e-9, 2.0 + 0j, 0.5, 600e-9)

    @pytest.mark.parametrize(
        "radius, eps, host, wavelength",
        [
            (float("nan"), 2.0 + 0j, 1.0, 600e-9),
            (float("inf"), 2.0 + 0j, 1.0, 600e-9),
            (50e-9, 2.0 + 0j, float("inf"), 600e-9),
            (50e-9, 2.0 + 0j, float("nan"), 600e-9),
            (50e-9, complex(float("nan"), 0.1), 1.0, 600e-9),
            (50e-9, complex(2.0, float("nan")), 1.0, 600e-9),
            (50e-9, complex(2.0, float("inf")), 1.0, 600e-9),
            (50e-9, 2.0 + 0j, 1.0, float("inf")),
        ],
    )
    def test_rejects_non_finite_values(self, radius, eps, host, wavelength):
        with pytest.raises(ValueError, match="finite"):
            SphereScene(radius, eps, host, wavelength)


class TestNearField:
    def test_boundary_conditions_at_resonance(self):
        """Tangential E and H continuous, normal D continuous."""
        scene = resonant_scene(2.16)
        co = mie_coefficients(scene)
        rng = np.random.default_rng(11)
        n_pts = 30
        theta = np.arccos(rng.uniform(-1.0, 1.0, n_pts))
        phi = rng.uniform(0.0, 2.0 * np.pi, n_pts)
        unit = np.stack(
            [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)],
            axis=1,
        )
        gap = 1e-7
        outer = near_field_grid(scene, co, scene.radius * (1.0 + gap) * unit)
        inner = near_field_grid(scene, co, scene.radius * (1.0 - gap) * unit)

        def tangential(field):
            radial = np.einsum("ij,ij->i", field, unit + 0j)[:, None] * unit
            return field - radial

        scale_e = np.abs(outer.E).max()
        scale_h = np.abs(outer.H).max()
        assert np.abs(tangential(outer.E) - tangential(inner.E)).max() / scale_e < 1e-5
        assert np.abs(tangential(outer.H) - tangential(inner.H)).max() / scale_h < 1e-5
        d_out = scene.host_epsilon * np.einsum("ij,ij->i", outer.E, unit + 0j)
        d_in = scene.sphere_epsilon * np.einsum("ij,ij->i", inner.E, unit + 0j)
        assert np.abs(d_out - d_in).max() / np.abs(d_in).max() < 1e-5

    def test_absorbed_power_matches_efficiency(self):
        """Surface-integrated inward flux reproduces the series q_abs."""
        scene = resonant_scene(2.16)
        co = mie_coefficients(scene)
        radius = 60e-9
        n_mu, n_phi = 48, 48
        mu, weights = np.polynomial.legendre.leggauss(n_mu)
        phi = np.arange(n_phi) * 2.0 * np.pi / n_phi
        mu_g, phi_g = np.meshgrid(mu, phi, indexing="ij")
        sin_t = np.sqrt(1.0 - mu_g**2)
        pts = radius * np.stack(
            [sin_t * np.cos(phi_g), sin_t * np.sin(phi_g), mu_g], axis=-1
        ).reshape(-1, 3)
        grid = near_field_grid(scene, co, pts)
        s_r = np.einsum("ij,ij->i", poynting(grid.E, grid.H), pts / radius)
        power_in = -np.sum(weights[:, None] * s_r.reshape(n_mu, n_phi))
        power_in *= 2.0 * np.pi / n_phi * radius**2
        s_inc = 0.5 * np.sqrt(scene.host_epsilon) * EPS0 * C0
        q_flux = power_in / s_inc / (np.pi * scene.radius**2)
        q_series = efficiencies(scene, co).q_abs
        assert abs(q_flux - q_series) / q_series < 1e-10

    def test_mirror_symmetry_of_enhancement(self):
        scene = resonant_scene(2.16)
        co = mie_coefficients(scene)
        pts = np.array([[30e-9, 40e-9, 20e-9], [30e-9, -40e-9, 20e-9]])
        grid = near_field_grid(scene, co, pts)
        assert abs(grid.enhancement[0] - grid.enhancement[1]) < 1e-12

    def test_index_matched_field_is_plane_wave(self):
        scene = scene_for(1.0, 1.0 + 0.0j, host=2.25)
        co = mie_coefficients(scene)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2.0, 2.0, (15, 3)) * scene.radius
        pts = pts[np.linalg.norm(pts, axis=1) > 1e-9]
        grid = near_field_grid(scene, co, pts)
        k = scene.host_wavenumber
        admittance = np.sqrt(scene.host_epsilon) * EPS0 * C0
        phase = np.exp(1j * k * pts[:, 2])
        assert np.abs(grid.E[:, 0] - phase).max() < 1e-10
        assert np.abs(grid.E[:, 1:]).max() < 1e-10
        assert np.abs(grid.H[:, 1] - admittance * phase).max() / admittance < 1e-10
        assert np.allclose(grid.enhancement, 1.0, atol=1e-10)

    def test_quasistatic_surface_enhancement(self):
        """Small sphere: field at the polarization pole follows 3 eps/(eps+2)."""
        eps = 4.0 + 0.1j
        scene = SphereScene(3e-9, eps, 1.0, 600e-9)
        co = mie_coefficients(scene)
        pole = near_field(scene, co, [scene.radius * 1.0000001, 0.0, 0.0])
        expected = abs(3.0 * eps / (eps + 2.0))
        assert abs(pole.enhancement - expected) / expected < 0.1
        interior = near_field(scene, co, [1e-9, 0.5e-9, -0.4e-9])
        expected_in = abs(3.0 / (eps + 2.0))
        assert abs(interior.enhancement - expected_in) / expected_in < 0.1

    def test_domain_and_origin_guards(self):
        scene = resonant_scene(2.16)
        co = mie_coefficients(scene)
        with pytest.raises(EvaluationTooFarOut):
            near_field(scene, co, [0.0, 0.0, 1e-6])
        with pytest.raises(ValueError):
            near_field(scene, co, [0.0, 0.0, 0.0])


class TestQuasistaticResponse:
    def test_matched_sphere_has_zero_polarizability(self):
        resp = quasistatic_polarizability(2.25 + 0.0j, 2.25, 10e-9)
        assert abs(resp.polarizability) < 1e-30
        assert not resp.resonant

    def test_resonance_pole_is_flagged(self):
        resp = quasistatic_polarizability(-2.0 + 0.0j, 1.0, 10e-9)
        assert resp.resonant
        assert np.isinf(abs(resp.polarizability))

    def test_off_resonance_value(self):
        eps = 4.0 + 0.0j
        resp = quasistatic_polarizability(eps, 1.0, 10e-9)
        expected = 4.0 * np.pi * (10e-9) ** 3 * (eps - 1.0) / (eps + 2.0)
        assert abs(resp.polarizability - expected) / abs(expected) < 1e-12


class TestSpectra:
    def test_peak_locations_split(self):
        """Efficiency peaks at the mode energy, kappa at its own maximum."""
        energies = np.arange(2.0, 2.31, 0.002)
        spec = epsilon_steady(BULK, energies)
        result = qabs_spectrum(spec, radius=50e-9, host_epsilon=1.0)
        i_q = int(np.argmax(result.q_abs))
        i_k = int(np.argmax(result.kappa_normalized))
        assert abs(energies[i_q] - 2.16) <= 0.01
        assert abs(energies[i_k] - 2.12) <= 0.01
        assert result.q_abs[i_q] > 1.0
        assert abs(result.kappa_normalized[i_k] - 1.0) < 1e-12


def per_sample_efficiencies(spectrum, radius, host):
    """(Q_ext, Q_sca, Q_abs) rows from one SphereScene per clipped sample."""
    rows = []
    for energy, eps in zip(spectrum.energies, spectrum.epsilon):
        scene = SphereScene(
            radius=radius,
            sphere_epsilon=complex(eps.real, max(eps.imag, 0.0)),
            host_epsilon=host,
            wavelength_vacuum=ev_to_vacuum_wavelength_m(energy),
        )
        e = efficiencies(scene)
        rows.append((e.q_ext, e.q_sca, e.q_abs))
    return np.array(rows)


def assert_matches_per_sample(result, spectrum, radius, host):
    q_ext, q_sca, q_abs = per_sample_efficiencies(spectrum, radius, host).T
    assert np.all(np.abs(result.q_ext - q_ext) <= 1e-12 * np.abs(q_ext))
    assert np.all(np.abs(result.q_sca - q_sca) <= 1e-12 * q_sca)
    # Q_abs is a difference that may vanish; bound its error by Q_ext
    assert np.all(np.abs(result.q_abs - q_abs) <= 1e-12 * np.abs(q_ext))


@st.composite
def _sphere_spectra(draw):
    """Random radius, host and energy grid, with permittivities that may dip
    below Im = 0 (a transient's momentary gain).

    Radii up to 2 um over 0.5-3 eV put size parameters up to about 50, so a
    grid spans several multipole cutoffs.  A clipped eps near 0 (a vanishing
    index, where every Mie solve fails) is moved to 1.
    """
    n = draw(st.integers(1, 40))
    energies = np.sort(draw(arrays(float, n, elements=st.floats(0.5, 3.0))))
    eps_real = draw(arrays(float, n, elements=st.floats(-6.0, 10.0)))
    eps_imag = draw(arrays(float, n, elements=st.floats(-0.5, 3.0)))
    eps_real[np.abs(eps_real + 1j * np.maximum(eps_imag, 0.0)) < 0.1] = 1.0
    spectrum = PermittivitySpectrum(
        energies=energies, epsilon=eps_real + 1j * eps_imag, time=np.arange(n) * 1e-15
    )
    radius = draw(st.floats(5e-9, 2e-6))
    host = draw(st.floats(1.0, 2.5))
    return spectrum, radius, host


class TestBatchedEfficiencies:
    @given(_sphere_spectra())
    def test_matches_one_scene_per_sample(self, case):
        spectrum, radius, host = case
        result = qabs_spectrum(spectrum, radius=radius, host_epsilon=host)
        assert_matches_per_sample(result, spectrum, radius, host)

    def test_transient_clips_negative_imaginary_slices(self):
        drive = DriveField(amplitude=power_to_field(1e-3, 1.5e-3), photon_energy=2.11 + 0.09)
        times = np.arange(0.0, 400.5e-15, 1e-15)
        spectrum = epsilon_transient(BULK, drive, times)
        assert (spectrum.epsilon.imag < 0.0).sum() == 16
        assert spectrum.epsilon.imag.min() < -0.59
        result = qabs_spectrum(spectrum, radius=50e-9, host_epsilon=1.0)
        assert_matches_per_sample(result, spectrum, 50e-9, 1.0)
        assert np.array_equal(result.time, times)
        via_transient = qabs_transient(spectrum, radius=50e-9, host_epsilon=1.0)
        assert np.array_equal(via_transient.q_abs, result.q_abs)
        steady = PermittivitySpectrum(energies=spectrum.energies, epsilon=spectrum.epsilon)
        with pytest.raises(ValueError, match="negative Im"):
            qabs_spectrum(steady, radius=50e-9, host_epsilon=1.0)
        with pytest.raises(ValueError, match="time axis"):
            qabs_transient(steady, radius=50e-9, host_epsilon=1.0)


class TestStreamlines:
    def seed_line(self, offsets):
        return np.stack(
            [np.zeros_like(offsets), offsets, np.full_like(offsets, -200e-9)],
            axis=1,
        )

    def test_capture_at_resonance(self):
        """Flux lines inside the absorption tube terminate in the sphere."""
        scene = resonant_scene(2.16)
        co = mie_coefficients(scene)
        ys = np.arange(-200e-9, 200.0001e-9, 10e-9)
        lines = poynting_streamlines(scene, co, self.seed_line(ys))
        by_seed = {round(ln.seed[1] * 1e9): ln.terminated for ln in lines}
        for y_nm in range(-80, 81, 10):
            assert by_seed[y_nm] is Termination.ABSORBED
        assert by_seed[150] is Termination.LEFT_DOMAIN
        assert by_seed[-150] is Termination.LEFT_DOMAIN
        captured = sum(t is Termination.ABSORBED for t in by_seed.values())
        # capture tube must outrun the geometric cross-section (q_abs > 1)
        assert max(abs(y) for y, t in by_seed.items() if t is Termination.ABSORBED) > 50

        scene_k = resonant_scene(2.12)
        lines_k = poynting_streamlines(scene_k, mie_coefficients(scene_k), self.seed_line(ys))
        captured_k = sum(ln.terminated is Termination.ABSORBED for ln in lines_k)
        assert captured_k < captured

    def test_capture_radius_matches_absorbed_power(self):
        """The H-plane capture offset is near sqrt(q_abs) times the radius.

        sqrt(q_abs) * a is only the equal-area disc estimate, the radius of a
        disc that carries the absorbed power under uniform incident flux.
        The captured tube is not circular (converged separatrix at 93 nm in
        the E-plane, 104 nm in the H-plane), and the default 10 nm Euler
        tracer reads the H-plane edge short, at 95 nm.  Acceptance
        criterion 6 checks the tube's flux against the absorbed power.
        """
        scene = resonant_scene(2.16)
        co = mie_coefficients(scene)
        q_abs = efficiencies(scene, co).q_abs
        equivalent = np.sqrt(q_abs) * scene.radius
        ys = np.arange(0.0, 200.0001e-9, 5e-9)
        lines = poynting_streamlines(scene, co, self.seed_line(ys))
        cap = [ln.seed[1] for ln in lines if ln.terminated is Termination.ABSORBED]
        miss = [ln.seed[1] for ln in lines if ln.terminated is not Termination.ABSORBED]
        assert max(cap) < min(miss)
        assert abs(max(cap) - equivalent) < 10e-9

    def test_funneling_bends_passing_lines_inward(self):
        scene = resonant_scene(2.16)
        co = mie_coefficients(scene)
        (line,) = poynting_streamlines(scene, co, self.seed_line(np.array([120e-9])))
        assert line.terminated is Termination.LEFT_DOMAIN
        downstream = line.points[line.points[:, 2] > 150e-9]
        assert np.abs(downstream[:, 1]).min() < 90e-9

    def test_straight_lines_when_index_matched(self):
        scene = scene_for(1.0, 1.0 + 0.0j)
        co = mie_coefficients(scene)
        seeds = self.seed_line(np.array([-60e-9, 40e-9]))
        lines = poynting_streamlines(scene, co, seeds, max_steps=40)
        for ln in lines:
            assert np.abs(ln.points[:, 0] - ln.seed[0]).max() < 1e-12
            assert np.abs(ln.points[:, 1] - ln.seed[1]).max() < 1e-12
            assert ln.points[-1, 2] > ln.points[0, 2]

    def test_midpoint_scheme_is_step_converged(self):
        """Halving the step moves a terminal point by less than one step."""
        scene = resonant_scene(2.16)
        co = mie_coefficients(scene)
        seeds = self.seed_line(np.array([140e-9]))

        def terminal(step):
            (line,) = poynting_streamlines(
                scene, co, seeds, step=step, max_steps=3000, scheme="midpoint"
            )
            assert line.terminated is Termination.LEFT_DOMAIN
            return line.points[-1]

        coarse = terminal(10e-9)
        fine = terminal(5e-9)
        assert np.linalg.norm(coarse - fine) < 10e-9

    def test_step_budget_returns_max_steps(self):
        scene = resonant_scene(2.16)
        lines = poynting_streamlines(
            scene, None, self.seed_line(np.array([0.0])), max_steps=3
        )
        assert lines[0].terminated is Termination.MAX_STEPS
        assert len(lines[0].points) == 4

    def test_invalid_inputs(self):
        scene = resonant_scene(2.16)
        with pytest.raises(ValueError):
            poynting_streamlines(scene, None, [[0.0, 0.0, -200e-9]], step=-1.0)
        with pytest.raises(ValueError):
            poynting_streamlines(scene, None, [[0.0, 0.0, -200e-9]], scheme="leapfrog")
