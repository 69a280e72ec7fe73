"""Sphere response: coefficients against a high-precision oracle, field
boundary conditions, energy bookkeeping, and streamline behavior."""

from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lsepkit.bloch import DriveField, TwoLevelParams
from lsepkit.constants import C0, EPS0, EV_TO_RADS, HBAR, ev_to_vacuum_wavelength_m, power_to_field
from lsepkit.medium import (
    MaterialParams,
    PermittivitySpectrum,
    epsilon_steady,
    epsilon_transient,
)
from lsepkit.mie import fields, scatter
from lsepkit.mie import (
    EvaluationTooFarOut,
    RecurrenceUnstable,
    SizeParameterOutOfRange,
    SphereScene,
    Termination,
    efficiencies,
    mie_coefficients,
    multipole_cutoff,
    near_field_grid,
    poynting,
    poynting_streamlines,
    qabs_spectrum,
    qabs_transient,
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
        n_max = multipole_cutoff(scene.size_parameter) + 8
        a, b, c, d = scatter._partial_waves(
            np.array([scene.size_parameter]), np.array([scene.relative_index]), n_max
        )
        extra = efficiencies(
            scene, scatter.MieCoefficients(a=a[:, 0], b=b[:, 0], c=c[:, 0], d=d[:, 0], n_max=n_max)
        )
        assert abs(base.q_ext - extra.q_ext) < 1e-10
        assert abs(base.q_abs - extra.q_abs) < 1e-10

    def test_size_parameter_guard(self):
        with pytest.raises(SizeParameterOutOfRange):
            mie_coefficients(scene_for(150.0, 1.5 + 0.1j))

    def test_cutoff_grows_with_size(self):
        assert multipole_cutoff(0.5) >= 3
        assert multipole_cutoff(10.0) > multipole_cutoff(1.0)


def oracle_log_derivatives(z: complex, n_max: int) -> np.ndarray:
    """D_0..D_n_max(z) = psi_{n-1}/psi_n - n/z from 40-digit Bessel ratios."""
    mp.mp.dps = 40
    zm = mp.mpc(z)
    half = mp.mpf("0.5")
    j = [mp.besselj(n - half, zm) for n in range(n_max + 2)]
    return np.array([complex(j[n] / j[n + 1] - n / zm) for n in range(n_max + 1)])


class TestLogDerivatives:
    # the recurrence starts |z|**(2/3) orders above the cutoff; without that
    # margin the top orders miss the oracle by up to 8e-7 on this grid
    @pytest.mark.parametrize("x", [0.05, 1.0, 10.0, 50.0, 100.0])
    def test_against_high_precision_oracle(self, x):
        n_max = multipole_cutoff(x)
        for z in [x] + [m * x for m in (1.5 + 0.01j, 2.9 + 0.01j, 0.3 + 3j, 1.33 + 1e-4j)]:
            got = scatter._log_derivatives(np.array([z]), n_max)[:, 0]
            ref = oracle_log_derivatives(z, n_max)
            assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-11, z

    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf), 2e4 + 0j])
    def test_unusable_argument_raises_before_iterating(self, monkeypatch, bad):
        def no_start(*args):
            raise AssertionError("the recurrence was started")

        monkeypatch.setattr(scatter, "multipole_cutoff", no_start)
        with pytest.raises(RecurrenceUnstable, match="not finite or >"):
            scatter._log_derivatives(np.array([1.0 + 0.5j, bad]), 5)


def oracle_spherical_hankel(x: float, n: int) -> complex:
    """h_n(x) = sqrt(pi / 2x) (J + iY) of order n + 1/2, to 40 digits."""
    mp.mp.dps = 40
    xm, order = mp.mpf(x), n + mp.mpf("0.5")
    return complex(mp.sqrt(mp.pi / (2 * xm)) * (mp.besselj(order, xm) + 1j * mp.bessely(order, xm)))


class TestSphericalHankel:
    # one order per draw: mpmath takes about 11 s for all 1,043 orders at
    # x = 1e3; the upward recurrence's error grows with the order, so the
    # cutoffs at both ends of the range are explicit examples
    @settings(deadline=None)
    @given(log_x=st.floats(-3.0, 3.0), fraction=st.floats(0.0, 1.0))
    @example(log_x=-3.0, fraction=1.0)
    @example(log_x=3.0, fraction=1.0)
    def test_against_high_precision_oracle(self, log_x, fraction):
        x = 10.0**log_x
        n_max = multipole_cutoff(x)
        n = round(fraction * n_max)
        got = scatter._riccati_xi(np.array([x]), n_max)[n, 0] / x
        want = oracle_spherical_hankel(x, n)
        assert abs(got - want) <= 1e-13 * abs(want)


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


@st.composite
def _scenes_with_points(draw):
    """A sphere of size parameter up to about 7 and 1-200 points within a
    drawn reach of 0.5-10 radii; a permittivity near 0 (where every Mie
    solve fails) is moved to 1."""
    eps = complex(draw(st.floats(-6.0, 10.0)), draw(st.floats(0.0, 3.0)))
    scene = SphereScene(
        radius=draw(st.floats(10e-9, 200e-9)),
        sphere_epsilon=eps if abs(eps) >= 0.1 else 1.0,
        host_epsilon=draw(st.floats(1.0, 2.5)),
        wavelength_vacuum=draw(st.floats(300e-9, 1000e-9)),
    )
    n = draw(st.integers(1, 200))
    cube = draw(arrays(float, (n, 3), elements=st.floats(-1.0, 1.0)))
    reach = draw(st.floats(0.5, 9.99)) * scene.radius
    return scene, cube * (reach / np.sqrt(3.0))


def order_by_order_fields(scene, co, point):
    """E and H at one point, each spherical component of each field summed
    order by order (Bohren & Huffman 1983, sec. 4.4): the reference for
    the coefficient-block products of near_field_grid."""
    # the radius rounded as near_field_grid rounds it: inside, the j_1
    # anchor of _spherical_jn cancels at small |rho|, so a one-ulp
    # change of rho can move j_n by some 1e-12 relative
    r = np.linalg.norm(np.atleast_2d(point), axis=1)[0]
    theta, phi = np.arccos(point[2] / r), np.arctan2(point[1], point[0])
    pi_n, tau_n = fields._angular_functions(np.array([np.cos(theta)]), co.n_max)
    admittance = np.sqrt(scene.host_epsilon) * EPS0 * C0
    if r < scene.radius:
        rho = scene.relative_index * scene.host_wavenumber * r
        z_n = fields._spherical_jn(np.array([rho]), co.n_max)[:, 0]
        waves = ((co.c, -1j * co.d), (-co.d, 1j * co.c))  # (M, N) of E, then H
        h_factor = -scene.relative_index * admittance
    else:
        rho = scene.host_wavenumber * r
        # h_n from mpmath, not the upward recurrence of near_field_grid
        z_n = np.array([oracle_spherical_hankel(rho, n) for n in range(co.n_max + 1)])
        waves = ((-co.b, 1j * co.a), (-co.a, 1j * co.b))
        h_factor = admittance
    sph = np.zeros((2, 3), dtype=complex)
    for field, (wave_m, wave_n) in enumerate(waves):
        for n in range(1, co.n_max + 1):
            en = 1j**n * (2 * n + 1) / (n * (n + 1))
            cm, cn, pi, tau = wave_m[n - 1], wave_n[n - 1], pi_n[n, 0], tau_n[n, 0]
            rad, drad = z_n[n], z_n[n - 1] - n * z_n[n] / rho
            sph[field, 0] += en * cn * n * (n + 1) * np.sin(theta) * pi * rad / rho
            sph[field, 1] += en * (cn * tau * drad + cm * pi * rad)
            sph[field, 2] += en * (cn * pi * drad + cm * tau * rad)
    sph[0] *= [np.cos(phi), np.cos(phi), -np.sin(phi)]
    sph[1] *= h_factor * np.array([np.sin(phi), np.sin(phi), np.cos(phi)])
    ct, st_, cp, sp = np.cos(theta), np.sin(theta), np.cos(phi), np.sin(phi)
    basis = np.array([[st_ * cp, st_ * sp, ct], [ct * cp, ct * sp, -st_], [-sp, cp, 0.0]])
    e_field, h_field = sph @ basis
    if r >= scene.radius:
        plane = np.exp(1j * scene.host_wavenumber * point[2])
        e_field[0] += plane
        h_field[1] += admittance * plane
    return e_field, h_field


class TestNearField:
    @pytest.mark.parametrize("energy_ev", [2.12, 2.16])
    def test_equals_order_by_order_sum(self, energy_ev):
        scene = resonant_scene(energy_ev)
        co = mie_coefficients(scene)
        rng = np.random.default_rng(17)
        pts = rng.uniform(-3.0, 3.0, (40, 3)) * scene.radius
        pts = np.vstack([pts, [[0.0, 0.0, 60e-9], [0.0, 0.0, -20e-9], [49e-9, 0.0, 0.0]]])
        grid = near_field_grid(scene, co, pts)
        want = np.array([order_by_order_fields(scene, co, p) for p in pts])
        # a sum of about ten float64 terms per component: 1e-13 of the
        # largest field is some 500 roundings
        assert np.abs(grid.E - want[:, 0]).max() <= 1e-13 * np.abs(want[:, 0]).max()
        assert np.abs(grid.H - want[:, 1]).max() <= 1e-13 * np.abs(want[:, 1]).max()

    # the oracle takes mpmath's h_n order by order, about 0.4 ms each, so
    # it checks four points of each drawn batch (which may lie all outside,
    # all inside or on both sides), and in a batch of their own two points
    # on the z axis and one within CENTER_OFFSET of the center
    @settings(deadline=None)
    @given(case=_scenes_with_points(),
           z_radii=st.tuples(st.floats(0.01, 9.99), st.floats(-9.99, -0.01)),
           center=arrays(float, 3, elements=st.floats(-0.5, 0.5)))
    def test_drawn_scenes_equal_order_by_order_sum(self, case, z_radii, center):
        scene, pts = case
        co = mie_coefficients(scene)
        drawn = near_field_grid(scene, co, pts)
        axis = [[0.0, 0.0, z * scene.radius] for z in z_radii]
        ends = near_field_grid(scene, co, np.vstack([axis, center * fields.CENTER_OFFSET]))
        assert np.array_equal(ends.positions[-1], [0.0, 0.0, fields.CENTER_OFFSET])
        positions = np.vstack([drawn.positions[:4], ends.positions])
        want = np.array([order_by_order_fields(scene, co, p) for p in positions])
        e_field, h_field = np.vstack([drawn.E[:4], ends.E]), np.vstack([drawn.H[:4], ends.H])
        # a sum of about ten float64 terms per component: 1e-13 of the
        # largest field is some 500 roundings
        assert np.abs(e_field - want[:, 0]).max() <= 1e-13 * np.abs(want[:, 0]).max()
        assert np.abs(h_field - want[:, 1]).max() <= 1e-13 * np.abs(want[:, 1]).max()

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
        pole = near_field_grid(scene, co, [[scene.radius * 1.0000001, 0.0, 0.0]])
        expected = abs(3.0 * eps / (eps + 2.0))
        assert abs(pole.enhancement[0] - expected) / expected < 0.1
        interior = near_field_grid(scene, co, [[1e-9, 0.5e-9, -0.4e-9]])
        expected_in = abs(3.0 / (eps + 2.0))
        assert abs(interior.enhancement[0] - expected_in) / expected_in < 0.1

    def test_domain_and_origin_guards(self):
        scene = resonant_scene(2.16)
        co = mie_coefficients(scene)
        with pytest.raises(EvaluationTooFarOut):
            near_field_grid(scene, co, [[0.0, 0.0, 1e-6]])
        # the exact center takes the field a hair above it along z, and so
        # does every point nearer the center than that (moving a point just
        # above z = -1e-12 up by 1e-12 would land it next to the center,
        # where the expansion is off by orders of magnitude)
        near = [[0.0, 0.0, 0.0], [0.0, 0.0, -0.9999e-12], [1e-13, -1e-13, 5e-13]]
        center = near_field_grid(scene, co, near)
        above = near_field_grid(scene, co, [[0.0, 0.0, 1e-12]] * len(near))
        assert np.array_equal(center.positions, above.positions)
        assert np.array_equal(center.E, above.E) and np.array_equal(center.H, above.H)
        assert np.array_equal(center.enhancement, above.enhancement)
        with pytest.raises(ValueError, match="finite"):
            near_field_grid(scene, co, [[np.nan, 0.0, 0.0]])


MIRROR_Y = np.array([1.0, -1.0, 1.0])


class TestMirrorSymmetry:
    """x-polarized light along z is symmetric under y -> -y: E goes to
    (Ex, -Ey, Ez) and H to (-Hx, Hy, -Hz).  nearfield's map and tracer
    evaluate one point of each mirror pair on this."""

    @staticmethod
    def assert_mirrored(field, mirrored, signs, ulps, incident):
        """``mirrored`` times ``signs`` equals ``field`` within ``ulps`` of
        each point's largest component or of the incident amplitude,
        whichever is larger."""
        scale = np.spacing(np.maximum(np.abs(field).max(axis=1, keepdims=True), incident))
        assert np.all(np.abs(mirrored * signs - field) <= ulps * scale)

    @settings(deadline=None)
    @given(_scenes_with_points())
    def test_mirror_point_flips_the_components(self, case):
        scene, pts = case
        co = mie_coefficients(scene)
        admittance = np.sqrt(scene.host_epsilon) * EPS0 * C0
        direct = near_field_grid(scene, co, pts)
        # a mirror-image batch takes every product in the same order
        mirror = near_field_grid(scene, co, pts * MIRROR_Y)
        self.assert_mirrored(direct.E, mirror.E, MIRROR_Y, 0, 1.0)
        self.assert_mirrored(direct.H, mirror.H, -MIRROR_Y, 0, admittance)
        # in one mixed batch a point's place moves the sums over orders:
        # up to 11 ulp of this scale was seen in 1,500 random scenes, and
        # up to 69 ulp of the point's own largest component where the
        # partial waves cancel
        both = near_field_grid(scene, co, np.vstack([pts, pts * MIRROR_Y])[::-1])
        n = len(pts)
        self.assert_mirrored(direct.E, both.E[:n][::-1], MIRROR_Y, 32, 1.0)
        self.assert_mirrored(direct.H, both.H[:n][::-1], -MIRROR_Y, 32, admittance)


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


class TestLocalizedMode:
    """The sphere's dipole exciton-polariton mode: the zero of the a_1
    denominator m psi_1(mx) xi_1'(x) - xi_1(x) psi_1'(mx) in complex
    photon energy E, with eps(E) = eps_b + A / (E_0 - E - i hbar Gamma),
    the analytic continuation of epsilon_steady, in a host eps_h.

    The root is continued from the quasistatic pole, where eps = -2 eps_h,
    in 5 nm steps of the radius, by a secant whose second point lies
    1e-4 eV from the first (mpmath's default, 0.25 eV away, loses the
    root at 30 nm).  The fixed cases take criterion 2's material in
    vacuum; the property draws the host and the material around it."""

    @staticmethod
    def resonance(material):
        """A = N d^2 / (eps0 hbar) and hbar Gamma, as energies (eV)."""
        two_level = material.two_level
        coupling = material.number_density * two_level.dipole_si**2 / (EPS0 * HBAR)
        return coupling / EV_TO_RADS, two_level.total_dephasing_rate / EV_TO_RADS

    @classmethod
    def quasistatic(cls, material, host):
        coupling, width = cls.resonance(material)
        return (material.two_level.transition_energy
                + coupling / (material.background_permittivity + 2.0 * host) - 1j * width)

    @classmethod
    def epsilon(cls, material, energy):
        coupling, width = cls.resonance(material)
        return material.background_permittivity + coupling / (
            material.two_level.transition_energy - energy - 1j * width)

    @classmethod
    def denominator(cls, material, host, energy, radius):
        """a_1's denominator, with psi_n' = psi_(n-1) - (n / z) psi_n and
        xi_n = x h_n alike."""
        x = mp.sqrt(host) * radius * energy * EV_TO_RADS / C0
        m = mp.sqrt(cls.epsilon(material, energy)) / mp.sqrt(host)
        psi0, xi0 = mp.sin(m * x), -1j * mp.exp(1j * x)
        psi1, xi1 = psi0 / (m * x) - mp.cos(m * x), xi0 / x - mp.exp(1j * x)
        return m * psi1 * (xi0 - xi1 / x) - xi1 * (psi0 - psi1 / (m * x))

    @classmethod
    def continued_poles(cls, material, host, radii_nm):
        """The a_1 pole (eV) at each of the increasing radii (nm), each
        root the start of the next, the first from the quasistatic pole."""
        pole, poles = mp.mpc(cls.quasistatic(material, host)), []
        with mp.workdps(30):
            for radius_nm in radii_nm:
                pole = mp.findroot(
                    lambda e: cls.denominator(material, host, e, radius_nm * 1e-9),
                    (pole, pole + 1e-4), solver="secant")
                poles.append(complex(pole))
        return poles

    @pytest.fixture(scope="class")
    def poles(self):
        """{radius in nm: the a_1 pole in eV} for 5, 10, ..., 50 nm."""
        radii = range(5, 55, 5)
        return dict(zip(radii, self.continued_poles(BULK, 1.0, radii)))

    def test_the_continuation_is_epsilon_steady(self):
        energies = np.linspace(2.0, 2.3, 31)
        np.testing.assert_allclose(self.epsilon(BULK, energies),
                                   epsilon_steady(BULK, energies).epsilon, rtol=1e-12)

    def test_small_sphere_pole_is_quasistatic(self, poles):
        # 2.17130 - 0.01738i eV; measured 0.10 meV off at 5 nm
        assert abs(poles[5] - self.quasistatic(BULK, 1.0)) <= 1e-3

    @pytest.mark.parametrize("radius_nm", [10, 30, 50])
    def test_absorption_peaks_at_the_pole(self, poles, radius_nm):
        # measured 0.004, 0.0075 and 0.018 of the half-width |Im E_1|
        energies = np.linspace(2.10, 2.25, 7501)  # 2e-5 eV steps
        q_abs = qabs_spectrum(epsilon_steady(BULK, energies), radius_nm * 1e-9, 1.0).q_abs
        pole = poles[radius_nm]
        assert abs(energies[q_abs.argmax()] - pole.real) <= 0.05 * abs(pole.imag)

    # about 10 examples in Tier-1, a tenth of the profile's under
    # --hypothesis-profile=deep; each continues the pole in mpmath
    @settings(deadline=None, max_examples=max(10, settings.default.max_examples // 10))
    @given(
        host=st.floats(1.0, 2.0), radius_nm=st.floats(5.0, 40.0),
        transition=st.floats(2.0, 2.2), decay=st.floats(5e11, 2e12),
        dephasing=st.floats(0.01, 0.03), dipole=st.floats(25.0, 40.0),
        density=st.floats(2e25, 5e25), background=st.floats(2.0, 2.6),
    )
    def test_absorption_peaks_at_the_continued_pole(
        self, host, radius_nm, transition, decay, dephasing, dipole, density, background
    ):
        material = MaterialParams(
            density, background, TwoLevelParams(transition, decay, dephasing, dipole))
        radii = [*np.arange(5.0, radius_nm, 5.0), radius_nm]
        poles = self.continued_poles(material, host, radii)
        assert abs(poles[0] - self.quasistatic(material, host)) <= 1e-3
        # steps of 0.01 |Im E_1|, 20 |Im E_1| either side of Re E_1
        pole = poles[-1]
        energies = pole.real + abs(pole.imag) * np.linspace(-20.0, 20.0, 4001)
        q_abs = qabs_spectrum(epsilon_steady(material, energies), radius_nm * 1e-9, host).q_abs
        assert abs(energies[q_abs.argmax()] - pole.real) <= 0.05 * abs(pole.imag)


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
    spectrum = PermittivitySpectrum(energies=energies, epsilon=eps_real + 1j * eps_imag)
    radius = draw(st.floats(5e-9, 2e-6))
    host = draw(st.floats(1.0, 2.5))
    return spectrum, radius, host


class TestBatchedEfficiencies:
    # a draw solves up to 40 samples batched and then one by one, which can
    # take more than the default deadline on a loaded machine
    @settings(deadline=None)
    @given(_sphere_spectra())
    def test_matches_one_scene_per_sample(self, case):
        # the draws include gain rows, which only qabs_transient admits
        spectrum, radius, host = case
        result = qabs_transient(spectrum, radius=radius, host_epsilon=host)
        assert_matches_per_sample(result, spectrum, radius, host)

    def test_transient_clips_negative_imaginary_slices(self):
        drive = DriveField(amplitude=power_to_field(1e-3, 1.5e-3), photon_energy=2.11 + 0.09)
        times = np.arange(0.0, 400.5e-15, 1e-15)
        spectrum = epsilon_transient(BULK, drive, times)
        assert (spectrum.epsilon.imag < 0.0).sum() == 16
        assert spectrum.epsilon.imag.min() < -0.59
        result = qabs_transient(spectrum, radius=50e-9, host_epsilon=1.0)
        assert_matches_per_sample(result, spectrum, 50e-9, 1.0)
        # the rule follows the call: qabs_spectrum rejects the same slices
        with pytest.raises(ValueError, match="negative Im"):
            qabs_spectrum(spectrum, radius=50e-9, host_epsilon=1.0)
        # with the gain clipped in the data, qabs_spectrum gives the same bits
        passive = PermittivitySpectrum(spectrum.energies, spectrum.epsilon.real
                                       + 1j * np.maximum(spectrum.epsilon.imag, 0.0))
        steady = qabs_spectrum(passive, radius=50e-9, host_epsilon=1.0)
        assert np.array_equal(steady.q_abs, result.q_abs)


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
        with pytest.raises(ValueError, match="finite"):
            poynting_streamlines(scene, None, [[np.nan, 0.0, -200e-9]])


def test_readme_sphere_examples_run(capsys):
    # the README's quick start, transient and streamline snippets, exactly
    # as shown and in one namespace, as a reader runs them in turn; their
    # comments' claims hold
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [b.split("```")[0] for b in readme.split("```python\n")[1:]]
    namespace = {}
    for call in ("qabs_spectrum(spectrum", "qabs_transient(transient", "poynting_streamlines("):
        (snippet,) = [b for b in blocks if call in b]
        exec(compile(snippet, "README.md", "exec"), namespace)
    peak, q_max = (float(line) for line in capsys.readouterr().out.split())
    assert round(peak, 3) == 2.163 and q_max > 1.0
    times, q_t = namespace["times"], namespace["q_t"]
    assert q_t[times <= 30e-15].max() > 1.0 and q_t[-1] < 1.0
    farthest = max(ln.seed[1] for ln in namespace["captured"])
    assert round(farthest * 1e9, 6) == 95.0
