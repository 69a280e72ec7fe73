"""Effective-permittivity module: analytic oracles and round trips."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsepkit import cli, medium
from lsepkit.bloch import DriveField, TwoLevelParams
from lsepkit.constants import EV_TO_RADS
from lsepkit.medium import (
    FitDiverged,
    FitReport,
    LorentzParams,
    MaterialParams,
    PermittivitySpectrum,
    epsilon_steady,
    epsilon_transient,
    fit_material,
    lorentz_epsilon,
    read_spectrum_csv,
    refractive_index,
    write_spectrum_csv,
)

EPS_HOST = 1.52**2
BULK = MaterialParams(3.29e25, EPS_HOST,
                      TwoLevelParams(2.11, 1.15e12, 0.017, 32.0))
PLANAR = MaterialParams(1.47e25, EPS_HOST,
                        TwoLevelParams(2.11, 1.15e12, 0.017, 48.0))


def analytic_epsilon(material, energies):
    """Independent route: closed-form Lorentzian in energy units."""
    p = material.two_level
    a = material.coupling_strength / EV_TO_RADS
    gam = p.total_dephasing_energy
    delta = p.transition_energy - np.asarray(energies, dtype=float)
    return material.background_permittivity + a * (delta + 1j * gam) / (
        delta**2 + gam**2
    )


class TestEpsilonSteady:
    def test_matches_closed_form(self):
        grid = np.linspace(1.6, 2.6, 201)
        got = epsilon_steady(BULK, grid).epsilon
        np.testing.assert_allclose(got, analytic_epsilon(BULK, grid), rtol=1e-12)

    def test_reference_value_above_resonance(self):
        eps = epsilon_steady(BULK, [2.16]).epsilon[0]
        assert eps.real == pytest.approx(-2.251, rel=0.10)
        assert eps.imag == pytest.approx(1.728, rel=0.10)

    def test_vanishing_density_limit(self):
        dilute = MaterialParams(1.0, EPS_HOST, BULK.two_level)
        eps = epsilon_steady(dilute, np.linspace(1.9, 2.3, 11)).epsilon
        np.testing.assert_allclose(eps, EPS_HOST, atol=1e-10)

    def test_far_tail_returns_to_background(self):
        eps = epsilon_steady(BULK, [1.5]).epsilon[0]
        assert abs(eps.imag) < 0.1
        assert eps.real == pytest.approx(EPS_HOST, abs=0.5)

    def test_passivity(self):
        eps = epsilon_steady(BULK, np.linspace(0.5, 4.0, 701)).epsilon
        assert np.all(eps.imag > 0.0)

    def test_parameter_set_equivalence(self):
        # planar and bulk concentration conventions describe one material;
        # spectra compared against the band's permittivity scale since
        # |eps| itself sweeps through a near-zero crossing
        grid = np.linspace(1.8, 2.4, 301)
        e2 = epsilon_steady(PLANAR, grid).epsilon
        e3 = epsilon_steady(BULK, grid).epsilon
        scale = np.abs(e3).max()
        assert np.abs(e2 - e3).max() <= 0.01 * scale
        # sharper: identical lineshape, prefactors within 1 percent
        ratio = (e2 - EPS_HOST) / (e3 - EPS_HOST)
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-10)
        assert abs(ratio[0] - 1.0) < 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            MaterialParams(0.0, EPS_HOST, BULK.two_level)
        with pytest.raises(ValueError):
            MaterialParams(1e25, 0.9, BULK.two_level)

    @pytest.mark.parametrize(
        "density, background",
        [(float("nan"), EPS_HOST), (float("inf"), EPS_HOST),
         (1e25, float("nan")), (1e25, float("inf"))],
    )
    def test_rejects_non_finite_values(self, density, background):
        with pytest.raises(ValueError, match="finite"):
            MaterialParams(density, background, BULK.two_level)


class TestLorentz:
    PAPERISH = LorentzParams(EPS_HOST, 0.3, 2.11, 0.0461)

    def test_static_limit(self):
        eps = lorentz_epsilon(self.PAPERISH, [0.0]).epsilon[0]
        assert eps == pytest.approx(EPS_HOST + 0.3)

    def test_center_value(self):
        eps = lorentz_epsilon(self.PAPERISH, [2.11]).epsilon[0]
        assert eps.real == pytest.approx(EPS_HOST, abs=1e-12)
        assert eps.imag == pytest.approx(0.3 * 2.11 / 0.0461, rel=1e-12)

    def test_high_frequency_limit(self):
        eps = lorentz_epsilon(self.PAPERISH, [1e4]).epsilon[0]
        assert eps == pytest.approx(EPS_HOST, abs=1e-5)

    def test_quantum_model_reduces_to_lorentz_without_pure_dephasing(self):
        # with pure dephasing off, matching width gamma0 = hbar*gamma01
        # and strength f0 = 2A/w0 makes the two models coincide near
        # resonance up to counter-rotating corrections of order 1e-3
        p = TwoLevelParams(2.11, 1.15e12, 0.0, 32.0)
        m = MaterialParams(3.29e25, EPS_HOST, p)
        a = m.coupling_strength / EV_TO_RADS
        gamma0 = p.decay_rate / EV_TO_RADS
        lp = LorentzParams(EPS_HOST, 2.0 * a / 2.11, 2.11, gamma0)
        halfwidth = p.total_dephasing_energy
        grid = np.linspace(2.11 - 5 * halfwidth, 2.11 + 5 * halfwidth, 81)
        eq = epsilon_steady(m, grid).epsilon
        el = lorentz_epsilon(lp, grid).epsilon
        np.testing.assert_allclose(eq, el, rtol=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            LorentzParams(EPS_HOST, -0.1, 2.11, 0.046)

    @pytest.mark.parametrize("field", range(4))
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_values(self, field, bad):
        values = [EPS_HOST, 0.3, 2.11, 0.0461]
        values[field] = bad
        with pytest.raises(ValueError, match="finite"):
            LorentzParams(*values)


class TestTransient:
    DRIVE = DriveField(amplitude=462.0, photon_energy=2.20)

    def test_starts_at_background(self):
        # coherence grows linearly from zero, so the offset shrinks with t
        early = epsilon_transient(BULK, self.DRIVE, [1e-21]).epsilon[0]
        later = epsilon_transient(BULK, self.DRIVE, [1e-16]).epsilon[0]
        assert early == pytest.approx(EPS_HOST, abs=1e-5)
        assert abs(early - EPS_HOST) < abs(later - EPS_HOST)
        assert epsilon_transient(BULK, self.DRIVE, [1e-21]).time is not None

    def test_converges_to_steady_state(self):
        spec = epsilon_transient(BULK, self.DRIVE, [1e-12])
        ss = epsilon_steady(BULK, [2.20]).epsilon[0]
        assert abs(spec.epsilon[0] - ss) <= 1e-4 * abs(ss)

    def test_beat_period_matches_detuning(self):
        times = np.linspace(1e-15, 250e-15, 2501)
        spec = epsilon_transient(BULK, self.DRIVE, times)
        ss = epsilon_steady(BULK, [2.20]).epsilon[0]
        gap = spec.epsilon.real - ss.real
        peaks = [i for i in range(1, len(times) - 1)
                 if gap[i] > gap[i - 1] and gap[i] > gap[i + 1]]
        assert len(peaks) >= 3
        period = 2.0 * np.pi / (0.09 * EV_TO_RADS)
        np.testing.assert_allclose(np.diff(times[peaks[:4]]), period, rtol=0.01)

    def test_field_strength_independent_when_weak(self):
        t = [200e-15]
        lo = epsilon_transient(BULK, DriveField(100.0, 2.20), t).epsilon[0]
        hi = epsilon_transient(BULK, DriveField(1000.0, 2.20), t).epsilon[0]
        assert abs(lo - hi) <= 1e-3 * abs(hi)

    def test_zero_field_is_the_weak_field_limit(self):
        # rho01~ grows linearly with E0, so eps(t) keeps its weak-field
        # value as the field goes to zero
        times = np.linspace(0.0, 400e-15, 401)
        for energy in (2.11, 2.20, 2.201):
            zero = epsilon_transient(BULK, DriveField(0.0, energy), times)
            weak = epsilon_transient(BULK, DriveField(1e-3, energy), times)
            excess = np.abs(weak.epsilon - EPS_HOST).max()
            assert np.abs(zero.epsilon - weak.epsilon).max() <= 1e-12 * excess
            assert zero.time is not None and len(zero.time) == 401

    @pytest.mark.parametrize("energy", [2.11, 2.20, 2.201])
    def test_zero_field_settles_to_steady_state(self, energy):
        late = epsilon_transient(BULK, DriveField(0.0, energy), [2e-12]).epsilon[0]
        steady = epsilon_steady(BULK, [energy]).epsilon[0]
        assert abs(late - steady) <= 1e-12 * abs(steady)


class TestSpectrumValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_samples(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PermittivitySpectrum([1.0, bad], [4.0 + 0j, 4.0 + 0j])
        with pytest.raises(ValueError, match="finite"):
            PermittivitySpectrum([1.0, 2.0], [4.0 + 0j, complex(4.0, bad)])
        with pytest.raises(ValueError, match="finite"):
            PermittivitySpectrum([1.0, 2.0], [4.0 + 0j, 4.0 + 0j], time=[0.0, bad])


class TestRefractiveIndex:
    def test_simple_values(self):
        spec = PermittivitySpectrum([1.0, 2.0], [4.0 + 0j, -1.0 + 0j])
        n = refractive_index(spec)
        np.testing.assert_allclose(n, [2.0, 1j], atol=1e-15)

    def test_square_back(self):
        spec = PermittivitySpectrum([2.16], [-2.251 + 1.728j])
        n = refractive_index(spec)[0]
        assert n.real > 0 and n.imag > 0
        assert n * n == pytest.approx(-2.251 + 1.728j, rel=1e-12)

    def test_branch_on_negative_imag(self):
        spec = PermittivitySpectrum([1.0], [-1.0 - 1e-18j])
        assert refractive_index(spec)[0].imag >= 0.0


class TestFit:
    def test_round_trip_recovers_parameters(self):
        grid = np.linspace(1.9, 2.35, 120)
        target = epsilon_steady(PLANAR, grid)
        start = MaterialParams(
            PLANAR.number_density, EPS_HOST,
            TwoLevelParams(2.11, 1.15e12, 0.025, 40.0),
        )
        report = fit_material(target, start)
        assert isinstance(report, FitReport)
        assert report.params.two_level.dipole == pytest.approx(48.0, rel=0.01)
        assert report.params.two_level.pure_dephasing == pytest.approx(0.017, rel=0.01)
        assert report.residual < 1e-6 * report.initial_residual
        assert not report.degenerate

    def test_flat_target_flags_degenerate(self):
        grid = np.linspace(1.9, 2.35, 60)
        target = PermittivitySpectrum(grid, np.full(grid.shape, EPS_HOST, complex))
        report = fit_material(target, BULK)
        assert report.degenerate
        assert report.params.two_level.dipole < 0.1

    def test_bad_start_rejected(self):
        # the fit starts from the fixed parameters: a negative, NaN or
        # infinite start cannot be built
        for field, bad in [("dipole", -5.0), ("dipole", float("nan")),
                           ("pure_dephasing", float("inf"))]:
            with pytest.raises(ValueError):
                dataclasses.replace(BULK.two_level, **{field: bad})

    def test_iteration_cap_raises_fit_diverged(self, monkeypatch):
        grid = np.linspace(1.9, 2.35, 120)
        target = epsilon_steady(PLANAR, grid)
        start = MaterialParams(
            PLANAR.number_density, EPS_HOST,
            TwoLevelParams(2.11, 1.15e12, 0.025, 40.0),
        )
        monkeypatch.setattr(medium, "FIT_MAXITER", 5)
        with pytest.raises(FitDiverged, match="after 5 iterations"):
            fit_material(target, start)

    def test_dipole_above_the_cap_raises_fit_diverged(self):
        # at 1e-20 emitters per m^3 the target needs a dipole far above
        # MAX_DIPOLE_DEBYE; the projected d^2 sits on its clip
        target = epsilon_steady(PLANAR, np.linspace(1.9, 2.35, 120))
        start = dataclasses.replace(PLANAR, number_density=1e-20)
        with pytest.raises(FitDiverged, match=r"needs a dipole above 1e\+06 D"):
            fit_material(target, start)


    @given(
        st.floats(0.5, 5.0), st.floats(0.0, 1e14), st.floats(1e-3, 1.0),
        st.floats(1e20, 1e27), st.floats(1.0, 20.0), st.floats(1.0, 300.0),
    )
    def test_response_scales_as_dipole_squared(
        self, transition, decay, dephasing, density, background, dipole
    ):
        # the fit's premise: eps - eps_b is d^2 times the response of a 1 D
        # dipole, to rounding, so a local-field term would fail here
        energies = transition + np.linspace(-0.3, 0.3, 61)

        def response(d):
            two_level = TwoLevelParams(transition, decay, dephasing, d)
            return epsilon_steady(MaterialParams(density, background, two_level), energies).epsilon

        excess, unit = response(dipole) - background, response(1.0) - background
        rounding = background + np.abs(excess) + dipole**2 * (background + np.abs(unit))
        assert np.all(np.abs(excess - dipole**2 * unit) <= 4 * np.finfo(float).eps * rounding)

    @settings(deadline=None)
    @given(st.floats(1.0, 300.0), st.floats(1e-3, 1.0))
    def test_recovers_exact_targets_from_cli_defaults(self, dipole, dephasing):
        fixed = cli._material(cli.load_config("fit-permittivity", None, "."))
        energies = read_spectrum_csv(cli._packaged("epsilon_extracted.csv")).energies
        truth = dataclasses.replace(fixed, two_level=dataclasses.replace(
            fixed.two_level, dipole=dipole, pure_dephasing=dephasing))
        report = fit_material(epsilon_steady(truth, energies), fixed)
        assert report.params.two_level.dipole == pytest.approx(dipole, rel=1e-9, abs=0.0)
        assert abs(report.params.two_level.pure_dephasing - dephasing) <= 1e-10
        assert not report.degenerate


class TestCsv:
    def test_round_trip_plain(self, tmp_path):
        spec = epsilon_steady(BULK, np.linspace(1.9, 2.3, 17))
        path = tmp_path / "eps.csv"
        write_spectrum_csv(path, spec)
        back = read_spectrum_csv(path)
        np.testing.assert_array_equal(back.energies, spec.energies)
        np.testing.assert_array_equal(back.epsilon, spec.epsilon)
        assert back.time is None

    def test_round_trip_with_time(self, tmp_path):
        times = np.linspace(1e-15, 100e-15, 9)
        spec = epsilon_transient(BULK, DriveField(462.0, 2.20), times)
        path = tmp_path / "eps_t.csv"
        write_spectrum_csv(path, spec)
        back = read_spectrum_csv(path)
        np.testing.assert_array_equal(back.epsilon, spec.epsilon)
        np.testing.assert_allclose(back.time, spec.time, rtol=1e-15)

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_rejects_non_finite_cell_with_file_and_line(self, tmp_path, cell):
        path = tmp_path / "eps.csv"
        path.write_text(f"# note\nenergy_eV,eps_real,eps_imag\n2.0,3.5,0.1\n2.1,{cell},0.1\n")
        with pytest.raises(ValueError, match=f"{path}, line 4: values must be finite"):
            read_spectrum_csv(path)

    def test_rejects_ragged_row_with_file_and_line(self, tmp_path):
        path = tmp_path / "eps.csv"
        path.write_text("energy_eV,eps_real,eps_imag\n2.0,3.5,0.1\n2.1,3.4\n")
        with pytest.raises(ValueError, match=f"{path}, line 3: ragged row"):
            read_spectrum_csv(path)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_spectrum_csv(path)
