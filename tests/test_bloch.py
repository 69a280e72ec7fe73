"""Two-level dynamics contracts.

Material numbers used throughout: a molecular-exciton transition at
2.11 eV with population decay 1.15e12 1/s, 17 meV pure dephasing, and a
32 debye effective dipole (bulk orientational average).
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lsepkit import bloch
from lsepkit.bloch import (
    BlochTrajectory,
    DensityMatrix,
    DriveField,
    NoUniqueSteadyState,
    TwoLevelParams,
    cycle_average,
    detuning_energy,
    evolve_lab,
    evolve_rwa,
    linear_coherence_per_field,
    liouvillian_rwa,
    rabi_frequencies,
    rotating_frame,
    steady_state,
)
from lsepkit.constants import EV_TO_RADS, HBAR, power_to_field
from lsepkit.numerics import StepUnderflow, integrate

PARAMS = TwoLevelParams(transition_energy=2.11, decay_rate=1.15e12,
                        pure_dephasing=0.017, dipole=32.0)
WEAK = DriveField(amplitude=462.0, photon_energy=2.11)


class TestParams:
    def test_total_dephasing_energy(self):
        # decay contributes ~0.38 meV on top of the 17 meV pure dephasing
        assert PARAMS.total_dephasing_energy * 1e3 == pytest.approx(17.38, abs=0.01)

    def test_detuning_sign(self):
        red = DriveField(amplitude=1.0, photon_energy=2.02)
        blue = DriveField(amplitude=1.0, photon_energy=2.20)
        assert detuning_energy(PARAMS, red) == pytest.approx(0.09)
        assert detuning_energy(PARAMS, blue) == pytest.approx(-0.09)

    def test_rabi_frequencies(self):
        drive = DriveField(amplitude=462.0, photon_energy=2.02)
        rabi, generalized = rabi_frequencies(PARAMS, drive)
        assert rabi == pytest.approx(4.68e8, rel=5e-3)
        assert generalized == pytest.approx(0.09 * EV_TO_RADS, rel=1e-4)
        # generalized >= plain Rabi always
        assert generalized >= rabi

    def test_validation(self):
        with pytest.raises(ValueError):
            TwoLevelParams(-1.0, 1e12, 0.017, 32.0)
        with pytest.raises(ValueError):
            DriveField(amplitude=-1.0, photon_energy=2.0)
        with pytest.raises(ValueError):
            DriveField(amplitude=1.0, photon_energy=2.0, envelope="ramp")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["amplitude", "photon_energy", "turn_on"])
    def test_drive_rejects_non_finite(self, field, bad):
        # NaN used to pass the sign checks and fail later inside a solver
        values = {"amplitude": 462.0, "photon_energy": 2.11, "envelope": "step", "turn_on": 0.0}
        with pytest.raises(ValueError, match=field):
            DriveField(**{**values, field: bad})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field", ["transition_energy", "decay_rate", "pure_dephasing", "dipole"]
    )
    def test_params_reject_non_finite(self, field, bad):
        values = {"transition_energy": 2.11, "decay_rate": 1.15e12,
                  "pure_dephasing": 0.017, "dipole": 32.0}
        with pytest.raises(ValueError):
            TwoLevelParams(**{**values, field: bad})


class TestLiouvillian:
    def test_trace_conservation_left_null_vector(self):
        gen = liouvillian_rwa(PARAMS, WEAK)
        left = np.array([1.0, 0.0, 0.0, 1.0])
        np.testing.assert_allclose(left @ gen, 0.0, atol=1e-20)

    def test_zero_drive_eigenvalues(self):
        drive = DriveField(amplitude=0.0, photon_energy=2.02)
        gen = liouvillian_rwa(PARAMS, drive)
        values = np.linalg.eigvals(gen)
        gamma = PARAMS.decay_rate
        gtot = PARAMS.total_dephasing_rate
        delta = 0.09 * EV_TO_RADS
        expected = np.array([0.0, -gamma, -gtot - 1j * delta, -gtot + 1j * delta])
        got = sorted(values, key=lambda z: (round(z.real, 3), z.imag))
        want = sorted(expected, key=lambda z: (round(z.real, 3), z.imag))
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-3)

    def test_hermiticity_structure(self):
        # generator maps conjugate-symmetric states to conjugate-symmetric
        # derivatives: the rho10 row equals the conjugate of the rho01 row
        # with the two coherence columns swapped
        gen = liouvillian_rwa(PARAMS, WEAK)
        swap = [0, 2, 1, 3]
        np.testing.assert_allclose(gen[2], np.conj(gen[1][swap]), atol=1e-25)


class TestSteadyState:
    def test_zero_field_ground(self):
        ss = steady_state(PARAMS, DriveField(amplitude=0.0, photon_energy=2.11))
        np.testing.assert_allclose(ss.as_vector(), [1, 0, 0, 0], atol=1e-15)

    def test_weak_field_population_bound(self):
        ss = steady_state(PARAMS, WEAK)
        assert abs(ss.rho11) <= 1e-7
        ss.validate(1e-9)

    def test_weak_field_matches_linear_ratio(self):
        ss = steady_state(PARAMS, WEAK)
        expected = linear_coherence_per_field(PARAMS, 2.11) * WEAK.amplitude
        assert abs(ss.rho01 - expected) <= 1e-6 * abs(expected)

    def test_far_detuned_small_response(self):
        near = steady_state(PARAMS, WEAK)
        far = steady_state(PARAMS, DriveField(amplitude=462.0, photon_energy=1.0))
        # coherence falls off like dephasing/detuning, here about 1.6e-2
        assert abs(far.rho01) < 2e-2 * abs(near.rho01)
        assert abs(far.rho11) < abs(near.rho11)

    def test_saturation_at_strong_field(self):
        strong = steady_state(PARAMS, DriveField(amplitude=5e7, photon_energy=2.11))
        assert 0.3 < strong.rho11.real < 0.5
        strong.validate(1e-9)

    def test_no_unique_steady_state(self):
        undamped = TwoLevelParams(2.11, 0.0, 0.017, 32.0)
        with pytest.raises(NoUniqueSteadyState):
            steady_state(undamped, WEAK)


class TestEvolveRwa:
    def test_steady_state_is_fixed_point(self):
        ss = steady_state(PARAMS, WEAK)
        times = np.linspace(1e-15, 300e-15, 7)
        traj = evolve_rwa(PARAMS, WEAK, ss, times)
        np.testing.assert_allclose(
            traj.states, np.tile(ss.as_vector(), (7, 1)), atol=1e-12
        )

    def test_relaxation_to_steady_state(self):
        times = np.array([50e-15, 200e-15, 400e-15, 1000e-15])
        traj = evolve_rwa(PARAMS, WEAK, DensityMatrix.ground(), times)
        ss = steady_state(PARAMS, WEAK).as_vector()
        gap_early = np.abs(traj.states[0] - ss).max()
        gap_late = np.abs(traj.states[-1] - ss).max()
        assert gap_late < 1e-3 * max(gap_early, 1e-30)
        traj.validate(1e-9)

    def test_detuned_envelope_oscillation_period(self):
        # switch-on transient spirals around the stationary point at the
        # detuning frequency, so |rho01(t)| beats with period 2 pi / delta
        drive = DriveField(amplitude=462.0, photon_energy=2.20)
        delta = abs(detuning_energy(PARAMS, drive)) * EV_TO_RADS
        period = 2.0 * np.pi / delta
        times = np.linspace(0.5e-15, 4.0 * period, 2000)
        traj = evolve_rwa(PARAMS, drive, DensityMatrix.ground(), times)
        mag = np.abs(traj.rho01)
        peaks = [i for i in range(1, len(times) - 1)
                 if mag[i] > mag[i - 1] and mag[i] > mag[i + 1]]
        assert len(peaks) >= 2
        spacing = np.diff(times[peaks[:3]])
        np.testing.assert_allclose(spacing, period, rtol=0.05)
        # gap to the stationary point decays like exp(-dephasing * t)
        ss = steady_state(PARAMS, drive)
        gap = np.abs(traj.rho01 - ss.rho01)
        ratio = gap[1000] / gap[100]
        expected = np.exp(-PARAMS.total_dephasing_rate * (times[1000] - times[100]))
        assert ratio == pytest.approx(expected, rel=1e-3)

    def test_step_turn_on_holds_ground_before(self):
        drive = DriveField(amplitude=462.0, photon_energy=2.11,
                           envelope="step", turn_on=50e-15)
        times = np.array([50e-15, 100e-15, 300e-15])
        traj = evolve_rwa(PARAMS, drive, DensityMatrix.ground(), times)
        np.testing.assert_allclose(traj.states[0], [1, 0, 0, 0], atol=1e-15)
        assert abs(traj.rho01[1]) > 0.0

    def test_trace_hermiticity_positivity_along_path(self):
        drive = DriveField(amplitude=5e7, photon_energy=2.05)
        times = np.linspace(1e-15, 500e-15, 101)
        traj = evolve_rwa(PARAMS, drive, DensityMatrix.ground(), times)
        traj.validate(1e-9)


class TestEvolveLab:
    def test_zero_field_is_free_decay(self):
        p = PARAMS
        drive = DriveField(amplitude=0.0, photon_energy=2.11)
        excited = DensityMatrix(0.0j, 0.0j, 0.0j, 1.0 + 0.0j)
        times = np.linspace(0.0, 2e-12, 9)
        traj = evolve_lab(p, drive, excited, times)
        np.testing.assert_allclose(
            traj.rho11.real, np.exp(-p.decay_rate * times), rtol=1e-6
        )
        np.testing.assert_allclose(traj.rho01, 0.0, atol=1e-12)

    def test_zero_field_matches_eigen_propagation(self):
        # undriven, the lab-frame generator is constant; its eigenvectors
        # propagate every component exactly
        p = PARAMS
        w1, gtot = p.transition_rate, p.total_dephasing_rate
        gen = np.array([
            [0.0, 0.0, 0.0, p.decay_rate],
            [0.0, -(1j * w1 + gtot), 0.0, 0.0],
            [0.0, 0.0, 1j * w1 - gtot, 0.0],
            [0.0, 0.0, 0.0, -p.decay_rate],
        ])
        start = DensityMatrix(0.3 + 0.0j, 0.0j, 0.0j, 0.7 + 0.0j)
        times = np.linspace(0.0, 2e-12, 9)
        values, vectors = np.linalg.eig(gen)
        coeffs = np.linalg.solve(vectors, start.as_vector())
        want = (vectors @ (np.exp(np.outer(values, times)) * coeffs[:, None])).T
        got = evolve_lab(p, DriveField(amplitude=0.0, photon_energy=2.11), start, times)
        np.testing.assert_allclose(got.states, want, rtol=1e-10, atol=0.0)

    def test_strong_field_rabi_oscillation(self):
        # 10 MW over a 1.5 mm spot: drive fast enough to beat dephasing
        e0 = power_to_field(10e6, 1.5e-3)
        assert e0 == pytest.approx(4.62e7, rel=1e-2)
        drive = DriveField(amplitude=e0, photon_energy=2.11)
        times = np.linspace(0.0, 500e-15, 251)
        traj = evolve_lab(PARAMS, drive, DensityMatrix.ground(), times,
                          rtol=1e-8, atol=1e-10)
        pop = traj.rho11.real
        ss = steady_state(PARAMS, drive).rho11.real
        # transient overshoot above the saturated value, then return:
        # the signature of damped Rabi cycling
        assert pop.max() > 1.1 * ss
        imax = int(np.argmax(pop))
        assert pop[imax:].min() < 0.95 * pop.max()
        traj.validate(1e-6)

    def test_matches_rwa_envelope_at_moderate_field(self):
        # on resonance the counter-rotating residue sits in quadrature to
        # the coherence, so the envelope magnitudes agree to 1e-3 even
        # through the switch-on; windows clipped at either end of the
        # record are excluded (no full ripple period to average there)
        drive = DriveField(amplitude=1e5, photon_energy=2.11)
        w = drive.angular_frequency
        cycle = 2.0 * np.pi / w
        times = np.arange(0.0, 500e-15, cycle / 24.0)
        lab = evolve_lab(PARAMS, drive, DensityMatrix.ground(), times,
                         rtol=1e-11, atol=1e-13)
        demod = rotating_frame(lab)
        smooth = cycle_average(times, demod.rho01, np.pi / w)
        rwa = evolve_rwa(PARAMS, drive, DensityMatrix.ground(), times)
        scale = np.abs(rwa.rho01).max()
        interior = (times >= 0.5 * cycle) & (times <= times[-1] - 0.5 * cycle)
        env_err = np.abs(np.abs(smooth) - np.abs(rwa.rho01))[interior] / scale
        assert env_err.max() < 1e-3
        # once the switch-on transient has decayed the complex envelopes
        # themselves agree, pinning the frame and detuning conventions
        late = (times > 200e-15) & (times <= times[-1] - 0.5 * cycle)
        cplx_err = np.abs(smooth - rwa.rho01)[late] / scale
        assert cplx_err.max() < 1e-3

    def test_full_wave_grid_takes_one_step_per_sample_interval(self, monkeypatch):
        # at the default tolerances every interval of the criterion-8
        # grid (1/24 of an optical cycle) passes the error test whole
        stats = []

        def spy(*args, **kwargs):
            traj = integrate(*args, **kwargs)
            stats.append((traj.step_stats.accepted, traj.step_stats.rejected))
            return traj

        monkeypatch.setattr(bloch, "integrate", spy)
        drive = DriveField(amplitude=1e5, photon_energy=2.11)
        times = np.arange(0.0, 500e-15, 2.0 * np.pi / drive.angular_frequency / 24.0)
        evolve_lab(PARAMS, drive, DensityMatrix.ground(), times)
        assert times.size == 6123
        assert stats == [(6122, 0)]

    def test_detuned_complex_envelope_after_transient(self):
        # off resonance the demodulated coherence rotates at the detuning
        # frequency; matching it in the complex plane at late times would
        # catch any sign error in the demodulation or the detuning
        drive = DriveField(amplitude=1e5, photon_energy=2.02)
        w = drive.angular_frequency
        cycle = 2.0 * np.pi / w
        times = np.arange(0.0, 500e-15, cycle / 24.0)
        lab = evolve_lab(PARAMS, drive, DensityMatrix.ground(), times,
                         rtol=1e-11, atol=1e-13)
        smooth = cycle_average(times, rotating_frame(lab).rho01, np.pi / w)
        rwa = evolve_rwa(PARAMS, drive, DensityMatrix.ground(), times)
        scale = np.abs(rwa.rho01).max()
        late = (times > 250e-15) & (times <= times[-1] - 0.5 * cycle)
        err = np.abs(smooth - rwa.rho01)[late] / scale
        assert err.max() < 1e-3

    def test_invariants_every_sample(self):
        drive = DriveField(amplitude=1e5, photon_energy=2.11)
        times = np.linspace(0.0, 100e-15, 26)
        traj = evolve_lab(PARAMS, drive, DensityMatrix.ground(), times,
                          rtol=1e-11, atol=1e-13)
        for i in range(len(times)):
            dm = traj.density_matrix(i)
            assert dm.trace_error <= 1e-9
            assert dm.hermiticity_error <= 1e-9
            assert dm.positivity_margin >= -1e-9

    def test_real_valued_initial_state_keeps_imaginary_parts(self):
        drive = DriveField(amplitude=1e5, photon_energy=2.11)
        times = np.linspace(0.0, 10e-15, 6)
        real = DensityMatrix(1.0, 0.0, 0.0, 0.0)
        got = evolve_lab(PARAMS, drive, real, times).states
        want = evolve_lab(PARAMS, drive, DensityMatrix.ground(), times).states
        assert np.abs(want[1:, 1].imag).min() > 0.0
        np.testing.assert_array_equal(got, want)

    def test_step_turn_on_holds_ground_then_follows_rwa(self):
        # the right-hand side jumps at the turn-on: before it the solver
        # must keep the undriven ground state exactly, after it the
        # envelope must follow the rotating-frame solution; windows that
        # touch either end of the record or the turn-on are excluded
        drive = DriveField(amplitude=1e5, photon_energy=2.11,
                           envelope="step", turn_on=50e-15)
        w = drive.angular_frequency
        cycle = 2.0 * np.pi / w
        times = np.arange(0.0, 300e-15, cycle / 24.0)
        lab = evolve_lab(PARAMS, drive, DensityMatrix.ground(), times,
                         rtol=1e-11, atol=1e-13)
        assert np.all(lab.rho01[times < drive.turn_on] == 0.0)
        smooth = cycle_average(times, rotating_frame(lab).rho01, np.pi / w)
        rwa = evolve_rwa(PARAMS, drive, DensityMatrix.ground(), times)
        scale = np.abs(rwa.rho01).max()
        clear = ((times >= 0.5 * cycle) & (times <= times[-1] - 0.5 * cycle)
                 & (np.abs(times - drive.turn_on) > 0.5 * cycle))
        env_err = np.abs(np.abs(smooth) - np.abs(rwa.rho01))[clear] / scale
        assert env_err.max() < 1e-3

    @pytest.mark.parametrize(
        "times",
        [[], [0.0, 2e-15, 2e-15], [0.0, 3e-15, 1e-15], [-1e-15, 1e-15],
         [0.0, float("nan")], [0.0, float("inf")]],
        ids=["empty", "repeated", "decreasing", "negative", "nan", "inf"],
    )
    def test_rejects_bad_sample_times(self, times):
        drive = DriveField(amplitude=1e5, photon_energy=2.11)
        with pytest.raises(ValueError):
            evolve_lab(PARAMS, drive, DensityMatrix.ground(), times)

    def test_failed_integration_raises_instead_of_partial_result(self):
        # tolerances no step can meet drive the step below the floor
        drive = DriveField(amplitude=1e5, photon_energy=2.11)
        times = np.linspace(0.0, 10e-15, 5)
        with pytest.raises(StepUnderflow):
            evolve_lab(PARAMS, drive, DensityMatrix.ground(), times,
                       rtol=1e-20, atol=1e-30)


def _windowed_trapezoid(times, values, period):
    """Reference for cycle_average: one trapezoid per window, the direct
    way (same padded, inclusive window edges)."""
    half = 0.5 * period
    diffs = np.diff(times)
    pad = 0.25 * diffs.min() if diffs.size else 0.0
    out = np.empty_like(values)
    for i, t in enumerate(times):
        inside = (times >= t - half - pad) & (times <= t + half + pad)
        tw = times[inside]
        out[i] = np.trapezoid(values[inside], tw) / (tw[-1] - tw[0]) if tw.size > 1 else values[i]
    return out


@st.composite
def _sampled_signals(draw):
    n = draw(st.integers(1, 120))
    steps = draw(arrays(float, n - 1, elements=st.floats(0.2, 2.0)))
    times = draw(st.floats(0.0, 10.0)) + np.concatenate([[0.0], np.cumsum(steps)])
    re, im = draw(arrays(float, (2, n), elements=st.floats(-1e3, 1e3)))
    # log-uniform from a twentieth of the smallest spacing to twice the
    # longest possible span
    period = 10.0 ** draw(st.floats(-2.0, 2.7))
    return times, re + 1j * im, period


class TestCycleAverage:
    # integer times with half + pad = 1: both window edges land exactly
    # on the neighbouring samples, which must be kept
    @example((np.arange(11.0), np.arange(11.0) ** 2 + 0j, 1.5))
    @given(_sampled_signals())
    def test_matches_per_window_trapezoid(self, signal):
        times, values, period = signal
        got = cycle_average(times, values, period)
        want = _windowed_trapezoid(times, values, period)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(values).max()


class TestLinearity:
    def test_weak_field_coherence_linear_in_amplitude(self):
        r1 = steady_state(PARAMS, DriveField(amplitude=10.0, photon_energy=2.11))
        r2 = steady_state(PARAMS, DriveField(amplitude=100.0, photon_energy=2.11))
        ratio = r2.rho01 / r1.rho01
        assert ratio == pytest.approx(10.0, rel=1e-6)
