"""Two-level dynamics contracts.

Material numbers used throughout: a molecular-exciton transition at
2.11 eV with population decay 1.15e12 1/s, 17 meV pure dephasing, and a
32 debye effective dipole (bulk orientational average).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lsepkit import bloch
from lsepkit.bloch import (
    BlochTrajectory,
    DefectiveMatrix,
    DensityMatrix,
    DriveField,
    TwoLevelParams,
    cycle_average,
    detuning_rate,
    eig,
    evolve_lab,
    evolve_rwa,
    liouvillian_rwa,
    rabi_frequency,
    rotating_frame,
)
from lsepkit.constants import EV, EV_TO_RADS, HBAR, power_to_field
from lsepkit.numerics import NotConverged, integrate

PARAMS = TwoLevelParams(transition_energy=2.11, decay_rate=1.15e12,
                        pure_dephasing=0.017, dipole=32.0)
WEAK = DriveField(amplitude=462.0, photon_energy=2.11)


def assert_density_matrices(states, tol):
    """Every state row (rho00, rho01, rho10, rho11) is a density matrix to
    tol: unit trace, Hermitian, no eigenvalue below -tol."""
    trace, hermiticity, smallest = bloch.state_errors(states)
    assert trace.max() <= tol, f"trace error {trace.max():.3e}"
    assert hermiticity.max() <= tol, f"hermiticity error {hermiticity.max():.3e}"
    assert smallest.min() >= -tol, f"negative eigenvalue {smallest.min():.3e}"


def coherence_per_field(params, photon_energy):
    """Weak-field rho01~ / E0 (per V/m) at the given photon energies, from
    the helper that the permittivity takes.  The dephasing rate goes in as
    a numpy scalar, so that the division is numpy's: a zero divisor (exact
    resonance with a rate that rounds to 0) gives inf or nan, as on an
    array, instead of Python's ZeroDivisionError."""
    return bloch._coherence_per_field(params.dipole_si, np.float64(params.total_dephasing_rate),
                                      detuning_rate(params, photon_energy))


class NoUniqueSteadyState(Exception):
    """Without decay the driven system keeps a conserved component and
    the stationary state is not unique; a decay too slow for double
    precision on exact resonance is treated alike."""


def steady_state(params, drive):
    """Unique stationary state of the rotating-wave generator, in closed
    form (Loudon, The Quantum Theory of Light, 3rd ed., OUP 2000, ch. 2):
    the long-time oracle of evolve_rwa.

    With decay rate gamma, dephasing rate Gamma, detuning delta, Rabi
    frequency Omega and R = Omega^2 Gamma / (2 (Gamma^2 + delta^2)), the
    excited population is R / (gamma + 2R), the inversion is w = gamma /
    (gamma + 2R) (1 - 2 rho11 would cancel), and rho01~ = i (Omega/2) w /
    (Gamma + i delta) is coherence_per_field times E0 w.

    Raises NoUniqueSteadyState when the decay rate vanishes (the
    generator then conserves more than the trace), and when gamma + 2R
    is not a finite number: for a decay rate > 0 in the keys' ranges
    only on exact resonance with Gamma below 6e-268 1/s, a decay too
    slow to resolve in double precision.  Every other state is finite
    and passes ``assert_density_matrices``.
    """
    gamma = params.decay_rate
    if gamma <= 0.0:
        raise NoUniqueSteadyState("zero decay rate leaves a conserved population")
    # numpy scalars: a zero or overflowing divisor gives inf or nan, checked below
    with np.errstate(all="ignore"):
        coherence = drive.amplitude * coherence_per_field(params, drive.photon_energy)
        pump = rabi_frequency(params, drive) * coherence.imag
        saturation = gamma + 2.0 * pump
    if not np.isfinite(saturation):
        raise NoUniqueSteadyState(
            f"decay rate {gamma:.3g} 1/s is too slow to resolve the steady state on resonance")
    excited = pump / saturation
    coherence = coherence * (gamma / saturation)
    return DensityMatrix(1.0 - excited, coherence, np.conj(coherence), excited)


class TestParams:
    def test_total_dephasing_energy(self):
        # decay contributes ~0.38 meV on top of the 17 meV pure dephasing
        assert PARAMS.total_dephasing_rate * HBAR / EV * 1e3 == pytest.approx(17.38, abs=0.01)

    def test_detuning_sign(self):
        red = DriveField(amplitude=1.0, photon_energy=2.02)
        blue = DriveField(amplitude=1.0, photon_energy=2.20)
        assert detuning_rate(PARAMS, red.photon_energy) == pytest.approx(0.09 * EV_TO_RADS)
        assert detuning_rate(PARAMS, blue.photon_energy) == pytest.approx(-0.09 * EV_TO_RADS)
        # elementwise on an array of photon energies, each value as alone
        both = detuning_rate(PARAMS, np.array([red.photon_energy, blue.photon_energy]))
        assert both.tolist() == [detuning_rate(PARAMS, 2.02), detuning_rate(PARAMS, 2.20)]

    def test_rabi_frequencies(self):
        drive = DriveField(amplitude=462.0, photon_energy=2.02)
        assert rabi_frequency(PARAMS, drive) == pytest.approx(4.68e8, rel=5e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            TwoLevelParams(-1.0, 1e12, 0.017, 32.0)
        with pytest.raises(ValueError):
            DriveField(amplitude=-1.0, photon_energy=2.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["amplitude", "photon_energy"])
    def test_drive_rejects_non_finite(self, field, bad):
        # NaN used to pass the sign checks and fail later inside a solver
        values = {"amplitude": 462.0, "photon_energy": 2.11}
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


def _rwa_literal(params, drive):
    """The rotating-wave generator written out entry by entry, as
    liouvillian_rwa built it before it shared its generators with the
    lab-frame solver."""
    gamma = params.decay_rate
    gtot = params.total_dephasing_rate
    delta = (params.transition_energy - drive.photon_energy) * EV_TO_RADS
    half = 0.5j * params.dipole_si * drive.amplitude / HBAR
    return np.array(
        [
            [0.0, half, -half, gamma],
            [half, -(1j * delta + gtot), 0.0, -half],
            [-half, 0.0, 1j * delta - gtot, half],
            [0.0, -half, half, -gamma],
        ],
        dtype=complex,
    )


# the ranges the CLI's config keys allow; the smallest dipole and field
# keep the dipole-field product a normal float, so both ways of scaling
# the Rabi frequency by a half round alike
_params = st.builds(
    TwoLevelParams,
    transition_energy=st.floats(1e-6, 100.0),
    decay_rate=st.floats(0.0, 1e16),
    pure_dephasing=st.floats(0.0, 100.0),
    dipole=st.just(0.0) | st.floats(1e-9, 1e4),
)
_drives = st.builds(
    DriveField,
    amplitude=st.just(0.0) | st.floats(1e-150, 1e12),
    photon_energy=st.floats(1e-6, 100.0),
)


class TestLiouvillian:
    @given(_params, _drives)
    def test_equals_written_out_matrix(self, params, drive):
        gen = liouvillian_rwa(params, drive)
        assert np.array_equal(gen, _rwa_literal(params, drive))
        # the trace is conserved exactly
        assert np.array_equal(np.array([1.0, 0.0, 0.0, 1.0]) @ gen, np.zeros(4))

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
        assert_density_matrices(ss.as_vector(), 1e-9)

    def test_weak_field_matches_linear_ratio(self):
        ss = steady_state(PARAMS, WEAK)
        expected = coherence_per_field(PARAMS, 2.11) * WEAK.amplitude
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
        assert_density_matrices(strong.as_vector(), 1e-9)

    def test_no_unique_steady_state(self):
        undamped = TwoLevelParams(2.11, 0.0, 0.017, 32.0)
        with pytest.raises(NoUniqueSteadyState):
            steady_state(undamped, WEAK)


EPS = np.finfo(float).eps
_decaying = _params.filter(lambda p: p.decay_rate > 0.0)


def _pinned_trace_solve(params, drive):
    """The stationary state as steady_state solved it before its closed
    form: L v = 0 with the trace row pinned to one and scaled to the
    generator, by LU.  Returns the pinned matrix's smallest over largest
    singular value and the solution, or None where that ratio is below
    1e-12 and the solve raised SingularMatrix."""
    gen = liouvillian_rwa(params, drive)
    scale = max(np.max(np.abs(gen)), 1.0)
    gen[0, :] = np.array([1.0, 0.0, 0.0, 1.0]) * scale
    svals = np.linalg.svd(gen, compute_uv=False)
    ratio = svals[-1] / svals[0]
    if ratio < 1e-12:
        return None
    return ratio, np.linalg.solve(gen, np.array([scale, 0.0, 0.0, 0.0]))


class TestClosedFormSteadyState:
    @given(_decaying, _drives)
    # the smallest decay rate halves to a dephasing rate of exactly 0
    @example(TwoLevelParams(1.0, 5e-324, 0.0, 0.0), DriveField(amplitude=0.0, photon_energy=1.0))
    def test_stationary_with_exact_trace(self, params, drive):
        # the closed form leaves the float range only on exact resonance
        # with a dephasing rate below 6e-268 1/s; everywhere else it is
        # finite, annihilated by the generator to a few ulps of its
        # largest entry (at most 1.12 over 5,000 draws) and of trace one
        # to 2 ulps
        try:
            v = steady_state(params, drive).as_vector()
        except NoUniqueSteadyState:
            assert detuning_rate(params, drive.photon_energy) == 0.0
            assert params.total_dephasing_rate < 6e-268
            return
        gen = liouvillian_rwa(params, drive)
        assert np.isfinite(v).all()
        assert np.abs(gen @ v).max() <= 4 * EPS * np.abs(gen).max()
        assert abs(v[0] + v[3] - 1.0) <= 2 * EPS

    @given(_decaying, _drives)
    def test_matches_the_pinned_trace_solve(self, params, drive):
        # Oracle: the LU solve of the pinned system, wherever its
        # singular-value ratio is at least 1e-12.  Tolerance: 1e-11
        # absolute plus the solve's own forward error, 4 eps / ratio.  The
        # gap reached 0.7 eps / ratio over 5,000 draws; on the two worst,
        # 60-digit solves put the closed form within 1.2e-16 and the LU
        # solve up to 2.6e-8 off
        pinned = _pinned_trace_solve(params, drive)
        if pinned is None:
            return
        ratio, want = pinned
        got = steady_state(params, drive).as_vector()
        assert np.abs(got - want).max() <= 1e-11 + 4 * EPS / ratio


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
        assert_density_matrices(traj.states, 1e-9)

    def test_detuned_envelope_oscillation_period(self):
        # switch-on transient spirals around the stationary point at the
        # detuning frequency, so |rho01(t)| beats with period 2 pi / delta
        drive = DriveField(amplitude=462.0, photon_energy=2.20)
        delta = abs(detuning_rate(PARAMS, drive.photon_energy))
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

    def test_trace_hermiticity_positivity_along_path(self):
        drive = DriveField(amplitude=5e7, photon_energy=2.05)
        times = np.linspace(1e-15, 500e-15, 101)
        traj = evolve_rwa(PARAMS, drive, DensityMatrix.ground(), times)
        assert_density_matrices(traj.states, 1e-9)

    def test_rotating_frame_keeps_a_rotating_trajectory(self):
        # its coherences are envelopes already: demodulating again would
        # shift their phase by w t
        traj = evolve_rwa(PARAMS, WEAK, DensityMatrix.ground(), np.linspace(0.0, 50e-15, 6))
        assert rotating_frame(traj) is traj


@st.composite
def _off_grid_records(draw):
    """A drive of 1e5 to 1e7 V/m near resonance, and strictly increasing
    sample times anywhere in a record of 0.05 to 5 drive periods, some of
    them exactly on period boundaries."""
    drive = DriveField(amplitude=10.0 ** draw(st.floats(5.0, 7.0)),
                       photon_energy=draw(st.floats(1.9, 2.3)))
    period = 2.0 * np.pi / drive.angular_frequency
    span = period * draw(st.floats(0.05, 5.0))
    fractions = draw(arrays(float, draw(st.integers(1, 40)), elements=st.floats(0.0, 1.0)))
    boundaries = period * np.array(draw(st.lists(st.integers(0, 5), max_size=3)), dtype=float)
    times = np.unique(np.concatenate([span * fractions, boundaries[boundaries <= span]]))
    return drive, times


class TestEig:
    def test_diagonal(self):
        a = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        values, vectors = eig(a)
        np.testing.assert_allclose(sorted(values.real), [1, 2, 3, 4], atol=1e-12)
        np.testing.assert_allclose(np.abs(values.imag), 0.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(vectors, axis=0), 1.0, atol=1e-12)

    def test_two_level_coupling_pair(self):
        # symmetric off-diagonal coupling splits into +/- J
        j = 0.37
        a = np.array([[0.0, j], [j, 0.0]], dtype=complex)
        values, _ = eig(a)
        np.testing.assert_allclose(sorted(values.real), [-j, j], atol=1e-12)

    def test_zero_drive_relaxation_generator(self):
        # 4x4 generator of undriven two-level relaxation: populations
        # couple through the decay rate, coherences rotate at the detuning
        # and damp at the total dephasing rate.  Spectrum is known in
        # closed form: {0, -gamma, -dephasing +/- i*detuning}.
        gamma = 1.15e12
        dephasing = 2.64e13
        detuning = 1.37e14
        gen = np.zeros((4, 4), dtype=complex)
        gen[0, 3] = gamma
        gen[3, 3] = -gamma
        gen[1, 1] = -(dephasing + 1j * detuning)
        gen[2, 2] = -(dephasing - 1j * detuning)
        values, _ = eig(gen)
        expected = np.array(
            [0.0, -gamma, -(dephasing + 1j * detuning), -(dephasing - 1j * detuning)]
        )
        got = values[np.argsort(values.real + 1e-3 * values.imag)]
        want = expected[np.argsort(expected.real + 1e-3 * expected.imag)]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1.0)

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            values, vectors = eig(a)
            residual = np.linalg.norm(a @ vectors - vectors * values)
            assert residual <= 1e-8 * np.linalg.norm(a)

    def test_defective_raises(self):
        # Jordan block: eigenvalue 0 twice, single eigenvector
        a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises((DefectiveMatrix, NotConverged)):
            eig(a)


class TestEvolveLab:
    def test_zero_field_is_free_decay(self):
        p = PARAMS
        drive = DriveField(amplitude=0.0, photon_energy=2.11)
        excited = DensityMatrix(0.0j, 0.0j, 0.0j, 1.0 + 0.0j)
        times = np.linspace(0.0, 2e-12, 9)
        traj = evolve_lab(p, drive, excited, times)
        np.testing.assert_allclose(
            traj.states[:, 3].real, np.exp(-p.decay_rate * times), rtol=1e-6
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
        pop = traj.states[:, 3].real
        ss = steady_state(PARAMS, drive).rho11.real
        # transient overshoot above the saturated value, then return:
        # the signature of damped Rabi cycling
        assert pop.max() > 1.1 * ss
        imax = int(np.argmax(pop))
        assert pop[imax:].min() < 0.95 * pop.max()
        assert_density_matrices(traj.states, 1e-6)

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

    def test_full_wave_grid_step_stats(self, monkeypatch):
        # at the default tolerances the criterion-8 record (256 drive
        # periods) is accepted on the sixth grid, 768 steps per period,
        # after the five coarser grids of 24 to 384 steps
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
        assert stats == [(768, 5)]

    @pytest.mark.parametrize("amplitude", [1e8, 1e9])
    def test_strong_field_matches_tight_dop853(self, amplitude):
        # Oracle: scipy's DOP853 (a test-only dependency) at rtol 1e-13 on
        # the written-out lab-frame equations.  Tolerance: every entry
        # within 1e-10, the default rtol on the order-one populations.
        from scipy.integrate import solve_ivp

        drive = DriveField(amplitude=amplitude, photon_energy=2.11)
        w = drive.angular_frequency
        rabi = rabi_frequency(PARAMS, drive)
        gamma, w1 = PARAMS.decay_rate, PARAMS.transition_rate
        gtot = PARAMS.total_dephasing_rate

        def rhs(t, r):
            drive_term = 1j * rabi * np.cos(w * t)
            exchange, inversion = r[1] - r[2], r[0] - r[3]
            return np.array([
                gamma * r[3] + drive_term * exchange,
                -(1j * w1 + gtot) * r[1] + drive_term * inversion,
                (1j * w1 - gtot) * r[2] - drive_term * inversion,
                -gamma * r[3] - drive_term * exchange,
            ])

        times = np.arange(0.0, 50e-15, 2.0 * np.pi / w / 24.0)
        ref = solve_ivp(rhs, (0.0, times[-1]), DensityMatrix.ground().as_vector(),
                        method="DOP853", t_eval=times, rtol=1e-13, atol=1e-15)
        assert ref.success
        got = evolve_lab(PARAMS, drive, DensityMatrix.ground(), times)
        assert np.abs(got.states - ref.y.T).max() <= 1e-10

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
        trace, hermiticity, smallest = bloch.state_errors(traj.states)
        assert trace.shape == hermiticity.shape == smallest.shape == times.shape
        assert np.all(trace <= 1e-9)
        assert np.all(hermiticity <= 1e-9)
        assert np.all(smallest >= -1e-9)

    def test_real_valued_initial_state_keeps_imaginary_parts(self):
        drive = DriveField(amplitude=1e5, photon_energy=2.11)
        times = np.linspace(0.0, 10e-15, 6)
        real = DensityMatrix(1.0, 0.0, 0.0, 0.0)
        got = evolve_lab(PARAMS, drive, real, times).states
        want = evolve_lab(PARAMS, drive, DensityMatrix.ground(), times).states
        assert np.abs(want[1:, 1].imag).min() > 0.0
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "times",
        [[], [0.0, 2e-15, 2e-15], [0.0, 3e-15, 1e-15], [-1e-15, 1e-15],
         [0.0, float("nan")], [0.0, float("inf")], [[0.0, 1e-15]]],
        ids=["empty", "repeated", "decreasing", "negative", "nan", "inf", "2-d"],
    )
    def test_rejects_bad_sample_times(self, times):
        # both solvers take their samples through one check
        drive = DriveField(amplitude=1e5, photon_energy=2.11)
        for evolve in (evolve_lab, evolve_rwa):
            with pytest.raises(ValueError, match="sample_times"):
                evolve(PARAMS, drive, DensityMatrix.ground(), times)

    def test_failed_integration_raises_instead_of_partial_result(self):
        # tolerances finer than rounding: the grids never agree
        drive = DriveField(amplitude=1e5, photon_energy=2.11)
        times = np.linspace(0.0, 10e-15, 5)
        with pytest.raises(NotConverged):
            evolve_lab(PARAMS, drive, DensityMatrix.ground(), times,
                       rtol=1e-20, atol=1e-30)

    @pytest.mark.parametrize("tolerances", [
        dict(rtol=0.0), dict(rtol=-1e-10), dict(rtol=float("nan")),
        dict(atol=0.0), dict(atol=-1e-12), dict(atol=float("nan")),
    ], ids=["rtol-zero", "rtol-negative", "rtol-nan", "atol-zero", "atol-negative", "atol-nan"])
    def test_rejects_bad_tolerances(self, tolerances):
        drive = DriveField(amplitude=1e5, photon_energy=2.11)
        with pytest.raises(ValueError):
            evolve_lab(PARAMS, drive, DensityMatrix.ground(), [0.0, 1e-15], **tolerances)

    # a lone sample in the first steps of the record, which both grids
    # reach with one step of the same length: only the period end tells
    # their error
    @example((DriveField(amplitude=1e5, photon_energy=2.0), np.array([3.93776954e-17])))
    @example((DriveField(amplitude=1e5, photon_energy=2.0), np.array([4.24067488e-17])))
    @settings(deadline=None)
    @given(_off_grid_records())
    def test_off_grid_samples_match_tighter_tolerances(self, record):
        # The step control makes two grids agree within atol + rtol |v|;
        # the returned finer grid is about 16 times closer to the exact
        # state.  Tolerance: every real component of the default run
        # within the default atol + rtol |v| of a run at 100x tighter
        # tolerances, and the trace within 1e-12.
        drive, times = record
        got = evolve_lab(PARAMS, drive, DensityMatrix.ground(), times).states
        tight = evolve_lab(PARAMS, drive, DensityMatrix.ground(), times,
                           rtol=1e-12, atol=1e-14).states
        dev = np.abs((got - tight).view(float))
        assert np.all(dev <= 1e-12 + 1e-10 * np.abs(tight.view(float)))
        assert bloch.state_errors(got)[0].max() <= 1e-12


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
    # subnormal samples: a relative bound alone underflows to 0, while
    # subnormal rounding is absolute (up to 7 units of the smallest
    # subnormal over 3,000 random subnormal signals)
    @example((np.array([0.0, 0.390625]), np.array([2.2e-313, 3.1e-313]) * (1 + 1j), 1.0))
    @given(_sampled_signals())
    def test_matches_per_window_trapezoid(self, signal):
        times, values, period = signal
        got = cycle_average(times, values, period)
        want = _windowed_trapezoid(times, values, period)
        floor = 16 * np.finfo(float).smallest_subnormal
        assert np.abs(got - want).max() <= 1e-12 * np.abs(values).max() + floor

    @pytest.mark.parametrize(
        "times, values, match",
        [([0.0, 2.0, 1.0], [1.0, 2.0, 3.0], "sample_times"),
         ([-1.0, 0.0, 1.0], [1.0, 2.0, 3.0], "sample_times"),
         ([0.0, 1.0, 2.0], np.ones((3, 2)), "values"),
         ([0.0, 1.0, 2.0], [1.0, 2.0, 3.0, 4.0], "values")],
        ids=["decreasing", "negative", "2-d values", "longer values"],
    )
    def test_rejects_a_bad_axis(self, times, values, match):
        # the time axis takes the propagators' one sample-time check; a
        # decreasing axis used to give [1, 2.5, 3]
        with pytest.raises(ValueError, match=match):
            cycle_average(np.asarray(times), np.asarray(values), 1.0)

    def test_integer_samples_average_to_floats(self):
        assert cycle_average(np.arange(3.0), np.array([0, 1, 3]), 2.0).tolist() == [0.5, 1.25, 2.0]


class TestLinearity:
    def test_weak_field_coherence_linear_in_amplitude(self):
        r1 = steady_state(PARAMS, DriveField(amplitude=10.0, photon_energy=2.11))
        r2 = steady_state(PARAMS, DriveField(amplitude=100.0, photon_energy=2.11))
        ratio = r2.rho01 / r1.rho01
        assert ratio == pytest.approx(10.0, rel=1e-6)
