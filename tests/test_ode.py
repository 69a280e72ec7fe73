"""Contracts of the DOP853 integrator of linear systems
dy/dt = (G0 + c(t) G1) y.

The workhorse oracle is the undamped resonant two-level system, whose
excited population is sin^2(Omega t / 2) in closed form.
"""

import numpy as np
import pytest

from lsepkit.numerics import MaxStepsExceeded, StepUnderflow, integrate, ode

OMEGA = 2.0 * np.pi

# Resonant undamped two-level system in the rotating frame, state
# (rho00, rho01~, rho10~, rho11).
RABI = 0.5j * OMEGA * np.array(
    [[0.0, 1.0, -1.0, 0.0], [1.0, 0.0, 0.0, -1.0], [-1.0, 0.0, 0.0, 1.0], [0.0, -1.0, 1.0, 0.0]]
)


def constant(g):
    """Arguments of a time-independent generator: G0 = g, no coupling."""
    return g, np.zeros_like(g), np.zeros_like


def rabi_population(t):
    return np.sin(0.5 * OMEGA * t) ** 2


GROUND = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)


TOL = dict(rtol=1e-10, atol=1e-12)


class TestBasics:
    def test_zero_rhs_constant(self):
        traj = integrate(*constant(np.zeros((3, 3))), np.array([1.0, 2.0, 3.0]),
                         0.0, [1.0], **TOL)
        np.testing.assert_allclose(traj.states[-1], [1.0, 2.0, 3.0], atol=1e-14)

    def test_exponential_decay(self):
        traj = integrate(*constant(np.array([[-1.0]])), np.array([1.0]), 0.0, [1.0],
                         rtol=1e-10, atol=1e-14)
        assert abs(traj.states[-1, 0] - np.exp(-1.0)) < 1e-8

    def test_complex_rotation(self):
        w = 3.0
        traj = integrate(*constant(np.array([[1j * w]])), np.array([1.0 + 0.0j]),
                         0.0, [2.0], rtol=1e-12, atol=1e-14)
        assert abs(traj.states[-1, 0] - np.exp(2j * w)) < 1e-10

    def test_time_dependent_coupling(self):
        # y' = cos(t) y has y = exp(sin t); the coupling enters at the
        # stage times, so a wrong node would show here
        times = np.linspace(0.0, 6.0, 13)
        traj = integrate(np.zeros((1, 1)), np.ones((1, 1)), np.cos, np.array([1.0]),
                         0.0, times, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(traj.states[:, 0], np.exp(np.sin(times)), rtol=1e-10)

    def test_rabi_oracle(self):
        times = np.linspace(0.0, 3.0, 31)
        traj = integrate(*constant(RABI), GROUND, 0.0, times, **TOL)
        np.testing.assert_allclose(
            traj.states[:, 3].real, rabi_population(times), atol=1e-6
        )

    def test_sample_times_exact(self):
        times = np.array([0.0, 0.1234567, 0.5, 0.9999, 1.7])
        traj = integrate(*constant(RABI), GROUND, 0.0, times, **TOL)
        np.testing.assert_array_equal(traj.times, times)
        np.testing.assert_allclose(
            traj.states[:, 3].real, rabi_population(times), atol=1e-6
        )


class TestAccuracyScaling:
    def test_tolerance_halving_monotone(self):
        errors = []
        for rtol in (1e-4, 1e-6, 1e-8):
            traj = integrate(*constant(RABI), GROUND, 0.0, [5.0],
                             rtol=rtol, atol=rtol * 1e-3)
            errors.append(abs(traj.states[-1, 3].real - rabi_population(5.0)))
        assert errors[1] < errors[0] and errors[2] < errors[1]


class TestFailureModes:
    def test_step_underflow_at_singularity(self):
        # y' = y / (0.5 - t)^2 has y = exp(1 / (0.5 - t) - 2), which
        # blows up at t = 0.5
        with pytest.raises(StepUnderflow):
            integrate(np.zeros((1, 1)), np.ones((1, 1)), lambda t: (0.5 - t) ** -2.0,
                      np.array([1.0]), 0.0, [1.0], **TOL)

    def test_nan_derivative_underflows_instead_of_hanging(self):
        # a NaN generator makes every error norm NaN, which fails the
        # test and shrinks the step to the floor instead of looping
        with pytest.raises(StepUnderflow):
            integrate(*constant(np.array([[np.nan]])), np.array([1.0]), 0.0, [1.0], **TOL)

    def test_tolerance_finer_than_rounding_underflows(self):
        # the rounding of each step's result fails a 1e-20 tolerance, even
        # where the embedded estimate falls below it
        with pytest.raises(StepUnderflow):
            integrate(*constant(RABI), GROUND, 0.0, [1.0], rtol=1e-20, atol=1e-30)

    def test_max_steps_exceeded(self, monkeypatch):
        monkeypatch.setattr(ode, "MAX_STEPS", 5)
        with pytest.raises(MaxStepsExceeded):
            integrate(*constant(RABI), GROUND, 0.0, [1000.0], **TOL)

    def test_bad_sample_times(self):
        with pytest.raises(ValueError):
            integrate(*constant(RABI), GROUND, 0.0, [0.5, 0.4], **TOL)
        with pytest.raises(ValueError):
            integrate(*constant(RABI), GROUND, 1.0, [0.5, 1.5], **TOL)

    @pytest.mark.parametrize("rtol, atol", [(0.0, 1e-12), (1e-10, -1.0)])
    def test_tolerances_must_be_positive(self, rtol, atol):
        with pytest.raises(ValueError):
            integrate(*constant(RABI), GROUND, 0.0, [1.0], rtol=rtol, atol=atol)
