"""Adaptive Dormand-Prince integrator contracts.

The workhorse oracle is the undamped resonant two-level system, whose
excited population is sin^2(Omega t / 2) in closed form.
"""

import numpy as np
import pytest

from lsepkit.numerics import MaxStepsExceeded, StepUnderflow, integrate, ode

OMEGA = 2.0 * np.pi


def rabi_rhs(t, y):
    """Resonant undamped two-level system in the rotating frame,
    state (rho00, rho01~, rho10~, rho11)."""
    half = 0.5j * OMEGA
    return np.array(
        [
            half * (y[1] - y[2]),
            half * (y[0] - y[3]),
            -half * (y[0] - y[3]),
            -half * (y[1] - y[2]),
        ]
    )


def rabi_population(t):
    return np.sin(0.5 * OMEGA * t) ** 2


GROUND = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)


TOL = dict(rtol=1e-10, atol=1e-12)


class TestBasics:
    def test_zero_rhs_constant(self):
        traj = integrate(lambda t, y: np.zeros(3), np.array([1.0, 2.0, 3.0]),
                         0.0, 1.0, [1.0], **TOL)
        np.testing.assert_allclose(traj.states[-1], [1.0, 2.0, 3.0], atol=1e-14)

    def test_exponential_decay(self):
        traj = integrate(lambda t, y: -y, np.array([1.0]), 0.0, 1.0, [1.0],
                         rtol=1e-10, atol=1e-14)
        assert abs(traj.states[-1, 0] - np.exp(-1.0)) < 1e-8

    def test_complex_rotation(self):
        w = 3.0
        traj = integrate(lambda t, y: 1j * w * y, np.array([1.0 + 0.0j]),
                         0.0, 2.0, [2.0], rtol=1e-12, atol=1e-14)
        assert abs(traj.states[-1, 0] - np.exp(2j * w)) < 1e-10

    def test_rabi_oracle(self):
        times = np.linspace(0.0, 3.0, 31)
        traj = integrate(rabi_rhs, GROUND, 0.0, 3.0, times, **TOL)
        np.testing.assert_allclose(
            traj.states[:, 3].real, rabi_population(times), atol=1e-6
        )

    def test_sample_times_exact(self):
        times = np.array([0.0, 0.1234567, 0.5, 0.9999, 1.7])
        traj = integrate(rabi_rhs, GROUND, 0.0, 1.7, times, **TOL)
        np.testing.assert_array_equal(traj.times, times)
        np.testing.assert_allclose(
            traj.states[:, 3].real, rabi_population(times), atol=1e-6
        )


class TestAccuracyScaling:
    def test_tolerance_halving_monotone(self):
        errors = []
        for rtol in (1e-4, 1e-6, 1e-8):
            traj = integrate(rabi_rhs, GROUND, 0.0, 5.0, [5.0],
                             rtol=rtol, atol=rtol * 1e-3)
            errors.append(abs(traj.states[-1, 3].real - rabi_population(5.0)))
        assert errors[1] < errors[0] and errors[2] < errors[1]


class TestFailureModes:
    def test_step_underflow_at_singularity(self):
        # y = 2 / (1 - 2t) blows up at t = 0.5
        with pytest.raises(StepUnderflow):
            integrate(lambda t, y: y**2, np.array([2.0]), 0.0, 1.0, [1.0], **TOL)

    def test_nan_derivative_underflows_instead_of_hanging(self):
        # a NaN derivative makes a NaN initial step, which no step-size
        # comparison rejects
        with pytest.raises(StepUnderflow):
            integrate(lambda t, y: np.array([np.nan]), np.array([1.0]),
                      0.0, 1.0, [1.0], **TOL)

    def test_max_steps_exceeded(self, monkeypatch):
        monkeypatch.setattr(ode, "MAX_STEPS", 5)
        with pytest.raises(MaxStepsExceeded):
            integrate(rabi_rhs, GROUND, 0.0, 1000.0, [1000.0], **TOL)

    def test_bad_sample_times(self):
        with pytest.raises(ValueError):
            integrate(rabi_rhs, GROUND, 0.0, 1.0, [0.5, 0.4], **TOL)
        with pytest.raises(ValueError):
            integrate(rabi_rhs, GROUND, 0.0, 1.0, [0.5, 1.5], **TOL)

    @pytest.mark.parametrize("rtol, atol", [(0.0, 1e-12), (1e-10, -1.0)])
    def test_tolerances_must_be_positive(self, rtol, atol):
        with pytest.raises(ValueError):
            integrate(rabi_rhs, GROUND, 0.0, 1.0, [1.0], rtol=rtol, atol=atol)
