"""Contracts of the periodic propagator of linear systems
dy/dt = (G0 + Omega cos(w t) G1) y.

The workhorse oracle is the undamped resonant two-level system, whose
excited population is sin^2(A / 2) in closed form, A the pulse area
(the integral of the Rabi frequency) up to time t.
"""

import numpy as np
import pytest

from lsepkit.numerics import NotConverged, integrate, periodic

OMEGA = 2.0 * np.pi

# Resonant undamped two-level system in the rotating frame, state
# (rho00, rho01~, rho10~, rho11), per unit Rabi frequency.
RABI_UNIT = 0.5j * np.array(
    [[0.0, 1.0, -1.0, 0.0], [1.0, 0.0, 0.0, -1.0], [-1.0, 0.0, 0.0, 1.0], [0.0, -1.0, 1.0, 0.0]]
)
RABI = OMEGA * RABI_UNIT


def constant(g):
    """Arguments of a time-independent generator: G0 = g, no coupling,
    and a drive frequency of 1 that sets the period of the grid."""
    return g, np.zeros_like(g), 0.0, 1.0


def rabi_population(t):
    return np.sin(0.5 * OMEGA * t) ** 2


GROUND = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)


TOL = dict(rtol=1e-10, atol=1e-12)


class TestBasics:
    def test_zero_rhs_constant(self):
        traj = integrate(*constant(np.zeros((3, 3))), np.array([1.0, 2.0, 3.0]), [1.0], **TOL)
        np.testing.assert_allclose(traj.states[-1], [1.0, 2.0, 3.0], atol=1e-14)

    def test_exponential_decay(self):
        traj = integrate(*constant(np.array([[-1.0]])), np.array([1.0]), [1.0],
                         rtol=1e-10, atol=1e-14)
        assert abs(traj.states[-1, 0] - np.exp(-1.0)) < 1e-8

    def test_complex_rotation(self):
        w = 3.0
        traj = integrate(*constant(np.array([[1j * w]])), np.array([1.0 + 0.0j]),
                         [2.0], rtol=1e-12, atol=1e-14)
        assert abs(traj.states[-1, 0] - np.exp(2j * w)) < 1e-10

    def test_time_dependent_coupling(self):
        # y' = cos(t) y has y = exp(sin t); the coupling enters at the
        # Gauss-Legendre nodes, so a wrong node would show here
        times = np.linspace(0.0, 6.0, 13)
        traj = integrate(np.zeros((1, 1)), np.ones((1, 1)), 1.0, 1.0, np.array([1.0]),
                         times, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(traj.states[:, 0], np.exp(np.sin(times)), rtol=1e-10)

    def test_rabi_oracle(self):
        times = np.linspace(0.0, 3.0, 31)
        traj = integrate(*constant(RABI), GROUND, times, **TOL)
        np.testing.assert_allclose(
            traj.states[:, 3].real, rabi_population(times), atol=1e-6
        )

    def test_sample_times_exact(self):
        times = np.array([0.0, 0.1234567, 0.5, 0.9999, 1.7])
        traj = integrate(*constant(RABI), GROUND, times, **TOL)
        np.testing.assert_array_equal(traj.times, times)
        np.testing.assert_allclose(
            traj.states[:, 3].real, rabi_population(times), atol=1e-6
        )


class TestAccuracyScaling:
    def test_tolerance_halving_monotone(self):
        # a Rabi frequency 5 OMEGA cos(t) has the pulse area
        # 5 OMEGA sin(t); the generators commute, so the only error is the
        # Gauss-Legendre quadrature of the area, which falls with the step
        rabi = 5.0 * OMEGA
        exact = np.sin(0.5 * rabi * np.sin(5.0)) ** 2
        errors = []
        for rtol in (1e-4, 1e-6, 1e-8):
            traj = integrate(np.zeros((4, 4)), RABI_UNIT, rabi, 1.0, GROUND, [5.0],
                             rtol=rtol, atol=rtol * 1e-3)
            errors.append(abs(traj.states[-1, 3].real - exact))
        assert errors[1] < errors[0] and errors[2] < errors[1]


class TestFailureModes:
    def test_nan_generator_raises_instead_of_hanging(self):
        # a NaN generator makes every disagreement NaN, which never
        # falls
        with pytest.raises(NotConverged):
            integrate(*constant(np.array([[np.nan]])), np.array([1.0]), [1.0], **TOL)

    def test_tolerance_finer_than_rounding_raises(self):
        # the grids differ by rounding, which doublings do not shrink
        with pytest.raises(NotConverged):
            integrate(*constant(RABI), GROUND, [1.0], rtol=1e-20, atol=1e-30)

    def test_max_steps_exceeded(self, monkeypatch):
        monkeypatch.setattr(periodic, "MAX_STEPS", 5)
        with pytest.raises(NotConverged):
            integrate(*constant(RABI), GROUND, [1000.0], **TOL)

    def test_bad_sample_times(self):
        with pytest.raises(ValueError):
            integrate(*constant(RABI), GROUND, [0.5, 0.4], **TOL)
        with pytest.raises(ValueError):
            integrate(*constant(RABI), GROUND, [-0.5, 1.5], **TOL)

    @pytest.mark.parametrize(
        "rtol, atol", [(0.0, 1e-12), (1e-10, -1.0), (np.nan, 1e-12), (1e-10, np.nan)]
    )
    def test_tolerances_must_be_positive(self, rtol, atol):
        with pytest.raises(ValueError):
            integrate(*constant(RABI), GROUND, [1.0], rtol=rtol, atol=atol)

    @pytest.mark.parametrize("omega", [0.0, -1.0, np.inf, np.nan])
    def test_drive_frequency_must_be_positive(self, omega):
        with pytest.raises(ValueError):
            integrate(RABI, RABI_UNIT, 1.0, omega, GROUND, [1.0], **TOL)
