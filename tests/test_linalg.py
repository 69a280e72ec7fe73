"""Linear-solver and eigen-decomposition contracts."""

import numpy as np
import pytest

from lsepkit.numerics import (
    DefectiveMatrix,
    NotConverged,
    SingularMatrix,
    eig,
    solve_linear,
)


def random_well_conditioned(rng, n=4, cond=10.0):
    """Random complex matrix with singular values spanning `cond`."""
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    svals = np.logspace(0.0, np.log10(cond), n)
    return q1 @ np.diag(svals) @ q2


class TestSolveLinear:
    def test_identity(self):
        b = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
        x = solve_linear(np.eye(4), b)
        np.testing.assert_allclose(x, b, rtol=0, atol=1e-15)

    def test_diagonal(self):
        a = np.diag([2.0, 4.0, 8.0, 16.0]).astype(complex)
        b = np.ones(4, dtype=complex)
        x = solve_linear(a, b)
        np.testing.assert_allclose(x, [0.5, 0.25, 0.125, 0.0625], atol=1e-15)

    def test_known_solution_recovery(self):
        rng = np.random.default_rng(7161)
        for _ in range(50):
            a = random_well_conditioned(rng)
            x_true = rng.normal(size=4) + 1j * rng.normal(size=4)
            x = solve_linear(a, a @ x_true)
            assert np.linalg.norm(x - x_true) <= 1e-10 * np.linalg.norm(x_true)

    def test_singular_raises(self):
        a = np.zeros((4, 4), dtype=complex)
        a[0, 0] = 1.0
        with pytest.raises(SingularMatrix):
            solve_linear(a, np.ones(4, dtype=complex))

    def test_rank_deficient_raises(self):
        a = np.ones((4, 4), dtype=complex)
        with pytest.raises(SingularMatrix):
            solve_linear(a, np.ones(4, dtype=complex))

    def test_residual_property_many_trials(self):
        # multiply-back residual stays at working precision over 1000
        # random well-conditioned systems
        rng = np.random.default_rng(20_08_22)
        worst = 0.0
        for _ in range(1000):
            a = random_well_conditioned(rng, cond=50.0)
            b = rng.normal(size=4) + 1j * rng.normal(size=4)
            x = solve_linear(a, b)
            worst = max(worst, np.linalg.norm(a @ x - b) / np.linalg.norm(b))
        assert worst <= 1e-10

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            solve_linear(np.ones((3, 4)), np.ones(3))


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
