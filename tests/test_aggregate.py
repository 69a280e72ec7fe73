"""Aggregate-chain contracts, checked against dense diagonalization of the
explicit tridiagonal single-exciton Hamiltonian."""

import numpy as np
import pytest

from lsepkit.aggregate import (
    AggregateChain,
    ModeOutOfRange,
    eigenstate,
    eigenvalues,
    mode_dipole,
)


def dense_hamiltonian(chain):
    """Tridiagonal single-exciton Hamiltonian: monomer energy on the
    diagonal, -J on the first off-diagonals."""
    n = chain.n_molecules
    h = np.diag(np.full(n, chain.monomer_energy))
    off = np.full(n - 1, -chain.coupling)
    h += np.diag(off, 1) + np.diag(off, -1)
    return h


CHAIN15 = AggregateChain(n_molecules=15, monomer_energy=2.21,
                         coupling=0.05, monomer_dipole=9.7)


class TestSpectrum:
    def test_single_molecule(self):
        chain = AggregateChain(1, 2.21, 0.05, 9.7)
        np.testing.assert_allclose(eigenvalues(chain), [2.21], atol=1e-15)
        assert mode_dipole(chain, 1) == pytest.approx(9.7, rel=1e-12)

    def test_dimer_splitting(self):
        chain = AggregateChain(2, 2.21, 0.05, 9.7)
        np.testing.assert_allclose(eigenvalues(chain), [2.16, 2.26], atol=1e-12)

    def test_bright_state_example(self):
        # the bright m = 1 mode sits at the red band edge
        energy = eigenvalues(CHAIN15)[0]
        assert energy == pytest.approx(2.21 - 0.1 * np.cos(np.pi / 16.0), abs=1e-12)
        assert energy == pytest.approx(2.1119, abs=5e-4)

    def test_against_dense_diagonalization(self):
        for n in (2, 5, 15, 40):
            chain = AggregateChain(n, 2.21, 0.05, 9.7)
            analytic = np.sort(eigenvalues(chain))
            dense = np.linalg.eigvalsh(dense_hamiltonian(chain))
            np.testing.assert_allclose(analytic, np.sort(dense), atol=1e-12)

    def test_eigenstates_against_dense(self):
        chain = CHAIN15
        vals, vecs = np.linalg.eigh(dense_hamiltonian(chain))
        order = np.argsort(vals)
        analytic_vals = eigenvalues(chain)
        for m in range(1, chain.n_molecules + 1):
            state = eigenstate(chain, m)
            col = np.argmin(np.abs(vals[order] - analytic_vals[m - 1]))
            dense_state = vecs[:, order[col]]
            if np.dot(dense_state, state) < 0.0:
                dense_state = -dense_state
            np.testing.assert_allclose(state, dense_state, atol=1e-10)
            assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


class TestDipoles:
    def test_even_modes_dark(self):
        for m in (2, 4, 6, 14):
            assert mode_dipole(CHAIN15, m) == 0.0

    def test_mode_ratio_15(self):
        ratio = mode_dipole(CHAIN15, 1) / mode_dipole(CHAIN15, 3)
        assert ratio == pytest.approx(3.08, abs=0.01)

    def test_cot_formula_equals_sine_sum(self):
        # closed form vs the direct coefficient sum
        for n in range(1, 65):
            chain = AggregateChain(n, 2.0, 0.03, 1.0)
            for m in range(1, n + 1):
                direct = abs(chain.monomer_dipole * np.sum(eigenstate(chain, m)))
                assert mode_dipole(chain, m) == pytest.approx(direct, abs=1e-12)

    def test_oscillator_strength_sum_rule(self):
        # total dipole-squared over all modes equals n mu^2
        for n in (1, 2, 7, 15, 33):
            chain = AggregateChain(n, 2.0, 0.03, 2.5)
            total = sum(mode_dipole(chain, m) ** 2 for m in range(1, n + 1))
            assert total == pytest.approx(n * chain.monomer_dipole**2, rel=1e-12)

    def test_bright_dipole_grows_with_n(self):
        dips = [mode_dipole(AggregateChain(n, 2.0, 0.03, 1.0), 1)
                for n in (1, 3, 7, 15, 31)]
        assert np.all(np.diff(dips) > 0.0)


class TestValidation:
    def test_mode_out_of_range(self):
        with pytest.raises(ModeOutOfRange):
            eigenstate(CHAIN15, 0)
        with pytest.raises(ModeOutOfRange):
            eigenstate(CHAIN15, 16)
        with pytest.raises(ModeOutOfRange):
            mode_dipole(CHAIN15, -1)

    def test_chain_validation(self):
        with pytest.raises(ValueError):
            AggregateChain(0, 2.0, 0.05, 1.0)
        with pytest.raises(ValueError):
            AggregateChain(5, 2.0, 0.05, -1.0)

    def test_counts_are_whole_numbers(self):
        with pytest.raises(ValueError, match="n_molecules must be an integer"):
            AggregateChain(2.5, 2.3, 0.1, 10.0)
        chain = AggregateChain(7, 2.3, 0.1, 10.0)
        with pytest.raises(ModeOutOfRange, match="got 1.5"):
            mode_dipole(chain, 1.5)
        with pytest.raises(ModeOutOfRange, match="got 1.5"):
            eigenstate(chain, 1.5)
        # an integral float counts, as it does for poynting_streamlines' max_steps
        whole = AggregateChain(3.0, 2.3, 0.1, 10.0)
        np.testing.assert_array_equal(eigenvalues(whole),
                                      eigenvalues(AggregateChain(3, 2.3, 0.1, 10.0)))
        assert mode_dipole(chain, 3.0) == mode_dipole(chain, 3)
