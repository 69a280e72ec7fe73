"""Kramers-Kronig transform contracts.

Oracle: the single-oscillator (Lorentz) dielectric, whose n and kappa are
both known analytically, sampled over a finite band around the resonance.
"""

import numpy as np
import pytest

from lsepkit.constants import ev_to_rads
from lsepkit.numerics import GridTooCoarse, kramers_kronig_real


def lorentz_nk(energies_ev, eps_m=2.3104, f0=0.3, e0=2.11, g0=0.0461):
    """Analytic n, kappa of a Lorentz oscillator (energies in eV)."""
    e = np.asarray(energies_ev, dtype=float)
    eps = eps_m + f0 * e0**2 / (e0**2 - e**2 - 1j * e * g0)
    root = np.sqrt(eps)
    root = np.where(root.imag < 0.0, -root, root)
    return root.real, root.imag


def trapezoid_pv(omega, im_part):
    """The quadrature node by node: trapezoid rule on [0, k-1] and
    [k+1, n-1], and the analytic window around the pole (a half window at
    the band edges)."""
    n, h = omega.size, omega[1] - omega[0]
    slope = np.gradient(im_part, h)
    out = np.empty(n)
    for k in range(n):
        kept = np.arange(n) != k
        f = np.zeros(n)
        f[kept] = omega[kept] * im_part[kept] / (omega[kept] ** 2 - omega[k] ** 2)
        window = (2.0 if 0 < k < n - 1 else 1.0) * h
        out[k] = np.trapezoid(f[:k], dx=h) + np.trapezoid(f[k + 1 :], dx=h) + window * (
            0.25 * im_part[k] / omega[k] + 0.5 * slope[k]
        )
    return (2.0 / np.pi) * out


class TestKramersKronig:
    # sizes around the kernel's row blocks and the two one-point segments
    @pytest.mark.parametrize("n", [16, 17, 63, 64, 65, 129, 300])
    def test_node_by_node_trapezoid_rule(self, n):
        omega = np.linspace(1.0, 3.0, n) * 1e15
        im_part = np.exp(-(((omega - 2.1e15) / 0.3e15) ** 2)) + 0.1
        got = kramers_kronig_real(omega, im_part, asymptote=1.5) - 1.5
        expected = trapezoid_pv(omega, im_part)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-13 * np.max(np.abs(expected)))


    def test_zero_imag_gives_asymptote(self):
        omega = np.linspace(1.0, 2.0, 64) * 1e15
        out = kramers_kronig_real(omega, np.zeros(64), asymptote=1.52)
        np.testing.assert_allclose(out, 1.52, atol=1e-14)

    def test_lorentz_band_center_recovery(self):
        energies = np.linspace(1.5, 2.8, 1301)
        n_true, kappa = lorentz_nk(energies)
        n_kk = kramers_kronig_real(ev_to_rads(energies), kappa, asymptote=1.52)
        # within 2% at band center (resonance +/- 0.1 eV)
        center = (energies > 2.01) & (energies < 2.21)
        rel = np.abs(n_kk[center] - n_true[center]) / np.abs(n_true[center])
        assert np.max(rel) < 0.02

    def test_dispersive_sign_structure(self):
        # below an isolated absorption peak the real part rises above the
        # asymptote; far above it dips below
        energies = np.linspace(1.5, 2.8, 801)
        center, width = 2.11, 0.02
        kappa = 0.5 * width**2 / ((energies - center) ** 2 + width**2)
        n_kk = kramers_kronig_real(ev_to_rads(energies), kappa, asymptote=1.0)
        below = energies < center - 5 * width
        above = energies > center + 5 * width
        assert np.all(n_kk[below] > 1.0)
        assert np.all(n_kk[above] < 1.0)

    def test_linearity(self):
        omega = np.linspace(1.0, 3.0, 257) * 1e15
        rng = np.random.default_rng(11)
        im1 = np.exp(-((omega - 1.8e15) ** 2) / (2 * (0.1e15) ** 2))
        im2 = np.exp(-((omega - 2.3e15) ** 2) / (2 * (0.05e15) ** 2))
        a, b = rng.normal(), rng.normal()
        lhs = kramers_kronig_real(omega, a * im1 + b * im2)
        rhs = a * kramers_kronig_real(omega, im1) + b * kramers_kronig_real(omega, im2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    def test_nonuniform_grid_resampled(self):
        energies = np.linspace(1.5, 2.8, 901)
        n_true, kappa = lorentz_nk(energies)
        # distort the grid but keep the same band
        warped = 1.5 + 1.3 * ((energies - 1.5) / 1.3) ** 1.09
        _, kappa_w = lorentz_nk(warped)
        n_kk = kramers_kronig_real(ev_to_rads(warped), kappa_w, asymptote=1.52)
        n_ref, _ = lorentz_nk(warped)
        center = (warped > 2.01) & (warped < 2.21)
        rel = np.abs(n_kk[center] - n_ref[center]) / np.abs(n_ref[center])
        assert np.max(rel) < 0.03

    def test_grid_too_coarse(self):
        with pytest.raises(GridTooCoarse):
            kramers_kronig_real(np.linspace(1e15, 2e15, 8), np.zeros(8))

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            kramers_kronig_real(np.array([2e15, 1e15] * 10), np.zeros(20))
