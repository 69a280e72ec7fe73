"""Mie response of a homogeneous sphere in a transparent host.

Conventions, fixed once for the whole package: time dependence e^{-iwt},
outgoing radial functions h_n = j_n + i y_n, absorbing media carry
Im(eps) >= 0.  Size parameter x = 2 pi sqrt(eps_host) r / lambda.

Internal-argument Riccati-Bessel functions are evaluated with the
downward logarithmic-derivative recurrence seeded by a continued
fraction; the external (real-argument) functions go upward.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ..constants import ev_to_vacuum_wavelength_m
from ..medium import PermittivitySpectrum


class SizeParameterOutOfRange(ValueError):
    """Size parameter outside the supported (0, 100] window: an input error."""


class RecurrenceUnstable(Exception):
    """Bessel recurrences produced non-finite or degenerate values."""


MAX_SIZE_PARAMETER = 100.0


@dataclass(frozen=True)
class SphereScene:
    """Sphere of complex permittivity embedded in a lossless host."""

    radius: float
    sphere_epsilon: complex
    host_epsilon: float
    wavelength_vacuum: float

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"radius must be finite and > 0, got {self.radius}")
        if not 0.0 < self.wavelength_vacuum < math.inf:
            raise ValueError(f"wavelength must be finite and > 0, got {self.wavelength_vacuum}")
        if not 1.0 <= self.host_epsilon < math.inf:
            raise ValueError(f"host_epsilon must be finite and >= 1, got {self.host_epsilon}")
        if not cmath.isfinite(complex(self.sphere_epsilon)):
            raise ValueError(f"sphere_epsilon must be finite, got {self.sphere_epsilon}")
        if complex(self.sphere_epsilon).imag < 0.0:
            raise ValueError("sphere_epsilon must have Im >= 0 (absorbing convention)")

    @property
    def size_parameter(self) -> float:
        return 2.0 * np.pi * np.sqrt(self.host_epsilon) * self.radius / self.wavelength_vacuum

    @property
    def relative_index(self) -> complex:
        root = np.sqrt(complex(self.sphere_epsilon))
        if root.imag < 0.0:
            root = -root
        return root / np.sqrt(self.host_epsilon)

    @property
    def host_wavenumber(self) -> float:
        """k in the host medium, 1/m."""
        return 2.0 * np.pi * np.sqrt(self.host_epsilon) / self.wavelength_vacuum


@dataclass(frozen=True)
class MieCoefficients:
    """Partial-wave amplitudes: a, b scattered; c, d internal; 1-indexed order."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    n_max: int


@dataclass(frozen=True)
class EfficiencySet:
    q_ext: float
    q_sca: float
    q_abs: float


@dataclass(frozen=True)
class QuasistaticResponse:
    """Dipole polarizability volume and the Clausius-Mossotti diagnostics.

    polarizability is 4 pi r^3 (es - eh)/(es + 2 eh), in m^3; the induced
    dipole is p = eps0 eps_host * polarizability * E.  resonance_distance
    is |es + 2 eh|, the gap to the quasi-static divergence.
    """

    polarizability: complex
    resonance_distance: float
    resonant: bool


def multipole_cutoff(x: float) -> int:
    """Standard truncation order for a converged Mie series."""
    return int(np.ceil(x + 4.0 * x ** (1.0 / 3.0) + 2.0))


def _log_derivative_seed(z: complex, n: int, max_terms: int = 10000) -> complex:
    """D_n(z) = psi_n'(z)/psi_n(z) by a modified-Lentz continued fraction.

    From the three-term recurrence, D_n = (n+1)/z - 1/((2n+3)/z - 1/(...))
    with partial denominators (2(n+k)+1)/z and numerators -1.
    """
    tiny = 1e-50
    f = (n + 1) / z
    if f == 0.0:
        f = tiny
    c = f
    d = 0.0 + 0.0j
    for k in range(1, max_terms + 1):
        b_k = (2.0 * (n + k) + 1.0) / z
        d = b_k - d
        if d == 0.0:
            d = tiny
        c = b_k - 1.0 / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-15:
            return f
    raise RecurrenceUnstable(f"continued fraction stalled at order {n}, z={z}")


def _log_derivatives(z: complex, n_max: int) -> np.ndarray:
    """D_1..D_n_max(z) by downward recurrence from a continued-fraction seed."""
    d = np.empty(n_max + 1, dtype=complex)
    d[n_max] = _log_derivative_seed(z, n_max)
    for n in range(n_max, 0, -1):
        d[n - 1] = n / z - 1.0 / (d[n] + n / z)
    return d


def _riccati_psi_chi(x: float, n_max: int):
    """Real-argument psi_n = x j_n and chi_n = -x y_n, orders 0..n_max.

    chi grows with order, so plain upward recurrence is stable; psi
    decays past n ~ x and is rebuilt from its downward logarithmic
    derivatives to keep every order accurate in a relative sense.
    """
    chi = np.empty(n_max + 1)
    chi_m1 = -np.sin(x)  # order -1 value
    chi[0] = np.cos(x)
    for n in range(1, n_max + 1):
        chi[n] = (2.0 * n - 1.0) / x * chi[n - 1] - chi_m1
        chi_m1 = chi[n - 1]
    dlog = _log_derivatives(x + 0.0j, n_max).real
    psi = np.empty(n_max + 1)
    psi[0] = np.sin(x)
    for n in range(1, n_max + 1):
        psi[n] = psi[n - 1] / (dlog[n] + n / x)
    return psi, chi


def mie_coefficients(scene: SphereScene, n_extra: int = 0) -> MieCoefficients:
    """Partial-wave coefficients for plane-wave incidence.

    n_extra raises the multipole cutoff beyond the standard rule, for
    convergence studies.  Raises SizeParameterOutOfRange outside (0, 100]
    and RecurrenceUnstable if the Bessel chains degenerate.
    """
    x = scene.size_parameter
    if not 0.0 < x <= MAX_SIZE_PARAMETER:
        raise SizeParameterOutOfRange(f"size parameter {x:.4g} outside (0, {MAX_SIZE_PARAMETER}]")
    m = scene.relative_index
    n_max = multipole_cutoff(x) + int(n_extra)
    mx = m * x

    dlog = _log_derivatives(mx, n_max)
    psi, chi = _riccati_psi_chi(x, n_max)
    xi = psi - 1j * chi

    ns = np.arange(1, n_max + 1)
    dn = dlog[1:]
    ta = dn / m + ns / x
    tb = dn * m + ns / x
    a = (ta * psi[1:] - psi[:-1]) / (ta * xi[1:] - xi[:-1])
    b = (tb * psi[1:] - psi[:-1]) / (tb * xi[1:] - xi[:-1])

    # psi_n(mx) rebuilt from the logarithmic derivatives:
    # psi_{n-1} = psi_n (D_n + n/z), so divide down from psi_0 = sin(mx)
    psi_mx = np.empty(n_max + 1, dtype=complex)
    psi_mx[0] = np.sin(mx)
    for n in range(1, n_max + 1):
        ratio = dlog[n] + n / mx
        if ratio == 0.0:
            raise RecurrenceUnstable(f"vanishing psi ratio at order {n}")
        psi_mx[n] = psi_mx[n - 1] / ratio
    dpsi_mx = psi_mx[1:] * dlog[1:]
    dpsi_x = psi[:-1] - ns / x * psi[1:]
    dxi_x = xi[:-1] - ns / x * xi[1:]

    # numerators are m * (psi xi' - xi psi') = i m by the Wronskian
    c = 1j * m / (psi_mx[1:] * dxi_x - m * xi[1:] * dpsi_mx)
    d = 1j * m / (m * psi_mx[1:] * dxi_x - xi[1:] * dpsi_mx)

    for arr in (a, b, c, d):
        if not np.all(np.isfinite(arr)):
            raise RecurrenceUnstable("non-finite Mie coefficient")
    return MieCoefficients(a=a, b=b, c=c, d=d, n_max=n_max)


def efficiencies(scene: SphereScene, coeffs: MieCoefficients | None = None) -> EfficiencySet:
    """Extinction, scattering, and absorption efficiencies."""
    if coeffs is None:
        coeffs = mie_coefficients(scene)
    x = scene.size_parameter
    weights = 2.0 * np.arange(1, coeffs.n_max + 1) + 1.0
    q_ext = (2.0 / x**2) * np.sum(weights * (coeffs.a + coeffs.b).real)
    q_sca = (2.0 / x**2) * np.sum(
        weights * (np.abs(coeffs.a) ** 2 + np.abs(coeffs.b) ** 2)
    )
    return EfficiencySet(q_ext=float(q_ext), q_sca=float(q_sca), q_abs=float(q_ext - q_sca))


@dataclass(frozen=True)
class EfficiencySpectrum:
    """Per-energy efficiencies plus the material extinction overlay.

    kappa_normalized is Im(sqrt(eps)) scaled to unit peak, the standard
    comparison curve for absorption spectra.
    """

    energies: np.ndarray
    q_ext: np.ndarray
    q_sca: np.ndarray
    q_abs: np.ndarray
    kappa_normalized: np.ndarray
    time: np.ndarray | None = None


def _efficiency_rows(spectrum: PermittivitySpectrum, radius: float, host_epsilon: float):
    rows = np.empty((spectrum.energies.size, 3))
    for i, (energy, eps) in enumerate(zip(spectrum.energies, spectrum.epsilon)):
        scene = SphereScene(
            radius=radius,
            sphere_epsilon=complex(eps.real, max(eps.imag, 0.0)),
            host_epsilon=host_epsilon,
            wavelength_vacuum=ev_to_vacuum_wavelength_m(energy),
        )
        e = efficiencies(scene)
        rows[i] = (e.q_ext, e.q_sca, e.q_abs)
    return rows


def _normalized_kappa(spectrum: PermittivitySpectrum) -> np.ndarray:
    root = np.sqrt(spectrum.epsilon.astype(complex))
    kappa = np.abs(np.where(root.imag < 0.0, -root, root).imag)
    peak = kappa.max()
    return kappa / peak if peak > 0.0 else kappa


def qabs_spectrum(
    spectrum: PermittivitySpectrum, radius: float, host_epsilon: float = 1.0
) -> EfficiencySpectrum:
    """Sphere efficiencies across a permittivity spectrum.

    Tiny negative Im(eps) from roundoff is clipped to zero; genuinely
    active media are rejected by the scene invariant.
    """
    if np.any(spectrum.epsilon.imag < -1e-9):
        raise ValueError("spectrum has negative Im(eps) beyond roundoff")
    rows = _efficiency_rows(spectrum, radius, host_epsilon)
    return EfficiencySpectrum(
        energies=spectrum.energies.copy(),
        q_ext=rows[:, 0],
        q_sca=rows[:, 1],
        q_abs=rows[:, 2],
        kappa_normalized=_normalized_kappa(spectrum),
        time=None,
    )


def qabs_transient(
    eps_t: PermittivitySpectrum, radius: float, host_epsilon: float = 1.0
) -> EfficiencySpectrum:
    """Quasi-instantaneous efficiencies along a transient permittivity.

    Each time slice is fed to the steady sphere solver independently; the
    transient coherence can swing Im(eps) slightly negative, which the
    quasi-static reading treats as a momentary gain and the scene clip
    guards at zero.
    """
    if eps_t.time is None:
        raise ValueError("transient spectrum must carry a time axis")
    rows = _efficiency_rows(eps_t, radius, host_epsilon)
    return EfficiencySpectrum(
        energies=eps_t.energies.copy(),
        q_ext=rows[:, 0],
        q_sca=rows[:, 1],
        q_abs=rows[:, 2],
        kappa_normalized=_normalized_kappa(eps_t),
        time=eps_t.time.copy(),
    )


def quasistatic_polarizability(
    sphere_epsilon: complex, host_epsilon: float, radius: float
) -> QuasistaticResponse:
    """Clausius-Mossotti dipole response of a small sphere."""
    if radius <= 0.0:
        raise ValueError(f"radius must be > 0, got {radius}")
    es = complex(sphere_epsilon)
    denominator = es + 2.0 * host_epsilon
    distance = abs(denominator)
    resonant = distance < 1e-9 * max(abs(es), host_epsilon)
    if resonant:
        alpha = complex(np.inf, 0.0)
    else:
        alpha = 4.0 * np.pi * radius**3 * (es - host_epsilon) / denominator
    return QuasistaticResponse(
        polarizability=alpha, resonance_distance=distance, resonant=resonant
    )
