"""Mie response of a homogeneous sphere in a transparent host.

Conventions, fixed once for the whole package: time dependence e^{-iwt},
outgoing radial functions h_n = j_n + i y_n, absorbing media carry
Im(eps) >= 0.  Size parameter x = 2 pi sqrt(eps_host) r / lambda.

One array kernel (Wiscombe, Appl. Opt. 19, 1505 (1980)) serves every
caller, with orders as rows and samples as columns.  The logarithmic
derivatives D_n = psi_n'/psi_n go downward from D = 0, started far
above the cutoff at an order set by each sample's own argument.  psi_n
divides up from psi_0 = sin z, or from psi_1 = sin z / z - cos z near a
nonzero multiple of pi (|sin z| < 0.1 and |z| > 1), where D_1 + 1/z is
mostly roundoff.  chi_n = -x y_n goes upward.  The near fields reuse
both recurrences.  Spectra are solved in groups that share a multipole
cutoff, so each sample keeps the cutoff and the starting order of a
one-sample solve, and so its bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import NumericalFailure, at_least_one, check, positive
from ..constants import ev_to_vacuum_wavelength_m
from ..medium import PermittivitySpectrum, refractive_index


class SizeParameterOutOfRange(ValueError):
    """Size parameter outside the supported (0, 100] window: an input error."""


class RecurrenceUnstable(NumericalFailure):
    """Bessel recurrences produced non-finite or degenerate values."""


MAX_SIZE_PARAMETER = 100.0
# Largest |z| the log-derivative recurrence takes: a size parameter of
# 100 in a medium of index 100.  It starts about |z| orders up, so this
# also bounds its steps.
MAX_RECURRENCE_ARGUMENT = 1e4


@dataclass(frozen=True)
class SphereScene:
    """Sphere of complex permittivity embedded in a lossless host."""

    radius: float
    sphere_epsilon: complex
    host_epsilon: float
    wavelength_vacuum: float

    def __post_init__(self):
        _check_geometry(self.radius, self.host_epsilon, self.wavelength_vacuum)
        check(self.sphere_epsilon, lambda e: np.isfinite(e) & (e.imag >= 0.0),
              "sphere_epsilon must be finite with Im >= 0 (absorbing convention)")

    @property
    def size_parameter(self) -> float:
        return _size_parameter(self.radius, self.host_epsilon, self.wavelength_vacuum)

    @property
    def relative_index(self) -> complex:
        return _relative_index(complex(self.sphere_epsilon), self.host_epsilon)

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


def _check_geometry(radius, host_epsilon, wavelength) -> None:
    """Scene invariants on scalars or per-sample arrays; names the first bad value."""
    check(radius, positive, "radius must be finite and > 0")
    check(wavelength, positive, "wavelength must be finite and > 0")
    check(host_epsilon, at_least_one, "host_epsilon must be finite and >= 1")


def _size_parameter(radius, host_epsilon, wavelength):
    return 2.0 * np.pi * np.sqrt(host_epsilon) * radius / wavelength


def _relative_index(sphere_epsilon, host_epsilon):
    """sqrt(eps_sphere) / sqrt(eps_host), on the branch with Im >= 0."""
    root = np.sqrt(sphere_epsilon)
    return np.where(root.imag < 0.0, -root, root) / np.sqrt(host_epsilon)


def _check_size_parameter(x: np.ndarray) -> None:
    bad = x[~((x > 0.0) & (x <= MAX_SIZE_PARAMETER))]
    if bad.size:
        raise SizeParameterOutOfRange(
            f"size parameter {bad[0]:.4g} outside (0, {MAX_SIZE_PARAMETER}]"
        )


def multipole_cutoff(x):
    """Standard truncation order: an int for a float x, an int array for an array."""
    n = np.ceil(x + 4.0 * x ** (1.0 / 3.0) + 2.0)
    return n.astype(int) if isinstance(n, np.ndarray) else int(n)


def _log_derivatives(z: np.ndarray, n_max: int) -> np.ndarray:
    """D_0..D_n_max(z) by downward recurrence, in real arithmetic for real z.

    Each element starts from D = 0 at its own order, the cutoff of
    max(n_max, |z|) plus |z|**(2/3) orders, far enough above n_max that
    the start's error has decayed below roundoff there.
    """
    size = np.abs(z)
    if not np.all(size <= MAX_RECURRENCE_ARGUMENT):
        raise RecurrenceUnstable(f"|z| = {size.max()} is not finite or > MAX_RECURRENCE_ARGUMENT")
    start = multipole_cutoff(np.maximum(n_max, size)) + np.ceil(size ** (2.0 / 3.0)).astype(int)
    top = np.zeros(np.shape(z), dtype=np.result_type(z, 1.0))
    for n in range(int(start.max(initial=n_max + 1)), n_max, -1):
        top = np.where(n <= start, n / z - 1.0 / (top + n / z), 0.0)
    d = np.empty((n_max + 1,) + top.shape, dtype=top.dtype)
    d[n_max] = top
    for n in range(n_max, 0, -1):
        d[n - 1] = n / z - 1.0 / (d[n] + n / z)
    return d


def _riccati_psi(z: np.ndarray, dlog: np.ndarray) -> np.ndarray:
    """psi_n(z) = z j_n(z), orders 0..n_max, from the log derivatives of z."""
    ratio = dlog[1:] + np.arange(1, dlog.shape[0])[:, None] / z
    zero = np.nonzero(ratio == 0.0)[0]
    if zero.size:
        raise RecurrenceUnstable(f"vanishing psi ratio at order {zero[0] + 1}")
    psi = np.empty_like(dlog)
    psi[0] = np.sin(z)
    near_root = (np.abs(psi[0]) < 0.1) & (np.abs(z) > 1.0)
    psi[1] = np.where(near_root, psi[0] / z - np.cos(z), psi[0] / ratio[0])
    for n in range(2, dlog.shape[0]):
        psi[n] = psi[n - 1] / ratio[n - 1]
    return psi


def _riccati_chi(x: np.ndarray, n_max: int) -> np.ndarray:
    """chi_n(x) = -x y_n(x) for real x, orders 0..n_max; it grows with n, so upward is stable."""
    chi = np.empty((n_max + 2,) + np.shape(x))
    chi[0], chi[1] = -np.sin(x), np.cos(x)  # orders -1 and 0
    for n in range(1, n_max + 1):
        chi[n + 1] = (2.0 * n - 1.0) / x * chi[n] - chi[n - 1]
    return chi[1:]


def _partial_waves(x: np.ndarray, m: np.ndarray, n_max: int):
    """a, b, c, d of samples (x, m) that share one cutoff, each (n_max, samples)."""
    mx = m * x
    dlog = _log_derivatives(mx, n_max)
    psi = _riccati_psi(x, _log_derivatives(x, n_max))
    xi = psi - 1j * _riccati_chi(x, n_max)

    ns = np.arange(1, n_max + 1)[:, None]
    dn = dlog[1:]
    ta = dn / m + ns / x
    tb = dn * m + ns / x
    a = (ta * psi[1:] - psi[:-1]) / (ta * xi[1:] - xi[:-1])
    b = (tb * psi[1:] - psi[:-1]) / (tb * xi[1:] - xi[:-1])

    psi_mx = _riccati_psi(mx, dlog)[1:]
    dpsi_mx = psi_mx * dn
    dxi_x = xi[:-1] - ns / x * xi[1:]
    # numerators are m * (psi xi' - xi psi') = i m by the Wronskian
    c = 1j * m / (psi_mx * dxi_x - m * xi[1:] * dpsi_mx)
    d = 1j * m / (m * psi_mx * dxi_x - xi[1:] * dpsi_mx)

    if not all(np.isfinite(arr).all() for arr in (a, b, c, d)):
        raise RecurrenceUnstable("non-finite Mie coefficient")
    return a, b, c, d


def mie_coefficients(scene: SphereScene, n_extra: int = 0) -> MieCoefficients:
    """Partial-wave coefficients for plane-wave incidence.

    n_extra raises the multipole cutoff beyond the standard rule, for
    convergence studies.  Raises SizeParameterOutOfRange outside (0, 100]
    and RecurrenceUnstable if the Bessel chains degenerate.
    """
    x = np.array([scene.size_parameter])
    _check_size_parameter(x)
    n_max = multipole_cutoff(x[0]) + int(n_extra)
    a, b, c, d = _partial_waves(x, np.array([scene.relative_index]), n_max)
    return MieCoefficients(a=a[:, 0], b=b[:, 0], c=c[:, 0], d=d[:, 0], n_max=n_max)


def _efficiency_sums(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows Q_ext, Q_sca from (n_max, samples) coefficients; each sample's
    orders are summed as one contiguous row, in the order of a 1-d sum."""
    weights = 2.0 * np.arange(1, a.shape[0] + 1)[:, None] + 1.0
    terms = np.stack([weights * (a + b).real, weights * (np.abs(a) ** 2 + np.abs(b) ** 2)])
    return (2.0 / x**2) * np.ascontiguousarray(terms.transpose(0, 2, 1)).sum(axis=2)


def efficiencies(scene: SphereScene, coeffs: MieCoefficients | None = None) -> EfficiencySet:
    """Extinction, scattering, and absorption efficiencies."""
    if coeffs is None:
        coeffs = mie_coefficients(scene)
    x = np.array([scene.size_parameter])
    (q_ext,), (q_sca,) = _efficiency_sums(x, coeffs.a[:, None], coeffs.b[:, None])
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


def qabs_spectrum(
    spectrum: PermittivitySpectrum, radius: float, host_epsilon: float = 1.0
) -> EfficiencySpectrum:
    """Sphere efficiencies across a steady or transient permittivity spectrum.

    A steady spectrum (no time axis) with Im(eps) below -1e-9 is an active
    medium and is rejected.  Transient slices are read quasi-statically;
    their coherence can swing Im(eps) negative, a momentary gain.  Negative
    Im(eps) is clipped to zero and the time axis passes through.
    """
    if spectrum.time is None:
        check(spectrum.epsilon.imag, lambda v: v >= -1e-9,
              "spectrum has negative Im(eps) beyond roundoff")
    energies = spectrum.energies
    check(energies, positive, "photon energy must be > 0")
    wavelength = ev_to_vacuum_wavelength_m(energies)
    _check_geometry(radius, host_epsilon, wavelength)
    x = _size_parameter(radius, host_epsilon, wavelength)
    _check_size_parameter(x)
    eps = spectrum.epsilon.copy()
    eps.imag[eps.imag < 0.0] = 0.0
    m = _relative_index(eps, host_epsilon)

    cutoff = multipole_cutoff(x)
    q = np.empty((2, x.size))
    for n_max in np.unique(cutoff):
        group = cutoff == n_max
        a, b, _, _ = _partial_waves(x[group], m[group], int(n_max))
        q[:, group] = _efficiency_sums(x[group], a, b)
    kappa = np.abs(refractive_index(spectrum).imag)
    peak = kappa.max()
    return EfficiencySpectrum(
        energies=energies.copy(),
        q_ext=q[0],
        q_sca=q[1],
        q_abs=q[0] - q[1],
        kappa_normalized=kappa / peak if peak > 0.0 else kappa,
        time=None if spectrum.time is None else spectrum.time.copy(),
    )


def qabs_transient(
    eps_t: PermittivitySpectrum, radius: float, host_epsilon: float = 1.0
) -> EfficiencySpectrum:
    """qabs_spectrum along a transient permittivity, which must carry a time axis."""
    if eps_t.time is None:
        raise ValueError("transient spectrum must carry a time axis")
    return qabs_spectrum(eps_t, radius, host_epsilon)


def quasistatic_polarizability(
    sphere_epsilon: complex, host_epsilon: float, radius: float
) -> QuasistaticResponse:
    """Clausius-Mossotti dipole response of a small sphere."""
    check(radius, positive, "radius must be finite and > 0")
    check(host_epsilon, at_least_one, "host_epsilon must be finite and >= 1")
    check(sphere_epsilon, np.isfinite, "sphere_epsilon must be finite")
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
