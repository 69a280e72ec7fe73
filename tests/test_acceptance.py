"""Acceptance suite: ten headline checks, one summary line each.

Every test measures its quantity, records a pass/fail line through
``_acceptance_log.record`` (printed again in the terminal summary), and
then asserts.  Tolerances are stated inline next to each check.
"""

import time

import mpmath
import numpy as np
import pytest
import scipy.linalg

from _acceptance_log import record
from lsepkit import aggregate, bloch, film, medium
from lsepkit.constants import (
    C0,
    EPS0,
    EV_TO_RADS,
    ev_to_vacuum_wavelength_m,
    power_to_field,
)
from lsepkit.mie import (
    SphereScene,
    Termination,
    efficiencies,
    mie_coefficients,
    near_field,
    near_field_grid,
    poynting,
    poynting_streamlines,
    qabs_spectrum,
    qabs_transient,
)

BULK = medium.MaterialParams(
    number_density=3.29e25,
    background_permittivity=1.52**2,
    two_level=bloch.TwoLevelParams(
        transition_energy=2.11,
        decay_rate=1.15e12,
        pure_dephasing=0.017,
        dipole=32.0,
    ),
)

PLANAR = medium.MaterialParams(
    number_density=1.47e25,
    background_permittivity=1.52**2,
    two_level=bloch.TwoLevelParams(
        transition_energy=2.11,
        decay_rate=1.15e12,
        pure_dephasing=0.017,
        dipole=48.0,
    ),
)

RADIUS = 50e-9
DRIVE_AMPLITUDE = power_to_field(1e-3, 1.5e-3)


def resonant_scene(material, energy_ev):
    eps = medium.epsilon_steady(material, np.array([energy_ev])).epsilon[0]
    return SphereScene(
        radius=RADIUS,
        sphere_epsilon=complex(eps.real, max(eps.imag, 0.0)),
        host_epsilon=1.0,
        wavelength_vacuum=ev_to_vacuum_wavelength_m(energy_ev),
    )


def transient_qabs(detuning_ev, times):
    drive = bloch.DriveField(
        amplitude=DRIVE_AMPLITUDE, photon_energy=2.11 + detuning_ev
    )
    spectrum = medium.epsilon_transient(BULK, drive, times)
    return qabs_transient(spectrum, radius=RADIUS, host_epsilon=1.0).q_abs


def steady_qabs(detuning_ev):
    return efficiencies(resonant_scene(BULK, 2.11 + detuning_ev)).q_abs


def test_criterion_1_permittivity_value():
    started = time.perf_counter()
    eps = medium.epsilon_steady(BULK, np.array([2.16])).epsilon[0]
    elapsed = time.perf_counter() - started
    target = complex(-2.251, 1.728)
    err_re = abs(eps.real - target.real) / abs(target.real)
    err_im = abs(eps.imag - target.imag) / abs(target.imag)
    ok = err_re <= 0.10 and err_im <= 0.10 and elapsed < 1.0
    detail = (
        f"eps(2.16 eV) = {eps.real:.4f}{eps.imag:+.4f}i vs {target.real}"
        f"{target.imag:+}i (component errors {err_re:.1%}, {err_im:.1%}; "
        f"tol 10%)"
    )
    assert record(1, "permittivity at the sphere resonance", ok, detail), detail


def test_criterion_2_absorption_spectrum_peaks():
    energies = np.linspace(1.9, 2.4, 500)
    started = time.perf_counter()
    spectrum = medium.epsilon_steady(BULK, energies)
    result = qabs_spectrum(spectrum, radius=RADIUS, host_epsilon=1.0)
    elapsed = time.perf_counter() - started
    e_qabs = energies[result.q_abs.argmax()]
    e_kappa = energies[result.kappa_normalized.argmax()]
    peak = result.q_abs.max()
    ok = (
        abs(e_qabs - 2.16) <= 0.01
        and peak > 1.0
        and abs(e_kappa - 2.12) <= 0.01
        and elapsed < 10.0
    )
    detail = (
        f"Q_abs peak {peak:.3f} at {e_qabs:.3f} eV (want 2.16 +/- 0.01, > 1), "
        f"material kappa peak at {e_kappa:.3f} eV (want 2.12 +/- 0.01); "
        f"500-point grid in {elapsed:.2f} s (< 10 s)"
    )
    assert record(2, "sphere absorption vs material absorption", ok, detail), detail


def test_criterion_3_parameter_set_equivalence():
    energies = np.round(np.arange(1.8, 2.4001, 0.002), 6)
    eps_planar = medium.epsilon_steady(PLANAR, energies).epsilon
    eps_bulk = medium.epsilon_steady(BULK, energies).epsilon
    # the dispersion sweeps through zero magnitude, so pointwise relative
    # error is ill-conditioned there; normalize by the band's largest
    # magnitude instead, and quote the resonance point as well
    band_scale = np.abs(eps_planar - eps_bulk).max() / np.abs(eps_bulk).max()
    at = np.searchsorted(energies, 2.16)
    point = abs(eps_planar[at] - eps_bulk[at]) / abs(eps_bulk[at])
    ok = band_scale <= 0.01 and point <= 0.01
    detail = (
        f"planar vs volume parameter sets over 1.8-2.4 eV: band-scale "
        f"difference {band_scale:.2%}, at 2.16 eV {point:.2%} (tol 1%)"
    )
    assert record(3, "equivalent oscillator-density pairings", ok, detail), detail


def test_criterion_4_transient_absorption_overshoot_and_settling():
    times = np.arange(0.0, 400.0e-15 + 0.5e-15, 1.0e-15)
    detunings = (0.0, 0.03, 0.06, 0.09, 0.091)
    worst_dev = 0.0
    worst_elapsed = 0.0
    overshoot = final = None
    for detuning in detunings:
        started = time.perf_counter()
        q_t = transient_qabs(detuning, times)
        worst_elapsed = max(worst_elapsed, time.perf_counter() - started)
        q_ss = steady_qabs(detuning)
        tail = np.abs(q_t[times >= 300e-15] - q_ss) / q_ss
        worst_dev = max(worst_dev, float(tail.max()))
        if detuning == 0.09:
            overshoot = float(q_t[times <= 30e-15].max())
            final = float(q_t[-1])
    ok = (
        overshoot > 1.0
        and final < 1.0
        and worst_dev <= 0.01
        and worst_elapsed < 30.0
    )
    detail = (
        f"0.09 eV detuning: max Q_abs(t <= 30 fs) = {overshoot:.3f} (> 1), "
        f"Q_abs(400 fs) = {final:.3f} (< 1); all detunings within "
        f"{worst_dev:.2%} of steady state past 300 fs (tol 1%); slowest "
        f"detuning {worst_elapsed:.2f} s (< 30 s)"
    )
    assert record(4, "switch-on transient of sphere absorption", ok, detail), detail


def test_criterion_5_transient_oscillation_period():
    times = np.arange(0.0, 400.0e-15 + 0.5e-15, 1.0e-15)
    q_t = transient_qabs(0.09, times)
    signal = q_t - steady_qabs(0.09)
    padded = np.zeros(4096)
    padded[: signal.size] = signal - signal.mean()
    amp = np.abs(np.fft.rfft(padded))
    freqs = np.fft.rfftfreq(4096, d=1.0)  # cycles per fs
    window = freqs > 1.0 / 200.0  # ignore the slow settling envelope
    k = int(np.argmax(amp[window])) + int(np.argmax(window))
    denom = amp[k - 1] - 2.0 * amp[k] + amp[k + 1]
    shift = 0.5 * (amp[k - 1] - amp[k + 1]) / denom if denom != 0.0 else 0.0
    period = 1.0 / (freqs[k] + shift * (freqs[1] - freqs[0]))
    expected = 2.0 * np.pi * 6.582119569e-16 / 0.09 * 1e15  # fs
    err = abs(period - expected) / expected
    ok = err <= 0.10
    detail = (
        f"dominant Q_abs(t) period {period:.1f} fs vs h-bar/detuning value "
        f"{expected:.1f} fs (error {err:.1%}, tol 10%)"
    )
    assert record(5, "beat period of the detuned transient", ok, detail), detail


def _capture_stats(energy_ev):
    scene = resonant_scene(BULK, energy_ev)
    coeffs = mie_coefficients(scene)
    offsets = 5e-9 * np.arange(0, 31)
    seeds = np.stack(
        [np.zeros_like(offsets), offsets, np.full_like(offsets, -200e-9)], axis=1
    )
    lines = poynting_streamlines(scene, coeffs, seeds, step=10e-9, max_steps=600)
    absorbed = [
        ln.seed[1] for ln in lines if ln.terminated is Termination.ABSORBED
    ]
    return len(absorbed), max(absorbed) * 1e9


def test_criterion_6_capture_beyond_geometric_and_off_peak_shrink():
    count_on, radius_on = _capture_stats(2.16)
    count_off, radius_off = _capture_stats(2.12)
    ok = radius_on > 50.0 and count_off < count_on
    detail = (
        f"at 2.16 eV seeds out to {radius_on:.0f} nm are funneled into the "
        f"50 nm sphere ({count_on}/31 captured); at 2.12 eV capture shrinks "
        f"to {radius_off:.0f} nm ({count_off}/31, strictly fewer)"
    )
    assert record(6, "energy-flow capture cross-section", ok, detail), detail


SEED_PLANE_Z = -200e-9
# equally spaced from the E-plane (x, the polarization axis) to the H-plane (y)
AZIMUTHS = np.linspace(0.0, 0.5 * np.pi, 7)


def _seed_plane(offsets):
    """Points at (azimuth, offset) on the seed plane, offsets shaped (7, S)."""
    phi = AZIMUTHS[:, None]
    x, y, z = np.broadcast_arrays(
        offsets * np.cos(phi), offsets * np.sin(phi), SEED_PLANE_Z
    )
    return np.stack([x, y, z], axis=-1).reshape(-1, 3)


def _separatrix(scene, coeffs, step):
    """Offset on each azimuth where capture ends, traced with the midpoint scheme.

    Each of two rounds traces 16 evenly spaced seeds per azimuth across the
    bracket, all in lockstep, and keeps the interval in which capture stops:
    the 50-150 nm bracket narrows to 0.44 nm, and its midpoint is returned.
    """
    sections = 15
    rows = np.arange(AZIMUTHS.size)
    lo, hi = np.full(AZIMUTHS.size, 50e-9), np.full(AZIMUTHS.size, 150e-9)
    for _ in range(2):
        offsets = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, sections + 1)
        lines = poynting_streamlines(
            scene, coeffs, _seed_plane(offsets), step=step, scheme="midpoint"
        )
        captured = np.array(
            [ln.terminated is Termination.ABSORBED for ln in lines]
        ).reshape(offsets.shape)
        k = captured.sum(axis=1)
        assert np.all(captured == (np.arange(sections + 1) < k[:, None])) and np.all(
            (k >= 1) & (k <= sections)
        ), "capture is not one run of seeds starting inside the bracket"
        lo, hi = offsets[rows, k - 1], offsets[rows, k]
    return 0.5 * (lo + hi)


def _captured_flux_ratio(scene, coeffs, separatrix):
    """Flux of S_z through the captured seed-plane region over Q_abs*pi*a^2*S_inc.

    S_z is even in x and in y, so the flux is four quadrants of one.  The
    azimuthal integrand is smooth and periodic, where the trapezoid rule on
    equally spaced azimuths converges spectrally; each radial integral uses
    24 Gauss-Legendre nodes on [0, separatrix].
    """
    nodes, weights = np.polynomial.legendre.leggauss(24)
    offsets = separatrix[:, None] * 0.5 * (nodes + 1.0)
    field = near_field_grid(scene, coeffs, _seed_plane(offsets))
    s_z = poynting(field.E, field.H)[:, 2].reshape(offsets.shape)
    radial = 0.5 * separatrix * (s_z * offsets * weights).sum(axis=1)
    flux = 4.0 * np.trapezoid(radial, AZIMUTHS)
    s_incident = 0.5 * np.sqrt(scene.host_epsilon) * EPS0 * C0
    absorbed = efficiencies(scene, coeffs).q_abs * np.pi * scene.radius**2 * s_incident
    return flux / absorbed


def test_criterion_6_capture_radius_band():
    """The flux tube captured at 2.16 eV carries the absorbed power.

    The host is lossless, so div S = 0 outside the sphere and the flux of
    S_z through the captured part of the z = -200 nm seed plane equals
    Q_abs*pi*a^2*S_inc (Bohren, Am. J. Phys. 51, 323 (1983)).  The tube is
    not a disc, so no single half-width follows from Q_abs.  The separatrix
    is traced at steps of 10 and 5 nm; they must agree within 1 nm, and the
    5 nm one is integrated.  The default 10 nm Euler tracer's separatrix
    gives a flux ratio of 0.92 and would fail.
    """
    scene = resonant_scene(BULK, 2.16)
    coeffs = mie_coefficients(scene)
    coarse = _separatrix(scene, coeffs, step=10e-9)
    fine = _separatrix(scene, coeffs, step=5e-9)
    step_dev = float(np.abs(coarse - fine).max())
    ratio = _captured_flux_ratio(scene, coeffs, fine)
    ok = step_dev <= 1e-9 and abs(ratio - 1.0) <= 0.01
    detail = (
        f"separatrix on the seed plane at {fine[0] * 1e9:.1f} nm (E-plane), "
        f"{fine[-1] * 1e9:.1f} nm (H-plane); 10 vs 5 nm midpoint steps within "
        f"{step_dev * 1e9:.2f} nm (tol 1 nm); captured flux / absorbed power "
        f"= {ratio:.4f} (tol 1%)"
    )
    assert record(6, "capture radius magnitude", ok, detail), detail


def test_criterion_7_aggregate_closed_forms_match_dense():
    worst_eig = worst_vec = worst_dip = 0.0
    worst_sum = 0.0
    ratios = []
    for n in range(1, 65):
        chain = aggregate.AggregateChain(
            n_molecules=n, monomer_energy=2.58, coupling=0.06, monomer_dipole=11.4
        )
        diag = np.full(n, chain.monomer_energy)
        off = np.full(n - 1, -chain.coupling)
        if n > 1:
            vals, vecs = scipy.linalg.eigh_tridiagonal(diag, off)
        else:
            vals, vecs = np.array([chain.monomer_energy]), np.eye(1)
        worst_eig = max(worst_eig, float(np.abs(aggregate.eigenvalues(chain) - vals).max()))
        dipoles_sq = 0.0
        for mode in range(1, n + 1):
            state = aggregate.eigenstate(chain, mode)
            dense = vecs[:, mode - 1]
            overlap = abs(float(np.dot(state, dense)))
            worst_vec = max(worst_vec, abs(overlap - 1.0))
            analytic = aggregate.mode_dipole(chain, mode)
            summed = abs(float(np.sum(dense))) * chain.monomer_dipole
            worst_dip = max(worst_dip, abs(analytic - summed))
            dipoles_sq += analytic**2
        worst_sum = max(
            worst_sum,
            abs(dipoles_sq - n * chain.monomer_dipole**2) / (n * chain.monomer_dipole**2),
        )
        if n >= 8:
            ratios.append(
                aggregate.mode_dipole(chain, 1) / aggregate.mode_dipole(chain, 3)
            )
    ratios = np.array(ratios)
    ok = (
        worst_eig < 1e-10
        and worst_vec < 1e-10
        and worst_dip < 1e-10
        and worst_sum < 1e-10
        and np.all((ratios >= 2.9) & (ratios <= 3.3))
    )
    detail = (
        f"chains up to 64 sites: eigenvalue/eigenvector/dipole deviations "
        f"{worst_eig:.1e}/{worst_vec:.1e}/{worst_dip:.1e} vs dense "
        f"diagonalization, sum-rule error {worst_sum:.1e} (all < 1e-10); "
        f"mode-1/mode-3 dipole ratio in [{ratios.min():.3f}, {ratios.max():.3f}] "
        f"for 8-64 sites (want [2.9, 3.3])"
    )
    assert record(7, "chain-exciton closed forms", ok, detail), detail


def test_criterion_7_dipole_ratio_smallest_chain():
    """The 7-site ratio is cot(pi/16)/cot(3*pi/16), above the 8-site one.

    The [2.9, 3.3] band starts at 8 sites (criterion 7 above); the open
    nearest-neighbour chain approaches 3 from above as it grows.
    """

    def chain(n):
        return aggregate.AggregateChain(
            n_molecules=n, monomer_energy=2.58, coupling=0.06, monomer_dipole=11.4
        )

    def ratio(n):
        return aggregate.mode_dipole(chain(n), 1) / aggregate.mode_dipole(chain(n), 3)

    seven = chain(7)
    _, vecs = scipy.linalg.eigh_tridiagonal(
        np.full(7, seven.monomer_energy), np.full(6, -seven.coupling)
    )
    dense = abs(vecs[:, 0].sum() / vecs[:, 2].sum())
    with mpmath.workdps(30):
        exact = float(mpmath.cot(mpmath.pi / 16) / mpmath.cot(3 * mpmath.pi / 16))
    measured, next_longer = ratio(7), ratio(8)
    err_dense = abs(measured - dense) / dense
    err_exact = abs(measured - exact) / exact
    ok = err_dense <= 1e-12 and err_exact <= 1e-12 and measured > next_longer
    detail = (
        f"7-site mode-1/mode-3 dipole ratio {measured:.9f} vs dense "
        f"diagonalization {err_dense:.1e} and cot(pi/16)/cot(3*pi/16) "
        f"{err_exact:.1e} relative (tol 1e-12); above the 8-site "
        f"{next_longer:.6f}, so the ratio falls toward 3 from above"
    )
    assert record(7, "dipole ratio at seven sites", ok, detail), detail


def test_criterion_8_lab_and_rotating_frame_solutions_agree():
    params = BULK.two_level
    drive = bloch.DriveField(amplitude=1e5, photon_energy=2.11)
    omega = drive.angular_frequency
    cycle = 2.0 * np.pi / omega
    times = np.arange(0.0, 500e-15, cycle / 24.0)
    lab = bloch.evolve_lab(
        params,
        drive,
        bloch.DensityMatrix.ground(),
        times,
        rtol=1e-11, atol=1e-13,
    )
    smooth = bloch.cycle_average(
        times, bloch.rotating_frame(lab).rho01, np.pi / omega
    )
    rwa = bloch.evolve_rwa(params, drive, bloch.DensityMatrix.ground(), times)
    scale = np.abs(rwa.rho01).max()
    interior = (times >= 0.5 * cycle) & (times <= times[-1] - 0.5 * cycle)
    env_err = float(
        (np.abs(np.abs(smooth) - np.abs(rwa.rho01))[interior] / scale).max()
    )
    worst_trace = worst_herm = worst_pos = 0.0
    for i in range(len(times)):
        dm = lab.density_matrix(i)
        worst_trace = max(worst_trace, dm.trace_error)
        worst_herm = max(worst_herm, dm.hermiticity_error)
        worst_pos = min(worst_pos, dm.positivity_margin)
    ok = (
        env_err < 1e-3
        and worst_trace <= 1e-9
        and worst_herm <= 1e-9
        and worst_pos >= -1e-9
    )
    detail = (
        f"demodulated full-wave solution vs rotating-frame envelope: "
        f"coherence error {env_err:.1e} (tol 1e-3) over 0-500 fs at "
        f"1e5 V/m; trace/hermiticity/positivity within "
        f"{worst_trace:.1e}/{worst_herm:.1e}/{abs(worst_pos):.1e} (tol 1e-9)"
    )
    assert record(8, "independent density-matrix solvers", ok, detail), detail


def test_criterion_9_film_inversion_round_trip():
    wavelengths = np.linspace(520e-9, 620e-9, 16)
    x = (wavelengths - 570e-9) / 28e-9
    n_true = 2.00 + 0.15 * x
    k_true = 0.60 * np.exp(-(x**2))
    measurements = []
    for wl, n, k in zip(wavelengths, n_true, k_true):
        stack = film.FilmStack(
            thickness=70e-9,
            film_index=complex(n, k),
            substrate_index=1.52,
            ambient_index=1.0,
        )
        rt = film.rt_theoretical(stack, wl)
        measurements.append(film.RTMeasurement(wl, rt.reflectance, rt.transmittance))
    grid = film.NkGrid(
        n_min=1.2, n_max=2.6, n_step=0.02, kappa_min=0.0, kappa_max=1.0, kappa_step=0.02
    )
    candidates = film.extract_nk(
        measurements, thickness_range=(70e-9, 70e-9), grid=grid
    )
    physical = sorted(
        film.select_physical_branch(candidates).physical, key=lambda c: c.wavelength
    )
    n_err = max(abs(c.n - n) for c, n in zip(physical, n_true))
    k_err = max(abs(c.kappa - k) for c, k in zip(physical, k_true))

    rescaled = film.thickness_rescale(0.8, 63e-9, 77e-9)
    identity_exact = rescaled == 0.8 * (63e-9 / 77e-9)
    back = film.thickness_rescale(rescaled, 77e-9, 63e-9)
    round_trip = abs(back - 0.8) <= 1e-15

    eps_m, f0, w0_ev, g0_ev = 2.3104, 0.05, 2.11, 0.0461
    energies = np.linspace(0.25, 5.0, 3000)
    omega, w0, g0 = energies * EV_TO_RADS, w0_ev * EV_TO_RADS, g0_ev * EV_TO_RADS
    index = np.sqrt(eps_m + f0 * w0**2 / (w0**2 - omega**2 - 1j * omega * g0))
    curve = film.close_with_kk(energies, index.imag, np.sqrt(eps_m))
    band = (energies > 2.01) & (energies < 2.21)
    kk_err = float(
        (np.abs(curve.n[band] - index.real[band]) / index.real[band]).max()
    )

    ok = (
        n_err <= 0.04
        and k_err <= 0.04
        and identity_exact
        and round_trip
        and kk_err < 0.02
    )
    detail = (
        f"inversion recovers the generating film to n {n_err:.1e} / kappa "
        f"{k_err:.1e} (tol: two 0.02 grid steps); thickness rescale is the "
        f"exact ratio formula and round-trips to {abs(back - 0.8):.1e}; "
        f"dispersion closure rebuilds the oscillator's n to {kk_err:.2%} at "
        f"band center (tol 2%)"
    )
    assert record(9, "film optical-constant extraction", ok, detail), detail


def test_criterion_10_scattering_limit_behavior():
    lossless_worst = 0.0
    for x, m in ((0.5473, 1.6), (3.0, 1.33), (0.3, 2.5)):
        wavelength = 600e-9
        scene = SphereScene(
            radius=x * wavelength / (2.0 * np.pi),
            sphere_epsilon=m**2,
            host_epsilon=1.0,
            wavelength_vacuum=wavelength,
        )
        lossless_worst = max(lossless_worst, abs(efficiencies(scene).q_abs))

    x = 0.05
    m = 1.5
    wavelength = 600e-9
    scene = SphereScene(
        radius=x * wavelength / (2.0 * np.pi),
        sphere_epsilon=m**2,
        host_epsilon=1.0,
        wavelength_vacuum=wavelength,
    )
    q_sca = efficiencies(scene).q_sca
    rayleigh = (8.0 / 3.0) * x**4 * abs((m**2 - 1.0) / (m**2 + 2.0)) ** 2
    ray_err = abs(q_sca - rayleigh) / rayleigh

    matched = SphereScene(
        radius=50e-9,
        sphere_epsilon=2.25,
        host_epsilon=2.25,
        wavelength_vacuum=600e-9,
    )
    coeffs = mie_coefficients(matched)
    coeff_max = max(np.abs(coeffs.a).max(), np.abs(coeffs.b).max())
    enh_dev = 0.0
    for point in ([0.0, 0.0, 80e-9], [30e-9, 20e-9, -60e-9], [0.0, 90e-9, 10e-9]):
        sample = near_field(matched, coeffs, point)
        enh_dev = max(enh_dev, abs(sample.enhancement - 1.0))

    ok = lossless_worst < 1e-10 and ray_err < 0.01 and coeff_max < 1e-12 and enh_dev < 1e-10
    detail = (
        f"lossless spheres absorb {lossless_worst:.1e} (tol 1e-10); small-"
        f"sphere scattering matches the quartic limit to {ray_err:.2%} "
        f"(tol 1%); index-matched sphere: coefficients {coeff_max:.1e}, "
        f"field enhancement within {enh_dev:.1e} of unity"
    )
    assert record(10, "scattering limit suite", ok, detail), detail
