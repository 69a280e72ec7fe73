"""Near-zone electromagnetic fields and energy-flow streamlines.

Exterior points carry the analytic plane wave plus the outgoing partial
waves, whose radial functions h_n = j_n + i y_n of the real argument
come from one upward recurrence; interior points use the internal
expansion, whose j_n of a complex argument take the downward
log-derivative recurrence of the Mie coefficients.  E and H share every
radial and angular function of these vector waves and differ only in
their coefficients (Bohren & Huffman 1983, sec. 4.4), so each spherical
component of both fields is one matrix product over orders, for unit
incident amplitude.  near_field_grid, the one evaluator, decides the
undefined exact center for the map and the tracer alike.  It is
vectorized over point batches so the streamline tracer can advance every
seed in lockstep.

The scene is symmetric under y -> -y: at (x, -y, z) the fields are
E = (Ex, -Ey, Ez) and H = (-Hx, Hy, -Hz) of those at (x, y, z), and the
Poynting vector is (Sx, -Sy, Sz).  A batch of mirrored points gives these
bit for bit, so a caller with a symmetric set of points can evaluate one
of each mirror pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .. import NumericalFailure, check, positive, positive_integer
from ..constants import C0, EPS0
from .scatter import (
    MieCoefficients,
    SphereScene,
    _log_derivatives,
    mie_coefficients,
)

DOMAIN_RADIUS_FACTOR = 10.0
CENTER_OFFSET = 1e-12  # m; a point nearer the center is evaluated at (0, 0, CENTER_OFFSET)


class EvaluationTooFarOut(ValueError):
    """Point beyond the validated near-zone domain (10 sphere radii): an
    input error."""


class ZeroPoyntingVector(NumericalFailure):
    """Energy flow vanished at a streamline sample outside the sphere."""


@dataclass(frozen=True)
class FieldGrid:
    """Complex E (V/m) and H (A/m) and |E|/E0, arrays indexed by point."""

    positions: np.ndarray
    E: np.ndarray
    H: np.ndarray
    enhancement: np.ndarray


class Termination(Enum):
    LEFT_DOMAIN = "LeftDomain"
    ABSORBED = "EnteredSphereAndAbsorbed"
    MAX_STEPS = "MaxSteps"


@dataclass(frozen=True)
class Streamline:
    seed: np.ndarray
    points: np.ndarray
    terminated: Termination


def _spherical_jn(z: np.ndarray, n_max: int) -> np.ndarray:
    """j_0..j_n_max for an array of (possibly complex) arguments.

    Anchored on j_0 = sin(z)/z away from the zeros of sin and on j_1
    otherwise; the ratios j_n/j_{n-1} = 1/(D_n + n/z) of the shared
    downward recurrence carry the order dependence.
    """
    ratios = 1.0 / (_log_derivatives(z, n_max) + np.arange(n_max + 1)[:, None] / z)
    j0 = np.sin(z) / z
    j1 = np.sin(z) / z**2 - np.cos(z) / z
    use_j0 = np.abs(np.sin(z)) >= 0.1
    out = np.empty((n_max + 1,) + z.shape, dtype=np.result_type(z, 1.0))
    out[0] = np.where(use_j0, j0, j1 / ratios[1])
    out[1] = np.where(use_j0, out[0] * ratios[1], j1)
    for n in range(2, n_max + 1):
        out[n] = out[n - 1] * ratios[n]
    return out


def _spherical_hankel(x: np.ndarray, n_max: int) -> np.ndarray:
    """h_0..h_n_max = j_n + i y_n for an array of real arguments x > 0.

    The Riccati-Hankel functions xi_n = x h_n go upward from
    xi_-1 = e^{ix} and xi_0 = -i e^{ix} (Abramowitz & Stegun 10.1.19).
    Upward is stable for y_n, and so for h_n, since |h_n| >= |y_n|.
    """
    xi = np.empty((n_max + 2,) + x.shape, dtype=complex)
    xi[0] = np.exp(1j * x)
    xi[1] = -1j * xi[0]
    for n in range(1, n_max + 1):
        xi[n + 1] = (2.0 * n - 1.0) / x * xi[n] - xi[n - 1]
    return xi[1:] / x


def _angular_functions(mu: np.ndarray, n_max: int):
    """pi_n and tau_n on mu = cos(theta), orders 1..n_max (index 0 unused)."""
    shape = (n_max + 1,) + mu.shape
    pi = np.zeros(shape)
    tau = np.zeros(shape)
    pi[1] = 1.0
    tau[1] = mu
    for n in range(2, n_max + 1):
        pi[n] = ((2.0 * n - 1.0) * mu * pi[n - 1] - n * pi[n - 2]) / (n - 1.0)
        tau[n] = n * mu * pi[n] - (n + 1.0) * pi[n - 1]
    return pi, tau


def near_field_grid(scene: SphereScene, coeffs: MieCoefficients | None, points) -> FieldGrid:
    """Total E and H at a batch of points for x-polarized +z incidence of
    unit amplitude.

    Points are (P, 3) Cartesian meters centered on the sphere; ``coeffs``
    None solves the scene.  The expansion is undefined at the exact center,
    where the field is smooth, so a point within CENTER_OFFSET of it is
    evaluated (and returned in ``positions``) at (0, 0, CENTER_OFFSET).
    Raises EvaluationTooFarOut past 10 radii and ValueError at a
    non-finite point.
    """
    if coeffs is None:
        coeffs = mie_coefficients(scene)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be (P, 3), got {pts.shape}")
    check(pts, np.isfinite, "points must be finite")
    r = np.linalg.norm(pts, axis=1)
    centered = r < CENTER_OFFSET
    if centered.any():
        pts = np.where(centered[:, None], [0.0, 0.0, CENTER_OFFSET], pts)
        r = np.linalg.norm(pts, axis=1)
    if np.any(r > DOMAIN_RADIUS_FACTOR * scene.radius):
        raise EvaluationTooFarOut(
            f"point at {r.max():.3e} m exceeds {DOMAIN_RADIUS_FACTOR} radii"
        )

    n_max = coeffs.n_max
    ns = np.arange(1, n_max + 1)
    # partial-wave amplitudes i^n (2n+1)/(n(n+1))
    en = (1j**ns) * (2.0 * ns + 1.0) / (ns * (ns + 1.0))

    theta = np.arccos(np.clip(pts[:, 2] / r, -1.0, 1.0))
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    mu, sin_theta = np.cos(theta), np.sin(theta)
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    pi_n, tau_n = _angular_functions(mu, n_max)

    admittance = np.sqrt(scene.host_epsilon) * EPS0 * C0  # k / (omega mu0)
    inside = r < scene.radius
    # (E, H) by (r, theta, phi) component by point, before the phi factors
    sph = np.empty((2, 3, pts.shape[0]), dtype=complex)

    def partial_waves(mask, rho, radial, wave_n, wave_m, h_factor):
        """Sum one region's N- and M-type waves over orders: rows E and H of
        wave_n and wave_m are their coefficients, one (2, n_max) block each,
        and h_factor is the region's H-to-E scale."""
        amp = en * np.array([[1.0], [h_factor]])
        nw, mw = amp * wave_n, amp * wave_m
        pi_m, tau_m = pi_n[1:, mask], tau_n[1:, mask]
        rad = radial[1:]
        drad = radial[:-1] - ns[:, None] * rad / rho  # (rho z_n)' / rho
        sph[:, 0, mask] = (nw * ns * (ns + 1.0)) @ (sin_theta[mask] * pi_m * rad / rho)
        sph[:, 1, mask] = nw @ (tau_m * drad) + mw @ (pi_m * rad)
        sph[:, 2, mask] = nw @ (pi_m * drad) + mw @ (tau_m * rad)

    a, b, c, d = coeffs.a, coeffs.b, coeffs.c, coeffs.d
    outside = ~inside
    if np.any(outside):
        rho = scene.host_wavenumber * r[outside]
        partial_waves(outside, rho, _spherical_hankel(rho, n_max),
                      [1j * a, 1j * b], [-b, -a], admittance)

    if np.any(inside):
        m_rel = scene.relative_index
        rho = m_rel * scene.host_wavenumber * r[inside]
        partial_waves(inside, rho, _spherical_jn(rho, n_max),
                      [-1j * d, 1j * c], [c, -d], -m_rel * admittance)

    # x-polarized incidence: E goes as (cos, cos, -sin) phi and H as
    # (sin, sin, cos) phi; then the spherical basis rotates to Cartesian
    sph *= np.array([[cos_phi, cos_phi, -sin_phi], [sin_phi, sin_phi, cos_phi]])
    basis = np.array([[sin_theta * cos_phi, sin_theta * sin_phi, mu],
                      [mu * cos_phi, mu * sin_phi, -sin_theta],
                      [-sin_phi, cos_phi, np.zeros_like(phi)]])
    e_cart, h_cart = np.einsum("fcp,cxp->fpx", sph, basis)
    # the analytic incident wave outside
    plane = np.exp(1j * scene.host_wavenumber * pts[outside, 2])
    e_cart[outside, 0] += plane
    h_cart[outside, 1] += admittance * plane

    return FieldGrid(positions=pts, E=e_cart, H=h_cart, enhancement=np.linalg.norm(e_cart, axis=1))


def poynting(E: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Time-averaged Poynting vector 0.5 Re(E x H*), W/m^2, over the last
    axis: the products and differences of np.cross, without its overhead."""
    h = np.conj(H)
    ex, ey, ez, hx, hy, hz = E[..., 0], E[..., 1], E[..., 2], h[..., 0], h[..., 1], h[..., 2]
    cross = np.stack([ey * hz - ez * hy, ez * hx - ex * hz, ex * hy - ey * hx], axis=-1)
    return 0.5 * np.real(cross)


def poynting_streamlines(
    scene: SphereScene,
    coeffs: MieCoefficients | None,
    seeds,
    step: float = 10e-9,
    max_steps: int = 600,
    scheme: str = "euler",
) -> list[Streamline]:
    """Advect seed points along the time-averaged energy flow.

    Default is fixed stepping along the unit Poynting direction; the
    "midpoint" scheme adds a half-step probe for convergence studies.
    A line terminates when it leaves the near-zone domain, exhausts
    max_steps, or enters the sphere and its flux decays to the absorbed
    threshold (flux sinks inside an absorbing sphere; crossing one shows
    up as a direction reversal).

    Since S goes to (Sx, -Sy, Sz) under y -> -y, the line from the seed
    (x, -y, z) is the line from (x, y, z) times (1, -1, 1), with the same
    termination.
    """
    check(step, positive, "step must be finite and > 0")
    check(max_steps, positive_integer, "max_steps must be an integer >= 1")
    if scheme not in ("euler", "midpoint"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if coeffs is None:
        coeffs = mie_coefficients(scene)
    seed_arr = np.atleast_2d(np.asarray(seeds, dtype=float))
    n_seed = seed_arr.shape[0]
    s_incident = 0.5 * np.sqrt(scene.host_epsilon) * EPS0 * C0  # unit incident amplitude
    absorb_floor = 1e-3 * s_incident
    stagnation_floor = 1e-30 * s_incident
    domain = DOMAIN_RADIUS_FACTOR * scene.radius

    points = seed_arr.copy()
    # positions after each step, one row per seed; a line's points are the
    # first count[i] rows of its column, since an ended line stops moving
    trail = [points.copy()]
    count = np.ones(n_seed, dtype=int)
    status = np.full(n_seed, Termination.MAX_STEPS, dtype=object)
    prev_dir = np.zeros((n_seed, 3))
    active = np.arange(n_seed)

    def flow_direction(pts):
        grid = near_field_grid(scene, coeffs, pts)
        s = poynting(grid.E, grid.H)
        return s, np.linalg.norm(s, axis=1)

    for _ in range(int(max_steps)):
        pts = points[active]
        radii = np.linalg.norm(pts, axis=1)
        left = radii > domain
        status[active[left]] = Termination.LEFT_DOMAIN
        active, pts, radii = active[~left], pts[~left], radii[~left]
        if active.size == 0:
            break

        s_vec, s_mag = flow_direction(pts)
        inside = radii < scene.radius
        reversed_flow = np.einsum("ij,ij->i", s_vec, prev_dir[active]) < 0.0
        absorbed = inside & ((s_mag < absorb_floor) | reversed_flow)
        status[active[absorbed]] = Termination.ABSORBED
        stagnant = ~inside & (s_mag < stagnation_floor)
        if stagnant.any():
            bad = pts[stagnant][0]
            raise ZeroPoyntingVector(f"vanishing flux at {bad}")

        keep = ~absorbed
        active, pts = active[keep], pts[keep]
        if active.size == 0:
            break
        direction = s_vec[keep] / s_mag[keep][:, None]
        if scheme == "midpoint":
            probe = pts + 0.5 * step * direction
            probe_ok = np.linalg.norm(probe, axis=1) <= domain
            if probe_ok.any():
                s2, m2 = flow_direction(probe[probe_ok])
                good = m2 > stagnation_floor
                sel = np.nonzero(probe_ok)[0][good]
                direction[sel] = s2[good] / m2[good][:, None]
        points[active] = pts + step * direction
        prev_dir[active] = direction
        count[active] += 1
        trail.append(points.copy())

    trail = np.stack(trail)
    return [
        Streamline(seed=seed_arr[i], points=trail[: count[i], i], terminated=status[i])
        for i in range(n_seed)
    ]
