"""Near-zone electromagnetic fields and energy-flow streamlines.

Exterior points carry the analytic plane wave plus the outgoing partial
waves, whose radial functions h_n = xi_n / x of the real argument come
from the upward recurrence that the Mie coefficients use; interior points
use the internal expansion, whose j_n of a complex argument take the
downward log-derivative recurrence of the Mie coefficients.  E and H
share every radial and angular function of these vector waves and differ
only in their coefficients (Bohren & Huffman 1983, sec. 4.4), so each
spherical component of both fields is one matrix product over orders,
for unit incident amplitude.  One evaluator per scene holds those
coefficient blocks and decides the undefined exact center;
near_field_grid builds it per call, the streamline tracer once for all
of its steps, which advance every seed in lockstep.

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
    _riccati_xi,
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


def _norms(v: np.ndarray) -> np.ndarray:
    """Row lengths of a (P, 3) array, bit for bit np.linalg.norm(v, axis=1)."""
    return np.sqrt((v * v).sum(axis=1))


def _checked_points(points) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be (P, 3), got {pts.shape}")
    check(pts, np.isfinite, "points must be finite")
    return pts


def _scene_field(scene: SphereScene, coeffs: MieCoefficients):
    """The field of one scene for unit incident amplitude, as a function of
    unchecked (P, 3) points and their radii to (positions, E, H); each
    region's amplitude-weighted (2, n_max) coefficient blocks are built once."""
    n_max = coeffs.n_max
    ns = np.arange(1, n_max + 1)
    en = (1j**ns) * (2.0 * ns + 1.0) / (ns * (ns + 1.0))
    k, m_rel = scene.host_wavenumber, scene.relative_index
    admittance = np.sqrt(scene.host_epsilon) * EPS0 * C0  # k / (omega mu0)
    a, b, c, d = coeffs.a, coeffs.b, coeffs.c, coeffs.d

    def blocks(wave_n, wave_m, h_factor):
        amp = en * np.array([[1.0], [h_factor]])
        nw = amp * wave_n
        return nw * ns * (ns + 1.0), nw, amp * wave_m

    # (wavenumber, radial functions, blocks) outside, then inside
    regions = ((k, lambda rho: _riccati_xi(rho, n_max) / rho,
                blocks([1j * a, 1j * b], [-b, -a], admittance)),
               (m_rel * k, lambda rho: _spherical_jn(rho, n_max),
                blocks([-1j * d, 1j * c], [c, -d], -m_rel * admittance)))

    def evaluate(pts: np.ndarray, r: np.ndarray):
        centered = r < CENTER_OFFSET
        if centered.any():
            pts = np.where(centered[:, None], [0.0, 0.0, CENTER_OFFSET], pts)
            r = _norms(pts)
        theta = np.arccos(np.clip(pts[:, 2] / r, -1.0, 1.0))
        phi = np.arctan2(pts[:, 1], pts[:, 0])
        mu, sin_theta = np.cos(theta), np.sin(theta)
        cos_phi, sin_phi = np.cos(phi), np.sin(phi)
        pi_n, tau_n = _angular_functions(mu, n_max)
        # (E, H) by (r, theta, phi) component by point, before the phi factors
        sph = np.empty((2, 3, pts.shape[0]), dtype=complex)
        # a region that holds every point is a slice and one that holds none
        # is None: a batch on one side of the surface takes no mask indexing
        inside = r < scene.radius
        outside, inside = ((slice(None), None) if not inside.any() else
                           (None, slice(None)) if inside.all() else (~inside, inside))
        for mask, (k_region, radial, (nw_r, nw, mw)) in zip((outside, inside), regions):
            if mask is None:
                continue
            rho = k_region * r[mask]
            rad_n = radial(rho)
            pi_m, tau_m = pi_n[1:, mask], tau_n[1:, mask]
            rad = rad_n[1:]
            drad = rad_n[:-1] - ns[:, None] * rad / rho  # (rho z_n)' / rho
            sph[:, 0, mask] = nw_r @ (sin_theta[mask] * pi_m * rad / rho)
            sph[:, 1, mask] = nw @ (tau_m * drad) + mw @ (pi_m * rad)
            sph[:, 2, mask] = nw @ (pi_m * drad) + mw @ (tau_m * rad)

        # x-polarized incidence: E goes as (cos, cos, -sin) phi and H as
        # (sin, sin, cos) phi; then the spherical basis rotates to Cartesian
        sph *= np.array([[cos_phi, cos_phi, -sin_phi], [sin_phi, sin_phi, cos_phi]])
        basis = np.array([[sin_theta * cos_phi, sin_theta * sin_phi, mu],
                          [mu * cos_phi, mu * sin_phi, -sin_theta],
                          [-sin_phi, cos_phi, np.zeros_like(phi)]])
        e_cart, h_cart = np.einsum("fcp,cxp->fpx", sph, basis)
        if outside is not None:  # the analytic incident wave
            plane = np.exp(1j * k * pts[outside, 2])
            e_cart[outside, 0] += plane
            h_cart[outside, 1] += admittance * plane
        return pts, e_cart, h_cart

    return evaluate


def near_field_grid(scene: SphereScene, coeffs: MieCoefficients | None, points) -> FieldGrid:
    """Total E and H at a batch of points for x-polarized +z incidence of
    unit amplitude.

    Points are (P, 3) Cartesian meters centered on the sphere; ``coeffs``
    None solves the scene.  The expansion is undefined at the exact center,
    where the field is smooth, so a point within CENTER_OFFSET of it is
    evaluated (and returned in ``positions``) at (0, 0, CENTER_OFFSET).
    Raises EvaluationTooFarOut past 10 radii and ValueError at a
    non-finite point.  Each call builds the scene's evaluator anew.
    """
    if coeffs is None:
        coeffs = mie_coefficients(scene)
    pts = _checked_points(points)
    r = _norms(pts)
    if np.any(r > DOMAIN_RADIUS_FACTOR * scene.radius):
        raise EvaluationTooFarOut(
            f"point at {r.max():.3e} m exceeds {DOMAIN_RADIUS_FACTOR} radii"
        )
    pts, e_cart, h_cart = _scene_field(scene, coeffs)(pts, r)
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
    termination.  The scene's evaluator is built once for every step; a
    non-finite seed raises ValueError.
    """
    check(step, positive, "step must be finite and > 0")
    check(max_steps, positive_integer, "max_steps must be an integer >= 1")
    if scheme not in ("euler", "midpoint"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if coeffs is None:
        coeffs = mie_coefficients(scene)
    seed_arr = _checked_points(seeds)
    n_seed = seed_arr.shape[0]
    s_incident = 0.5 * np.sqrt(scene.host_epsilon) * EPS0 * C0  # unit incident amplitude
    absorb_floor = 1e-3 * s_incident
    stagnation_floor = 1e-30 * s_incident
    domain = DOMAIN_RADIUS_FACTOR * scene.radius
    field = _scene_field(scene, coeffs)

    def flow(pts, r):
        s = poynting(*field(pts, r)[1:])
        return s, _norms(s)

    # positions after each step, one row per seed; a line's points are the
    # first count[i] rows of its column, since an ended line stops moving
    points = seed_arr.copy()
    trail = [points.copy()]
    count = np.ones(n_seed, dtype=int)
    ends = list(Termination)  # status codes index it
    status = np.full(n_seed, ends.index(Termination.MAX_STEPS))
    active, pts, prev_dir = np.arange(n_seed), points.copy(), np.zeros((n_seed, 3))  # running lines

    for _ in range(int(max_steps)):
        radii = _norms(pts)
        left = radii > domain
        if left.any():
            status[active[left]] = ends.index(Termination.LEFT_DOMAIN)
            keep = ~left
            active, pts, radii, prev_dir = active[keep], pts[keep], radii[keep], prev_dir[keep]
            if active.size == 0:
                break

        s_vec, s_mag = flow(pts, radii)
        inside = radii < scene.radius
        reversed_flow = np.einsum("ij,ij->i", s_vec, prev_dir) < 0.0
        absorbed = inside & ((s_mag < absorb_floor) | reversed_flow)
        stagnant = ~inside & (s_mag < stagnation_floor)
        if stagnant.any():
            raise ZeroPoyntingVector(f"vanishing flux at {pts[stagnant][0]}")

        direction = s_vec / s_mag[:, None]
        if absorbed.any():
            status[active[absorbed]] = ends.index(Termination.ABSORBED)
            keep = ~absorbed
            active, pts, direction = active[keep], pts[keep], direction[keep]
            if active.size == 0:
                break
        if scheme == "midpoint":
            probe = pts + 0.5 * step * direction
            probe_r = _norms(probe)
            probe_ok = probe_r <= domain
            if probe_ok.any():
                s2, m2 = flow(probe[probe_ok], probe_r[probe_ok])
                good = m2 > stagnation_floor
                sel = np.nonzero(probe_ok)[0][good]
                direction[sel] = s2[good] / m2[good][:, None]
        pts = pts + step * direction
        points[active] = pts
        prev_dir = direction
        count[active] += 1
        trail.append(points.copy())

    trail = np.stack(trail)
    return [
        Streamline(seed=seed_arr[i], points=trail[: count[i], i], terminated=ends[status[i]])
        for i in range(n_seed)
    ]
