"""Near-zone electromagnetic fields and energy-flow streamlines.

Exterior points carry the analytic plane wave plus the outgoing partial
waves; interior points use the internal expansion.  All evaluators are
vectorized over point batches so the streamline tracer can advance every
seed in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .. import NumericalFailure
from ..constants import C0, EPS0
from .scatter import (
    MieCoefficients,
    SphereScene,
    _log_derivatives,
    _riccati_chi,
    mie_coefficients,
)

DOMAIN_RADIUS_FACTOR = 10.0
ORIGIN_FLOOR = 1e-15


class EvaluationTooFarOut(ValueError):
    """Point beyond the validated near-zone domain (10 sphere radii): an
    input error."""


class ZeroPoyntingVector(NumericalFailure):
    """Energy flow vanished at a streamline sample outside the sphere."""


@dataclass(frozen=True)
class FieldSample:
    """Complex E (V/m) and H (A/m) at one point, plus |E|/E0."""

    position: np.ndarray
    E: np.ndarray
    H: np.ndarray
    enhancement: float


@dataclass(frozen=True)
class FieldGrid:
    """Vectorized field samples: arrays indexed by point."""

    positions: np.ndarray
    E: np.ndarray
    H: np.ndarray
    enhancement: np.ndarray

    def sample(self, i: int) -> FieldSample:
        return FieldSample(
            position=self.positions[i],
            E=self.E[i],
            H=self.H[i],
            enhancement=float(self.enhancement[i]),
        )


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


def near_field_grid(
    scene: SphereScene,
    coeffs: MieCoefficients | None = None,
    points=None,
    e0: float = 1.0,
) -> FieldGrid:
    """Total E and H at a batch of points for x-polarized +z incidence.

    Points are (P, 3) Cartesian meters centered on the sphere.  Raises
    EvaluationTooFarOut past 10 radii and ValueError at the origin.
    """
    if coeffs is None:
        coeffs = mie_coefficients(scene)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be (P, 3), got {pts.shape}")
    r = np.linalg.norm(pts, axis=1)
    if np.any(r < ORIGIN_FLOOR):
        raise ValueError("field evaluation at the sphere center is undefined")
    if np.any(r > DOMAIN_RADIUS_FACTOR * scene.radius):
        raise EvaluationTooFarOut(
            f"point at {r.max():.3e} m exceeds {DOMAIN_RADIUS_FACTOR} radii"
        )

    n_max = coeffs.n_max
    ns = np.arange(1, n_max + 1)
    # partial-wave amplitudes i^n (2n+1)/(n(n+1)) times the field scale
    en = e0 * (1j**ns) * (2.0 * ns + 1.0) / (ns * (ns + 1.0))

    theta = np.arccos(np.clip(pts[:, 2] / r, -1.0, 1.0))
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    mu = np.cos(theta)
    pi_n, tau_n = _angular_functions(mu, n_max)
    sin_theta = np.sin(theta)
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)

    admittance = np.sqrt(scene.host_epsilon) * EPS0 * C0  # k / (omega mu0)
    inside = r < scene.radius
    e_sph = np.zeros((pts.shape[0], 3), dtype=complex)
    h_sph = np.zeros((pts.shape[0], 3), dtype=complex)
    e_cart = np.zeros((pts.shape[0], 3), dtype=complex)
    h_cart = np.zeros((pts.shape[0], 3), dtype=complex)

    def accumulate(mask, rho, radial, coeff_pairs, h_factor):
        """Sum the two partial-wave families over orders for one region."""
        (ce, cn), (ch, chn) = coeff_pairs
        w_e = en[:, None] * np.ones(mask.sum())[None, :]
        pi_m, tau_m = pi_n[1:, mask], tau_n[1:, mask]
        sin_m = sin_theta[mask]
        rad = radial[1:]
        drad = radial[:-1] - ns[:, None] * radial[1:] / rho[None, :]
        rad_over = radial[1:] / rho[None, :]
        nn1 = (ns * (ns + 1.0))[:, None]
        er = np.sum(w_e * cn[:, None] * nn1 * sin_m[None, :] * pi_m * rad_over, axis=0)
        et = np.sum(w_e * (cn[:, None] * tau_m * drad + ce[:, None] * pi_m * rad), axis=0)
        ep = np.sum(w_e * (cn[:, None] * pi_m * drad + ce[:, None] * tau_m * rad), axis=0)
        hr = np.sum(w_e * chn[:, None] * nn1 * sin_m[None, :] * pi_m * rad_over, axis=0)
        ht = np.sum(w_e * (chn[:, None] * tau_m * drad + ch[:, None] * pi_m * rad), axis=0)
        hp = np.sum(w_e * (chn[:, None] * pi_m * drad + ch[:, None] * tau_m * rad), axis=0)
        e_sph[mask, 0] = cos_phi[mask] * er
        e_sph[mask, 1] = cos_phi[mask] * et
        e_sph[mask, 2] = -sin_phi[mask] * ep
        h_sph[mask, 0] = h_factor * sin_phi[mask] * hr
        h_sph[mask, 1] = h_factor * sin_phi[mask] * ht
        h_sph[mask, 2] = h_factor * cos_phi[mask] * hp

    if np.any(~inside):
        rho = scene.host_wavenumber * r[~inside]
        # h_n = j_n + i y_n with y_n = -chi_n / rho
        hn = _spherical_jn(rho, n_max) - 1j * _riccati_chi(rho, n_max) / rho
        pairs = ((-coeffs.b, 1j * coeffs.a), (-coeffs.a, 1j * coeffs.b))
        accumulate(~inside, rho, hn, pairs, admittance)

    if np.any(inside):
        m_rel = scene.relative_index
        rho = m_rel * scene.host_wavenumber * r[inside]
        pairs = ((coeffs.c, -1j * coeffs.d), (-coeffs.d, 1j * coeffs.c))
        accumulate(inside, rho, _spherical_jn(rho, n_max), pairs, -m_rel * admittance)

    # spherical to Cartesian basis, then the analytic incident wave outside
    st, ct = sin_theta, mu
    cp, sp = cos_phi, sin_phi
    r_hat = np.stack([st * cp, st * sp, ct], axis=1)
    t_hat = np.stack([ct * cp, ct * sp, -st], axis=1)
    p_hat = np.stack([-sp, cp, np.zeros_like(sp)], axis=1)
    for i_comp, basis in enumerate((r_hat, t_hat, p_hat)):
        e_cart += e_sph[:, i_comp : i_comp + 1] * basis
        h_cart += h_sph[:, i_comp : i_comp + 1] * basis
    plane = e0 * np.exp(1j * scene.host_wavenumber * pts[:, 2])
    e_cart[~inside, 0] += plane[~inside]
    h_cart[~inside, 1] += admittance * plane[~inside]

    enhancement = np.linalg.norm(e_cart, axis=1) / e0
    return FieldGrid(positions=pts, E=e_cart, H=h_cart, enhancement=enhancement)


def near_field(scene: SphereScene, coeffs: MieCoefficients | None, point, e0: float = 1.0) -> FieldSample:
    """Single-point convenience wrapper around near_field_grid."""
    return near_field_grid(scene, coeffs, np.asarray(point, dtype=float)[None, :], e0).sample(0)


def poynting(E: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Time-averaged Poynting vector 0.5 Re(E x H*), W/m^2."""
    return 0.5 * np.real(np.cross(E, np.conj(H)))


def poynting_streamlines(
    scene: SphereScene,
    coeffs: MieCoefficients | None = None,
    seeds=None,
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
    """
    if step <= 0.0:
        raise ValueError(f"step must be > 0, got {step}")
    if scheme not in ("euler", "midpoint"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if coeffs is None:
        coeffs = mie_coefficients(scene)
    seed_arr = np.atleast_2d(np.asarray(seeds, dtype=float))
    n_seed = seed_arr.shape[0]
    s_incident = 0.5 * np.sqrt(scene.host_epsilon) * EPS0 * C0  # for e0 = 1
    absorb_floor = 1e-3 * s_incident
    stagnation_floor = 1e-30 * s_incident
    domain = DOMAIN_RADIUS_FACTOR * scene.radius

    paths = [[seed_arr[i].copy()] for i in range(n_seed)]
    status: list[Termination | None] = [None] * n_seed
    prev_dir = np.zeros((n_seed, 3))
    active = np.ones(n_seed, dtype=bool)

    def flow_direction(pts):
        # dodge the (undefined) exact center; the field is smooth there
        pts = np.where(
            np.linalg.norm(pts, axis=1)[:, None] < 1e-12,
            pts + np.array([0.0, 0.0, 1e-12]),
            pts,
        )
        grid = near_field_grid(scene, coeffs, pts)
        s = poynting(grid.E, grid.H)
        return s, np.linalg.norm(s, axis=1)

    for _ in range(max_steps):
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        pts = np.array([paths[i][-1] for i in idx])
        radii = np.linalg.norm(pts, axis=1)
        left = radii > domain
        for i in idx[left]:
            status[i] = Termination.LEFT_DOMAIN
            active[i] = False
        if not (~left).any():
            continue
        idx = idx[~left]
        pts = pts[~left]
        radii = radii[~left]

        s_vec, s_mag = flow_direction(pts)
        inside = radii < scene.radius
        reversed_flow = np.einsum("ij,ij->i", s_vec, prev_dir[idx]) < 0.0
        absorbed = inside & ((s_mag < absorb_floor) | reversed_flow)
        for i in idx[absorbed]:
            status[i] = Termination.ABSORBED
            active[i] = False
        stagnant = ~inside & (s_mag < stagnation_floor)
        if stagnant.any():
            bad = pts[stagnant][0]
            raise ZeroPoyntingVector(f"vanishing flux at {bad}")

        keep = ~absorbed
        idx = idx[keep]
        if idx.size == 0:
            continue
        pts = pts[keep]
        direction = s_vec[keep] / s_mag[keep][:, None]
        if scheme == "midpoint":
            probe = pts + 0.5 * step * direction
            probe_ok = np.linalg.norm(probe, axis=1) <= domain
            if probe_ok.any():
                s2, m2 = flow_direction(probe[probe_ok])
                good = m2 > stagnation_floor
                sel = np.nonzero(probe_ok)[0][good]
                direction[sel] = s2[good] / m2[good][:, None]
        new_pts = pts + step * direction
        prev_dir[idx] = direction
        for j, i in enumerate(idx):
            paths[i].append(new_pts[j])

    return [
        Streamline(
            seed=seed_arr[i],
            points=np.array(paths[i]),
            terminated=status[i] if status[i] is not None else Termination.MAX_STEPS,
        )
        for i in range(n_seed)
    ]
