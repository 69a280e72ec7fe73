"""Physical constants and unit conversions used across the package.

Internally all dynamics run in SI (seconds, rad/s, V/m, C·m).  Public
interfaces accept the units spectroscopists actually use: photon and
transition energies in eV, dipole moments in debye, pure dephasing as an
energy (the quantity usually quoted for molecular aggregates).
"""

import math

# CODATA 2022 values, as shipped by scipy.constants
HBAR = 1.0545718176461565e-34           # J s (h / 2 pi, h exact)
EPS0 = 8.8541878188e-12                 # F/m
C0 = 299792458.0                        # m/s (exact)
EV = 1.602176634e-19                    # J per eV (exact)

# 1 debye = 1e-21 / c  C m (exact by definition of the unit)
DEBYE = 1e-21 / C0

# angular frequency per eV of photon energy
EV_TO_RADS = EV / HBAR


def ev_to_rads(energy_ev):
    """Photon energy in eV -> angular frequency in rad/s."""
    return energy_ev * EV_TO_RADS


def rads_to_ev(omega):
    """Angular frequency in rad/s -> photon energy in eV."""
    return omega / EV_TO_RADS


def ev_to_vacuum_wavelength_m(energy_ev):
    """Photon energy in eV -> vacuum wavelength in m."""
    return 2.0 * math.pi * C0 / ev_to_rads(energy_ev)


def vacuum_wavelength_m_to_ev(wavelength_m):
    """Vacuum wavelength in m -> photon energy in eV."""
    return rads_to_ev(2.0 * math.pi * C0 / wavelength_m)


def power_to_field(power_w, spot_diameter_m):
    """Field amplitude (V/m) of a beam of given power over a circular spot.

    Uses the rms-field intensity relation I = c eps0 E^2 with
    I = P / (pi (d/2)^2); 1 mW over a 1.5 mm spot gives 462 V/m.
    """
    area = math.pi * (0.5 * spot_diameter_m) ** 2
    intensity = power_w / area
    return (intensity / (C0 * EPS0)) ** 0.5
