"""The library's input contract: every public constructor and function
rejects a non-finite or out-of-range number with a ValueError that names
the number, through the one helper lsepkit.check."""

import math

import numpy as np
import pytest

from lsepkit import at_least_one, check, non_negative, positive, positive_integer
from lsepkit.aggregate import AggregateChain, eigenstate, mode_dipole, orientational_average
from lsepkit.bloch import DensityMatrix, DriveField, TwoLevelParams, cycle_average, evolve_lab
from lsepkit.film import (
    NkCandidates,
    NkGrid,
    RTSpectrum,
    residual,
    rt_theoretical,
    select_physical_branch,
    thickness_rescale,
)
from lsepkit.medium import LorentzParams, MaterialParams, PermittivitySpectrum
from lsepkit.mie import (
    SphereScene,
    near_field_grid,
    poynting_streamlines,
    qabs_spectrum,
    quasistatic_polarizability,
)
from lsepkit.numerics import axis, integrate, kramers_kronig_real

NAN, INF = float("nan"), float("inf")

TWO_LEVEL = dict(transition_energy=2.11, decay_rate=1.15e12, pure_dephasing=0.017, dipole=32.0)
MATERIAL = dict(number_density=3.29e25, background_permittivity=2.3104,
                two_level=TwoLevelParams(**TWO_LEVEL))
LORENTZ = dict(eps_background=2.3104, oscillator_strength=0.25, resonance=2.11, damping=1e-3)
SCENE = dict(radius=50e-9, sphere_epsilon=2.25 + 0.1j, host_epsilon=1.0,
             wavelength_vacuum=574e-9)
CHAIN = dict(n_molecules=7, monomer_energy=2.3, coupling=0.1, monomer_dipole=10.0)
MEASURED = RTSpectrum([600e-9], [0.1], [0.8])
CANDIDATES = NkCandidates(*(np.array([v]) for v in (600e-9, 1.5, 0.1, 0.0, 70e-9)))
SPHERE = SphereScene(**SCENE)
RWA = TwoLevelParams(**TWO_LEVEL)


def _spectrum(**columns):
    return PermittivitySpectrum(**{"energies": [2.0, 2.1], "epsilon": [2.25 + 0.1j] * 2,
                                   **columns})


def _evolve(**tolerances):
    return evolve_lab(RWA, DriveField(1e5, 2.11), DensityMatrix.ground(), [0.0, 1e-15],
                      **tolerances)


# (name in the message, call with the bad value, an out-of-range value);
# a number that may take any finite value is taken out of range by -inf
CASES = [
    ("transition_energy", lambda v: TwoLevelParams(**{**TWO_LEVEL, "transition_energy": v}), 0.0),
    ("decay_rate", lambda v: TwoLevelParams(**{**TWO_LEVEL, "decay_rate": v}), -1.0),
    ("pure_dephasing", lambda v: TwoLevelParams(**{**TWO_LEVEL, "pure_dephasing": v}), -1e-3),
    ("dipole", lambda v: TwoLevelParams(**{**TWO_LEVEL, "dipole": v}), -1.0),
    ("amplitude", lambda v: DriveField(v, 2.11), -1.0),
    ("photon_energy", lambda v: DriveField(462.0, v), 0.0),
    ("period", lambda v: cycle_average(np.arange(3.0), np.ones(3, complex), v), 0.0),
    ("rtol", lambda v: _evolve(rtol=v), 0.0),
    ("atol", lambda v: _evolve(atol=v), -1e-12),
    ("omega", lambda v: integrate(np.eye(2), np.eye(2), 1.0, v, [1.0, 0.0], [0.0, 1.0],
                                  rtol=1e-10, atol=1e-12), 0.0),
    ("number_density", lambda v: MaterialParams(**{**MATERIAL, "number_density": v}), 0.0),
    ("background_permittivity",
     lambda v: MaterialParams(**{**MATERIAL, "background_permittivity": v}), 0.5),
    ("energies", lambda v: _spectrum(energies=[2.0, v]), -INF),
    ("epsilon", lambda v: _spectrum(epsilon=[2.25, complex(2.25, v)]), -INF),
    ("time", lambda v: _spectrum(time=[0.0, v]), -INF),
    ("eps_background", lambda v: LorentzParams(**{**LORENTZ, "eps_background": v}), -1.0),
    ("oscillator_strength",
     lambda v: LorentzParams(**{**LORENTZ, "oscillator_strength": v}), -1.0),
    ("resonance", lambda v: LorentzParams(**{**LORENTZ, "resonance": v}), -1.0),
    ("damping", lambda v: LorentzParams(**{**LORENTZ, "damping": v}), 0.0),
    ("n_min", lambda v: NkGrid(n_min=v), 0.0),
    ("n_max", lambda v: NkGrid(n_max=v), -INF),
    ("n_step", lambda v: NkGrid(n_step=v), 0.0),
    ("kappa_min", lambda v: NkGrid(kappa_min=v), -0.5),
    ("kappa_max", lambda v: NkGrid(kappa_max=v), -INF),
    ("kappa_step", lambda v: NkGrid(kappa_step=v), -0.005),
    ("wavelength", lambda v: RTSpectrum([v], [0.1], [0.8]), 0.0),
    ("wavelength", lambda v: rt_theoretical(1.5 + 0j, 70e-9, v), -600e-9),
    ("film index", lambda v: rt_theoretical(complex(1.5, v), 70e-9, 600e-9), -0.1),
    ("thickness", lambda v: rt_theoretical(1.5 + 0j, v, 600e-9), 0.0),
    ("substrate_index", lambda v: rt_theoretical(1.5 + 0j, 70e-9, 600e-9, substrate_index=v), 0.5),
    ("ambient_index", lambda v: rt_theoretical(1.5 + 0j, 70e-9, 600e-9, ambient_index=v), 0.5),
    ("n must", lambda v: residual(v, 0.1, 70e-9, MEASURED), 0.0),
    ("kappa must", lambda v: residual(1.5, v, 70e-9, MEASURED), -0.1),
    ("thickness", lambda v: residual(1.5, 0.1, v, MEASURED), -70e-9),
    ("thickness_used", lambda v: thickness_rescale(0.1, v, 70e-9), 0.0),
    ("thickness_reference", lambda v: thickness_rescale(0.1, 70e-9, v), 0.0),
    ("ambiguity_threshold", lambda v: select_physical_branch(CANDIDATES, v), -0.05),
    ("radius", lambda v: SphereScene(**{**SCENE, "radius": v}), 0.0),
    ("sphere_epsilon", lambda v: SphereScene(**{**SCENE, "sphere_epsilon": complex(2.25, v)}),
     -0.1),
    ("host_epsilon", lambda v: SphereScene(**{**SCENE, "host_epsilon": v}), 0.5),
    ("wavelength", lambda v: SphereScene(**{**SCENE, "wavelength_vacuum": v}), 0.0),
    ("radius", lambda v: qabs_spectrum(_spectrum(), v), 0.0),
    ("host_epsilon", lambda v: qabs_spectrum(_spectrum(), 50e-9, v), 0.5),
    ("energ", lambda v: qabs_spectrum(_spectrum(energies=[v, 2.1]), 50e-9), 0.0),
    ("radius", lambda v: quasistatic_polarizability(2.25 + 0.1j, 1.0, v), -50e-9),
    ("host_epsilon", lambda v: quasistatic_polarizability(2.25 + 0.1j, v, 50e-9), 0.0),
    ("sphere_epsilon", lambda v: quasistatic_polarizability(complex(v, 0.1), 1.0, 50e-9), -INF),
    ("points", lambda v: near_field_grid(SPHERE, None, [[0.0, 0.0, v]]), -INF),
    ("step", lambda v: poynting_streamlines(SPHERE, None, [[0.0, 0.0, -200e-9]], step=v), 0.0),
    ("step", lambda v: axis(0.0, 1.0, v), -1.0),
    ("omega_grid", lambda v: kramers_kronig_real(np.r_[1.0:17.0, v], np.zeros(17)), -INF),
    ("imag_part", lambda v: kramers_kronig_real(np.arange(1.0, 18.0), np.r_[np.zeros(16), v]),
     -INF),
    ("n_molecules", lambda v: AggregateChain(**{**CHAIN, "n_molecules": v}), 0),
    ("monomer_energy", lambda v: AggregateChain(**{**CHAIN, "monomer_energy": v}), -INF),
    ("coupling", lambda v: AggregateChain(**{**CHAIN, "coupling": v}), -INF),
    ("monomer_dipole", lambda v: AggregateChain(**{**CHAIN, "monomer_dipole": v}), -1.0),
    ("dipole", lambda v: orientational_average(v, 3), -1.0),
    ("lo must", lambda v: axis(v, 1.0, 0.1), -INF),
    ("hi must", lambda v: axis(0.0, v, 0.1), -INF),
    ("origin", lambda v: axis(0.0, 1.0, 0.1, origin=v), -INF),
    ("asymptote", lambda v: kramers_kronig_real(np.arange(1.0, 18.0), np.zeros(17), v), -INF),
    ("max_steps", lambda v: poynting_streamlines(SPHERE, None, [[0.0, 0.0, -200e-9]],
                                                 max_steps=v), 0),
    ("max_steps", lambda v: poynting_streamlines(SPHERE, None, [[0.0, 0.0, -200e-9]],
                                                 max_steps=v), 2.5),
    ("n_molecules", lambda v: AggregateChain(**{**CHAIN, "n_molecules": v}), 2.5),
    ("mode must", lambda v: mode_dipole(AggregateChain(**CHAIN), v), 1.5),
    ("mode must", lambda v: eigenstate(AggregateChain(**CHAIN), v), 1.5),
    ("rho must", lambda v: DensityMatrix(1.0, 0.0, 0.0, v), -INF),
    ("y0", lambda v: integrate(np.eye(2), np.eye(2), 1.0, 1.0, [1.0, v], [0.0, 1.0],
                               rtol=1e-10, atol=1e-12), -INF),
]


@pytest.mark.parametrize("which", ["nan", "inf", "out of range"])
@pytest.mark.parametrize("name, call, out_of_range", CASES, ids=[
    f"{i}-{case[0]}" for i, case in enumerate(CASES)])
def test_bad_number_is_named(name, call, out_of_range, which):
    bad = {"nan": NAN, "inf": INF, "out of range": out_of_range}[which]
    with pytest.raises(ValueError, match=name):
        call(bad)


class TestCheck:
    def test_names_the_first_bad_value(self):
        with pytest.raises(ValueError, match=r"^x must be finite and > 0, got nan$"):
            check([1.0, NAN, -1.0], positive, "x must be finite and > 0")

    def test_passing_values_return_none(self):
        assert check(2.0, positive, "x") is None
        assert check(np.array([0.0, 1.0]), non_negative, "x") is None
        assert check([], positive, "x") is None

    @pytest.mark.parametrize("predicate, edge", [
        (positive, 0.0), (non_negative, -1e-300), (at_least_one, math.nextafter(1.0, 0.0)),
        (positive_integer, math.nextafter(2.0, 0.0))])
    def test_predicates_reject_the_edge_and_non_finite(self, predicate, edge):
        values = np.array([edge, NAN, INF, -INF])
        assert not predicate(values).any()
        for value in values:
            assert not predicate(float(value))
