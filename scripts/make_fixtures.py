"""Regenerate the packaged data fixtures.

Both CSVs are synthetic: they are produced by this package's own forward
models so that fitting and extraction pipelines have self-consistent
targets with known ground truth.  Run from the repository root:

    python3 scripts/make_fixtures.py
"""

from pathlib import Path

import numpy as np

from lsepkit.bloch import TwoLevelParams
from lsepkit.constants import vacuum_wavelength_m_to_ev
from lsepkit.film import FilmStack, RTMeasurement, rt_theoretical, write_rt_csv
from lsepkit.medium import MaterialParams, epsilon_steady, refractive_index, write_spectrum_csv

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "lsepkit" / "data"

PLANAR = MaterialParams(
    number_density=1.47e25,
    background_permittivity=1.52**2,
    two_level=TwoLevelParams(
        transition_energy=2.11,
        decay_rate=1.15e12,
        pure_dephasing=0.017,
        dipole=48.0,
    ),
)


def permittivity_target() -> None:
    energies = np.round(np.arange(1.90, 2.4001, 0.002), 6)
    spectrum = epsilon_steady(PLANAR, energies)
    path = DATA_DIR / "epsilon_extracted.csv"
    write_spectrum_csv(
        path,
        spectrum,
        comments=[
            "synthetic steady-state permittivity of a dye-doped polymer layer",
            "generated by scripts/make_fixtures.py from the packaged material model",
            "(planar parameter set: N=1.47e25 m^-3, dipole 48 D, dephasing 17 meV)",
        ],
    )
    print(f"wrote {path} ({energies.size} rows)")


def film_rt_fixture() -> None:
    wavelengths = np.round(np.arange(450e-9, 700.0001e-9, 2.5e-9), 12)
    energies = vacuum_wavelength_m_to_ev(wavelengths[::-1])
    spectrum = epsilon_steady(PLANAR, energies)
    indices = refractive_index(spectrum)[::-1]
    rows = []
    for wl, nf in zip(wavelengths, indices):
        stack = FilmStack(thickness=70e-9, film_index=complex(nf))
        rt = rt_theoretical(stack, wl)
        rows.append(RTMeasurement(wl, rt.reflectance, rt.transmittance))
    path = DATA_DIR / "film_rt.csv"
    write_rt_csv(
        path,
        rows,
        comments=[
            "synthetic normal-incidence R/T of a 70 nm dye-doped polymer film",
            "on glass (substrate index 1.52), generated by scripts/make_fixtures.py",
            "from the packaged material model (planar parameter set)",
        ],
    )
    print(f"wrote {path} ({wavelengths.size} rows)")


if __name__ == "__main__":
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    permittivity_target()
    film_rt_fixture()
