"""Generate the packaged data fixtures into a directory.

Both CSVs are synthetic: they are produced by this package's own forward
models so that fitting and extraction pipelines have self-consistent
targets with known ground truth.  Run from the repository root:

    python3 scripts/make_fixtures.py OUT_DIR

The committed files in src/lsepkit/data are not regenerated from it:
the perfbench reference outputs derive from them.  Run today, the script
writes 102 of 251 permittivity rows and 14 of 101 R/T rows differently in
their last digits, at most 3.1e-15 relative; tests/test_fixtures.py pins
that drift below 1e-14.
"""

import sys
from pathlib import Path

import numpy as np

from lsepkit.bloch import TwoLevelParams
from lsepkit.constants import vacuum_wavelength_m_to_ev
from lsepkit.film import RTSpectrum, rt_theoretical, write_rt_csv
from lsepkit.medium import MaterialParams, epsilon_steady, refractive_index, write_spectrum_csv

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


def permittivity_target(out_dir: Path) -> Path:
    energies = np.round(np.arange(1.90, 2.4001, 0.002), 6)
    spectrum = epsilon_steady(PLANAR, energies)
    path = out_dir / "epsilon_extracted.csv"
    write_spectrum_csv(
        path,
        spectrum,
        comments=[
            "synthetic steady-state permittivity of a dye-doped polymer layer",
            "generated by scripts/make_fixtures.py from the packaged material model",
            "(planar parameter set: N=1.47e25 m^-3, dipole 48 D, dephasing 17 meV)",
        ],
    )
    return path


def film_rt_fixture(out_dir: Path) -> Path:
    wavelengths = np.round(np.arange(450e-9, 700.0001e-9, 2.5e-9), 12)
    energies = vacuum_wavelength_m_to_ev(wavelengths[::-1])
    spectrum = epsilon_steady(PLANAR, energies)
    indices = refractive_index(spectrum)[::-1]
    reflectance, transmittance = rt_theoretical(indices, 70e-9, wavelengths)
    path = out_dir / "film_rt.csv"
    write_rt_csv(
        path,
        RTSpectrum(wavelengths, reflectance, transmittance),
        comments=[
            "synthetic normal-incidence R/T of a 70 nm dye-doped polymer film",
            "on glass (substrate index 1.52), generated by scripts/make_fixtures.py",
            "from the packaged material model (planar parameter set)",
        ],
    )
    return path


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 scripts/make_fixtures.py OUT_DIR")
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    for make in (permittivity_target, film_rt_fixture):
        print(f"wrote {make(out)}")
