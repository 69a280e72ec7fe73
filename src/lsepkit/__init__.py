"""lsepkit: optics of localized surface exciton-polaritons.

The package models the permittivity of a dye-doped polymer as a driven
two-level ensemble (steady state and transient), feeds it through Mie
theory for a nanosphere (efficiencies, near fields, energy-flow lines),
and extracts thin-film optical constants from reflection/transmission
data with a Kramers-Kronig consistency closure.
"""

__version__ = "0.1.0"


class NumericalFailure(Exception):
    """A computation on valid input failed (exit code 3 at the command
    line).  Input errors are ValueError (exit code 2)."""
