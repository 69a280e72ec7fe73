"""lsepkit: optics of localized surface exciton-polaritons.

The package models the permittivity of a dye-doped polymer as a driven
two-level ensemble (steady state and transient), feeds it through Mie
theory for a nanosphere (efficiencies, near fields, energy-flow lines),
and extracts thin-film optical constants from reflection/transmission
data with a Kramers-Kronig consistency closure.
"""

import numpy as np

__version__ = "0.1.0"


class NumericalFailure(Exception):
    """A computation on valid input failed (exit code 3 at the command
    line).  Input errors are ValueError (exit code 2)."""


def check(values, ok, requirement: str) -> None:
    """Raises ValueError("<requirement>, got <value>") for the first of
    ``values`` (a number or an array) where the elementwise predicate
    ``ok`` is false.  A number that passes builds no array."""
    if isinstance(values, (float, int)) and ok(values):
        return
    values = np.asarray(values)
    bad = values[~ok(values)]
    if bad.size:
        raise ValueError(f"{requirement}, got {bad[0].item()}")


def positive(values):
    """Finite and > 0: false for NaN and +-inf."""
    return (0.0 < values) & (values < np.inf)


def non_negative(values):
    """Finite and >= 0: false for NaN and +-inf."""
    return (0.0 <= values) & (values < np.inf)


def at_least_one(values):
    """Finite and >= 1: false for NaN and +-inf."""
    return (1.0 <= values) & (values < np.inf)
