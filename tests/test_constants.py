"""The physical constants are literals; scipy.constants is their oracle."""

import math

import pytest
from scipy import constants as codata

from lsepkit import constants


@pytest.mark.parametrize(
    "name, reference",
    [
        ("HBAR", codata.hbar),
        ("EPS0", codata.epsilon_0),
        ("C0", codata.c),
        ("EV", codata.e),
        ("DEBYE", 1e-21 / codata.c),
    ],
)
def test_literal_equals_codata(name, reference):
    assert getattr(constants, name) == reference


def test_pi_is_scipys():
    assert math.pi == codata.pi
