"""The fixture generator against the packaged fixtures it once wrote.

The packaged files are not regenerated (the perfbench references derive
from them), so this pins how far the generator has drifted from them.
"""

from importlib.resources import files

import numpy as np
import pytest

from lsepkit import table
from lsepkit.film import RT_HEADER
from lsepkit.medium import SPECTRUM_HEADER


def comments(path):
    with open(path, encoding="utf-8") as handle:
        return [line for line in handle if line.startswith("#")]


@pytest.mark.parametrize(
    "make, header",
    [("permittivity_target", SPECTRUM_HEADER), ("film_rt_fixture", RT_HEADER)],
)
def test_generator_reproduces_the_packaged_fixture(make_fixtures, tmp_path, make, header):
    generated = getattr(make_fixtures, make)(tmp_path)
    packaged = files("lsepkit") / "data" / generated.name
    assert comments(generated) == comments(packaged)
    values, _ = table.read(generated, header)
    expected, _ = table.read(packaged, header)
    assert values.shape == expected.shape
    np.testing.assert_allclose(values, expected, rtol=1e-14, atol=0.0)
