import importlib.util
from pathlib import Path

import pytest
from hypothesis import settings

# A longer search for the property tests, selected with
# --hypothesis-profile=deep (the CI runs the tile search's, the grid
# axes', the lockstep refine's and the batched forward model's, the Mie
# layer's, the near-field mirror's, the table rendering's, the Bloch
# layer's and the medium layer's properties so).
settings.register_profile("deep", max_examples=1500, deadline=None)


@pytest.fixture(scope="session")
def make_fixtures():
    """scripts/make_fixtures.py, the generator of the packaged fixtures."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    from _acceptance_log import RESULTS

    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, label, ok, detail in sorted(RESULTS):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {criterion:>2} {status}  {label}: {detail}")
