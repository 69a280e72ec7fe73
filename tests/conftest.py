from hypothesis import settings

# A longer search for the property tests, selected with
# --hypothesis-profile=deep (the CI runs the tile search's, the Mie
# layer's and the Bloch layer's properties so).
settings.register_profile("deep", max_examples=1500, deadline=None)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    from _acceptance_log import RESULTS

    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, label, ok, detail in sorted(RESULTS):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {criterion:>2} {status}  {label}: {detail}")
