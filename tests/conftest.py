"""Suite-wide setup: the hypothesis profile and the acceptance summary.

Verdict lines are printed inside passing tests, so default capture hides
them; the hook below replays any recorded lines after the run so a plain
`pytest -v` shows one line per criterion.
"""

from hypothesis import settings

acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.line(line)


# property tests replay the same examples on every run and machine, and the
# timing-based deadline would make them depend on load
settings.register_profile("chargelab", derandomize=True, deadline=None)
settings.load_profile("chargelab")
