"""Shared pytest hooks: surface the acceptance-criteria result lines, and fail any
test that leaves the resample producer's helper thread running.

The acceptance tests register one "criterion N: PASS/FAIL - ..." line each;
printing from inside a test is swallowed by capture unless the test fails, so
the lines are replayed in the terminal summary instead.
"""

import threading

import pytest

from subgoss.policies import PRODUCER_THREAD

acceptance_lines: list[str] = []


def producer_threads() -> list:
    return [t for t in threading.enumerate() if t.name == PRODUCER_THREAD]


@pytest.fixture(autouse=True)
def no_producer_left_running():
    yield
    left = producer_threads()
    assert not left, f"{len(left)} {PRODUCER_THREAD!r} thread(s) still alive after the test"


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
