"""Prints the acceptance verdict table after the test run, and provides
a call-counting denoiser wrapper."""

import sys

import numpy as np
import pytest


class CountingDenoiser:
    """Delegates to a denoiser and records (t, rows) of every epsilon_hat
    call, for itself and every denoiser taken from it."""

    def __init__(self, inner, calls=None):
        self.inner, self.dim = inner, inner.dim
        self.calls = [] if calls is None else calls

    def take(self, rows):
        return CountingDenoiser(self.inner.take(rows), self.calls)

    def epsilon_hat(self, x, t):
        self.calls.append((t, len(np.atleast_2d(x))))
        return self.inner.epsilon_hat(x, t)


@pytest.fixture(scope="session")
def counting():
    return CountingDenoiser


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    verdicts = getattr(mod, "VERDICTS", None) if mod else None
    if not verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(verdicts):
        ok, detail = verdicts[n]
        terminalreporter.write_line(
            f"[criterion {n}] {'PASS' if ok else 'FAIL'}  {detail}")
