"""Prints the acceptance verdict table after the test run, and provides
a call-counting denoiser wrapper and a CSV reader for emitted files."""

import csv
import sys

import numpy as np
import pytest

from ltc_accel.errors import NumericError
from ltc_accel.metrics import SCHEMAS


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


def read_csv(path: str, schema: str | None = None):
    """Parse a CSV back; header must match its schema, cells must be numeric."""
    with open(path, "r", encoding="ascii", newline="") as f:
        reader = csv.reader(f)
        try:
            header = tuple(next(reader))
        except StopIteration:
            raise NumericError(f"{path} is empty") from None
        if schema is not None and header != SCHEMAS[schema]:
            raise NumericError(
                f"{path} header {header} does not match schema {SCHEMAS[schema]}"
            )
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise NumericError(f"{path} row width {len(row)} != {len(header)}")
            rows.append(tuple(float(c) for c in row))
    return header, rows


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
