"""Exception types shared across the package, one class per CLI exit code, and its integer rule."""

import numpy as np


class LtcError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(LtcError, ValueError):
    """Configuration, schedule, timestep grid or acceleration plan is
    missing, unknown or inconsistent (exit 2)."""


class NumericError(LtcError, ArithmeticError):
    """A value is non-finite, degenerate or undefined for its inputs
    (exit 3)."""


class TraceError(LtcError, ValueError):
    """Recorded trace is malformed, fails its checksum, or lacks a
    requested seed or t (exit 4)."""


# the most float64 values one array can hold: a larger count is refused before numpy sizes by it
_MAX_FLOATS = np.iinfo(np.intp).max // 8


def _integral(values, lo=-np.inf, hi=np.inf) -> bool:
    """Whether values, one value or a flat list, tuple, range or array, holds only ints
    and numpy integers in lo..hi, as given: [0, True] holds a bool; (t,) needs an int t."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind != "O":
            return values.dtype.kind in "iu" and bool(((lo <= values) & (values <= hi)).all())
        values = values.flat
    elif not isinstance(values, (list, tuple, range)):
        values = (values,)
    for v in values:  # type, not isinstance: a bool is an int
        if not (type(v) is int or isinstance(v, np.integer)) or not lo <= v <= hi:
            return False
    return True
