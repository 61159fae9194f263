"""Exception types shared across the package: one class per CLI exit code."""


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
