"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: configuration problems exit 2, data and
I/O problems exit 3, identification failures exit 1.
"""

from __future__ import annotations


class NarxidError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(NarxidError):
    """Invalid configuration: lag settings, run options, malformed config files."""


def check_integer(name: str, value, minimum: int | None = None) -> None:
    """Reject, as a :class:`ConfigError`, a ``value`` that is not a Python
    ``int`` (a ``bool`` or numpy integer counts as none, so a setting stays
    JSON-serializable) or that is below ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")


class DataError(NarxidError):
    """Input data violates a contract (non-finite values, bad CSV cells, ...)."""


class InsufficientDataError(DataError):
    """Record too short for the requested lags or training range."""


class SingularityError(NarxidError):
    """A regressor column is numerically dependent on the others.

    ``column`` identifies the offending term (string) when known.
    """

    def __init__(self, message: str, column: str | None = None):
        super().__init__(message)
        self.column = column


class LeverageError(NarxidError):
    """A leave-one-out leverage reached 1 within guard tolerance.

    Signals an interpolating fit; deleted residuals are undefined.
    """


class DivergenceError(NarxidError):
    """A recursive simulation exceeded the divergence guard.

    ``index`` is the first sample at which the guard tripped.
    """

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class IdentificationError(NarxidError):
    """No stable model could be identified; carries the candidate pool."""

    def __init__(self, message: str, pool=None):
        super().__init__(message)
        self.pool = pool
