"""Exception hierarchy shared across the laboratory modules, and the
number tests their argument checks share."""

import sys

import numpy as np


def is_count(x) -> bool:
    """An integer that is not a bool and below 2**63 in magnitude (int64)."""
    return (isinstance(x, (int, np.integer)) and not isinstance(x, bool)
            and bool(-2**63 < x < 2**63))


def is_real(x) -> bool:
    """A finite real number that is not a bool.

    The magnitude test also rejects NaN and ints too large for a float. A
    Python int is compared exactly, a numpy scalar in float64 (a float32
    would overflow casting the limit).
    """
    if isinstance(x, bool) or not isinstance(
            x, (int, float, np.integer, np.floating)):
        return False
    limit = sys.float_info.max if isinstance(x, int) else np.float64(
        sys.float_info.max)
    return bool(abs(x) <= limit)


def require_count(name: str, x, low: int):
    """`x` if it is a count (:func:`is_count`) of at least `low`."""
    if not is_count(x) or x < low:
        raise ConfigurationError(f"{name} must be an integer >= {low}, got {x!r}")
    return x


def require_instance(name: str, x, cls):
    """`x` if it is an instance of `cls`."""
    if not isinstance(x, cls):
        raise ConfigurationError(
            f"{name} must be a {cls.__name__}, got {type(x).__name__}")
    return x


def require_positive(name: str, x):
    """`x` if it is a real number (:func:`is_real`) above zero."""
    if not is_real(x) or x <= 0:
        raise ConfigurationError(f"{name} must be a finite number > 0, got {x!r}")
    return x


def require_table(name: str, rows, width: int) -> np.ndarray:
    """`rows` read as one float table of shape (n, width), n >= 1: each row
    `width` numbers (integers or floats, not strings), all finite."""
    try:
        table = np.asarray(rows)
    except ValueError:  # ragged rows
        table = np.asarray(None)  # an object array, refused below
    if (table.dtype.kind not in "iuf" or table.ndim != 2
            or table.shape[0] < 1 or table.shape[1] != width):
        raise ConfigurationError(
            f"{name} must be a non-empty sequence of rows of {width} numbers")
    table = np.array(table, dtype=float)
    if not np.isfinite(table).all():
        raise ConfigurationError(f"{name} must hold finite numbers only")
    return table


class EhlabError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(EhlabError):
    """Invalid parameters, config files, or inputs (CLI exit code 2)."""


class NumericError(EhlabError):
    """Numerical failure inside a computation (CLI exit code 3)."""


class OutOfDomainError(ConfigurationError):
    """An argument lies outside the validity window of a model."""


class EmptyRegionError(ConfigurationError):
    """A region selection matched nothing."""


class InsufficientDataError(ConfigurationError):
    """Too few samples for the requested analysis."""


class SingularFitError(NumericError):
    """Degenerate data made the least-squares problem singular."""


class DegenerateSpectrumError(NumericError):
    """Quasi-energy degeneracies invalidate the phase-averaging argument."""

    def __init__(self, pairs):
        self.pairs = list(pairs)
        super().__init__(
            f"degenerate quasi-energy pairs (indices): {self.pairs[:10]}"
            + ("..." if len(self.pairs) > 10 else "")
        )


class HermiticityError(NumericError):
    """An expectation value came out with a non-negligible imaginary part."""
