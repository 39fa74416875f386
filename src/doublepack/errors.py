"""Exception types and the argument checks shared across the package.

The CLI maps the exception types onto distinct process exit codes, so library
code should raise the most specific type that applies.  Every integer
argument of the library passes ``integer`` (a list of vertex ids
``integers``), every real argument of a fixed range ``number`` with one of
the ranges below, which the CLI's gate reads too, and every point of the
plane ``complex_number``: a bad argument raises ``ValueError`` naming it
before any work."""

import cmath
import math
import numbers
import operator

import numpy as np

__all__ = ["ConfigError", "ConvergenceError", "InvariantViolation"]


class ConfigError(ValueError):
    """A run configuration could not be parsed or is self-contradictory."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance within its budget."""


class InvariantViolation(RuntimeError):
    """A structural postcondition failed after a computation that should have
    guaranteed it (signals an inconsistent input or an internal error)."""


def integer(name: str, value, low: float = -math.inf, high: float = math.inf) -> int:
    """``value``, a Python or numpy integer (not a bool), as an int in
    [low, high); else a ValueError naming ``name``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or not low <= value < high):
        bound = ("" if low == -math.inf else f" of at least {low}" if high == math.inf
                 else f" from {low} to {high - 1}")
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return operator.index(value)


def integers(name: str, values, high: float = math.inf) -> np.ndarray:
    """``values``, integers (or none), as an int64 array, each from 0 below
    ``high`` if that is given; else a ValueError naming ``name``."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{name} must be an integer array, not {arr.dtype}")
    arr = arr.astype(np.int64, copy=False)
    if high < math.inf:
        bad = arr[(arr < 0) | (arr >= high)]
        if bad.size:
            raise ValueError(f"{name} must hold integers from 0 to {high - 1}, got {bad[0]}")
    return arr


# ranges of real arguments: (test, what a value outside the range must be)
FINITE = (math.isfinite, "must be finite")
POSITIVE = (lambda v: 0 < v < math.inf, "must be finite and positive")
NONNEGATIVE = (lambda v: 0 <= v < math.inf, "must be finite and non-negative")
UNIT = (lambda v: 0 < v < 1, "must lie strictly between 0 and 1")
HALF = (lambda v: 0 < v <= 0.5, "must lie in (0, 1/2]")
QUARTER = (lambda v: 0 < v <= 0.25, "must lie in (0, 1/4]")


def number(name: str, value, bound) -> float:
    """``value``, a Python or numpy real (not a bool), as a float inside
    ``bound``; else a ValueError naming ``name``."""
    test, what = bound
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not test(value):
        raise ValueError(f"{name} {what}, got {value!r}")
    return float(value)


def complex_number(name: str, value) -> complex:
    """``value``, a finite Python or numpy number (not a bool), as a complex;
    else a ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Complex) \
            or not cmath.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return complex(value)
