"""Exception types shared across the package.

The CLI maps these onto distinct process exit codes, so library code should
raise the most specific type that applies.
"""

__all__ = ["ConfigError", "ConvergenceError", "InvariantViolation"]


class ConfigError(ValueError):
    """A run configuration could not be parsed or is self-contradictory."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance within its budget."""


class InvariantViolation(RuntimeError):
    """A structural postcondition failed after a computation that should have
    guaranteed it (signals an inconsistent input or an internal error)."""
