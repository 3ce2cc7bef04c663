"""Exception types shared across the package, and the three rules a scalar argument
obeys: a count (``check_count``), a real number in an interval (``check_real``) and one
of a fixed set of names (``check_choice``).  Each rule raises a DomainError naming the
argument and its value, and builds that message only when the check fails."""

import numpy as np

# the top of every real interval, so NaN, +-inf and an int no float holds all fail
FLOAT_MAX = float(np.finfo(float).max)


class EamacError(Exception):
    """Base class for all package-specific errors."""


class DomainError(EamacError, ValueError):
    """A numeric argument lies outside its mathematical domain."""


class ShapeError(EamacError, ValueError):
    """An array argument has the wrong shape or dimensionality."""


class PhysicalityError(EamacError, ValueError):
    """A covariance matrix violates the uncertainty principle."""


class ChannelValidityError(EamacError, ValueError):
    """An (X, Y) pair does not define a completely positive Gaussian channel."""


class TruncationError(EamacError, RuntimeError):
    """A Fock-space cutoff is too small for the requested tail budget."""

    def __init__(self, message, required_cutoff=None):
        super().__init__(message)
        self.required_cutoff = required_cutoff


class NumericalError(EamacError, ArithmeticError):
    """A computed value breaks an invariant that holds by construction."""


class InfeasibleError(EamacError, RuntimeError):
    """A covert plan violates its power budget.

    ``binding`` names the constraint that failed.
    """

    def __init__(self, message, binding=None):
        super().__init__(message)
        self.binding = binding


class ConfigError(EamacError, ValueError):
    """A run configuration is malformed or incomplete."""


def check_count(name: str, value, low: int = 1, high=FLOAT_MAX) -> None:
    """Reject a ``value`` that is not an integer in [low, high]; a bool is not a count."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and low <= value <= high:
        return
    bound = f">= {low}" if high == FLOAT_MAX else f"in [{low}, {high}]"
    raise DomainError(f"{name} must be an integer {bound}, got {value}")


def check_real(name: str, value, low=-FLOAT_MAX, high=FLOAT_MAX, ends: str = "[]"):
    """``value``, if it is a number in the interval from ``low`` to ``high``, each end closed
    ("[", "]") or open ("(", ")") as ``ends`` says; the defaults admit any finite float."""
    try:
        if (low <= value if ends[0] == "[" else low < value) and (value <= high if ends[1] == "]" else value < high):
            return value
        above = value > low
    except (TypeError, ValueError):  # not a number, or an array
        above = False
    half_line = "be finite" if above or low == -FLOAT_MAX else f"be {'>=' if ends[0] == '[' else '>'} {low:g}"
    rule = half_line if high == FLOAT_MAX else f"lie in {ends[0]}{low:g}, {high:g}{ends[1]}"
    raise DomainError(f"{name} must {rule}, got {value}")


def check_choice(name: str, value, choices: tuple) -> None:
    """Reject a ``value`` that is not one of ``choices``."""
    if value in choices:
        return
    raise DomainError(f"{name} must be one of {choices}, got {value!r}")
