"""Exception types shared across the package."""


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


class SupportError(EamacError, ValueError):
    """Relative entropy requested outside the support of the second argument."""


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
