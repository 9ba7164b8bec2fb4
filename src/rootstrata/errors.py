"""Exceptions raised by the exact-arithmetic layers."""


class RootStrataError(Exception):
    """Base class for all library errors."""


class ZeroDenominator(RootStrataError):
    """A polynomial was divided by zero."""


class InconsistentSamples(RootStrataError):
    """Interpolation samples do not lie on any polynomial of the stated degree."""


class NotSymmetric(RootStrataError):
    """A Schur expansion was requested for a polynomial that is not symmetric."""


class PolynomialityViolation(RootStrataError):
    """A division that must be exact left a nonzero remainder.

    Raised when clearing the shared denominator of a substituted class
    fails, when `/` between d-polynomials is inexact, and when a count
    that must be an integer is not; inside the library's own routes this
    always signals a bug, never bad user input.
    """


class DegreeTooSmall(RootStrataError):
    """A stratum was requested inside a space of polynomials of lower degree."""


class DegreeMismatch(RootStrataError):
    """A computed d-degree disagrees with the predicted one."""


class OutOfRange(RootStrataError):
    """Closed-form coefficients were requested outside their validity range."""


class InvalidPartition(RootStrataError):
    """A partition fails the constraints of the requested operation."""
