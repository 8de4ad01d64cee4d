"""Exception types shared across the package."""


class BnpickError(Exception):
    """Base class for all package errors."""


class SingularMatrixError(BnpickError):
    """Matrix inversion was requested for a (numerically) singular matrix."""


class FloatRangeError(BnpickError, OverflowError):
    """An exact value is too large to be converted to a float for sampling."""


class PoleError(BnpickError):
    """A rational function was evaluated at (or too close to) a pole."""

    def __init__(self, location):
        super().__init__(f"evaluation at pole z = {location}")
        self.location = location


class InvalidDataError(BnpickError):
    """Interpolation data violates a structural requirement."""


class SingularPickError(BnpickError):
    """The Pick matrix is singular; the resolvent does not exist.

    Callers must route to the degenerate solver instead.
    """


class SplitNotAdmissibleError(BnpickError):
    """A requested factorization split has a singular leading block."""


class DegenerateTransformError(BnpickError):
    """The linear-fractional transform produced an identically infinite result."""


class NotNevanlinnaError(BnpickError):
    """A parameter failed Nevanlinna-class validation."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class UnclassifiableParameterError(BnpickError):
    """Boundary limits of a parameter were numerically inconclusive."""

    def __init__(self, message, estimates=None):
        super().__init__(message)
        self.estimates = estimates or {}


class InconsistentClassificationError(BnpickError):
    """Lost-squares accounting exceeded the negative-squares budget."""


class InputError(BnpickError):
    """Malformed or unreadable command-line input."""


class NoSolutionRepresentationError(BnpickError):
    """The degenerate closed form has an identically vanishing denominator."""
