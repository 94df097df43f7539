"""Exception types shared across the package.

The CLI maps these onto exit codes: bad input (``DomainError`` and
subclasses) exits 2, tripped numerical guards (``NumericalGuardError``
and subclasses) exit 3.
"""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SpaceMismatchError(DomainError):
    """An operation received a model space of the wrong kind or dimension."""


class NumericalGuardError(RuntimeError):
    """A size, conditioning or finiteness guard tripped."""


class SizeGuardError(NumericalGuardError):
    """A brute-force path would exceed its configured work budget."""


class ConditioningError(NumericalGuardError):
    """A linear solve was refused because the system is near-singular."""

    def __init__(self, message, eig_min=None):
        super().__init__(message)
        self.eig_min = eig_min


class QuadratureError(NumericalGuardError):
    """A quadrature produced a non-finite value; carries the failing region."""

    def __init__(self, message, region=None):
        super().__init__(message)
        self.region = region
