"""Exception types shared across the package."""


class XyregError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(XyregError):
    """Operands are defined over variable tables of different sizes."""


class OrderMismatchError(XyregError):
    """Operands carry different order tags; re-sort explicitly first."""


class UndefinedLeadError(XyregError):
    """The zero polynomial has no leading term."""


class ParseError(XyregError):
    """Polynomial text could not be parsed; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class HomogeneityError(XyregError):
    """An operation that requires homogeneous input received a mixed-degree polynomial."""


class BudgetExceededError(XyregError):
    """A resource budget was exhausted before the computation finished.

    Partial state is discarded; the attributes record how far the run got.
    """

    def __init__(self, message, *, pairs_considered=None, degree_reached=None):
        super().__init__(message)
        self.pairs_considered = pairs_considered
        self.degree_reached = degree_reached


class CertificateFormatError(XyregError):
    """Serialized certificate data is not shaped like a certificate."""


class CertificationError(XyregError):
    """A certification step failed; ``condition`` names the violated check."""

    def __init__(self, condition, message):
        super().__init__(f"[{condition}] {message}")
        self.condition = condition
