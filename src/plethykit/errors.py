"""Exception hierarchy shared by all plethykit modules."""


class PlethykitError(Exception):
    """Base class for all errors raised by this package."""


class CellOutsideDiagram(PlethykitError):
    """A (row, col) cell does not lie inside the Young diagram."""


class NonPositiveArgument(PlethykitError):
    """The q-analog [a] is only defined for a >= 1."""


class InexactDivision(PlethykitError):
    """Polynomial division left a remainder where none was expected.

    This always signals a logic bug upstream: every quotient taken in
    this package is exact by construction.
    """


class ZeroPolynomial(PlethykitError):
    """The zero polynomial has no degree, so it cannot be reversed."""


class LengthExceedsDimension(PlethykitError):
    """A partition has more rows than its box allows; for an instance
    (lambda, d), length(lambda) > d+1 and S_lambda(C^{d+1}) is zero."""


class NotSLIsomorphic(PlethykitError):
    """Twist solving requires SL-isomorphic inputs."""


class ZeroWeight(PlethykitError):
    """2-adic valuation is undefined for 0."""


class ShapeMismatch(PlethykitError):
    """Sequence lengths do not match the requested staircase shape."""


class EmptyDiagram(PlethykitError):
    """A staircase descriptor with no rows and no slack has d = -1."""


class BudgetExceeded(PlethykitError):
    """An enumeration passed its fixed limit of instances."""


class ConsistencyError(PlethykitError):
    """A mathematically guaranteed internal invariant failed.

    Raised loudly instead of being swallowed, because it means either a
    bug in this package or a counterexample to a theorem it relies on.
    """
