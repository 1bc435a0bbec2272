"""Exception hierarchy shared across the package."""


class SpfextError(Exception):
    """Base class for all package errors."""


class ParseError(SpfextError):
    """A functor expression or diagram string could not be parsed."""


class SemanticError(SpfextError):
    """Inputs parsed but are not usable (degree mismatch, bad composition, ...)."""


class DegreeMismatchError(SemanticError):
    """Source and target expressions have different homogeneous degrees."""


class AdmissibilityError(SemanticError):
    """A duality or pairing check was requested outside its hypotheses."""


class BudgetExceededError(SpfextError):
    """A module's ambient tensor space would exceed modules.AMBIENT_CAP."""


class EquivarianceError(SpfextError):
    """An allegedly natural map failed to commute with the algebra action.

    This is always an internal bug, never a user error.
    """


class UnsupportedExpressionError(SemanticError):
    """The expression lies outside the twist-substitution fragment."""
