"""Exception types shared across the engine, and the default budget
that `BudgetExceededError` enforces."""


class FlagHGError(Exception):
    """Base class for engine errors."""


class UsageError(FlagHGError):
    """Bad command-line input."""


class ZeroDenominatorError(FlagHGError):
    """A denominator factor is the zero polynomial."""


class SingularSubstitutionError(FlagHGError):
    """A substitution made a denominator factor vanish identically."""


class SymmetryViolationError(FlagHGError):
    """An input class is not symmetric within a root block."""


# the default --coset-budget; kept here so the CLI parser needs no engine
DEFAULT_COSET_BUDGET = 10080


class BudgetExceededError(FlagHGError):
    """A push-forward spans more cosets than the configured budget."""


class CancellationFailureError(FlagHGError):
    """A normal-bundle ledger retained a weight-0 term."""


class InfeasibleTableauError(FlagHGError):
    """A tableau's fibration tower has a negative-dimensional step."""


class FormulaMismatchError(FlagHGError):
    """Two supposedly equivalent computation routes disagree."""


class IntegrationShapeError(FlagHGError):
    """An integrand or an integrated class has a shape the integration
    routes do not handle: root variables left after integration, or a
    denominator factor the fixed-point oracle cannot expand."""
