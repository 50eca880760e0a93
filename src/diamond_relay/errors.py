"""Exception types shared across the package.

DiamondRelayError and its subclasses mean bad input: a value outside an
operation's domain or an instance that breaks a result's hypothesis. The CLI
reports them and exits with 2. InvariantError and its subclass
NegativeGapError mean a defect in the package itself; they are not value
errors, so they surface as a traceback, and the CLI exits with 70
(EX_SOFTWARE).
"""

__all__ = [
    "DiamondRelayError",
    "DomainError",
    "DegenerateDenominatorError",
    "HypothesisError",
    "ConditionError",
    "FeasibilityError",
    "InvariantError",
    "NegativeGapError",
]


class DiamondRelayError(ValueError):
    """Base class for invalid inputs to any operation in this package."""


class DomainError(DiamondRelayError):
    """An input value lies outside the documented domain of an operation."""


class DegenerateDenominatorError(DiamondRelayError):
    """A closed-form expression genuinely divides by zero for these capacities."""


class HypothesisError(DiamondRelayError):
    """The instance violates a result's hypothesis, e.g. a zero-capacity link."""


class ConditionError(DiamondRelayError):
    """The requested result needs an equal-branch condition that does not hold."""


class FeasibilityError(DiamondRelayError):
    """A time-sharing vector leaves the scheduling simplex."""


class InvariantError(RuntimeError):
    """An internal invariant broke; this is a defect in the package, not bad input."""


class NegativeGapError(InvariantError):
    """The cut-set bound came out below the achievable rate beyond tolerance.

    This can only come from a solver defect, never from the input data.
    """
