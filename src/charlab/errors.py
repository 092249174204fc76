"""Exception types shared across the pipeline."""


class CharlabError(Exception):
    """Base class for all package errors."""


class InvalidArgument(CharlabError):
    """Caller passed a parameter outside the contract."""


class ConstructionFailure(CharlabError):
    """A constructed object could not satisfy its invariants."""


class NumericFailure(CharlabError):
    """An iterative numerical procedure did not converge or is ambiguous.

    Carries optional diagnostics (residual, ambiguous window, ...) in
    ``self.info``.
    """

    def __init__(self, message, **info):
        super().__init__(message)
        self.info = info


class SearchFailure(CharlabError):
    """An orbit search did not converge to an acceptable solution."""


class InvariantViolation(CharlabError):
    """A hard invariant gate failed (the result must not be used)."""


class ConsistencyFailure(CharlabError):
    """Two independent computations of the same quantity disagree."""


class TableRuleViolation(InvalidArgument):
    """A critical-type-number table violates one of the structural rules.

    ``self.rule`` names the violated rule.
    """

    def __init__(self, rule, message):
        super().__init__(f"[{rule}] {message}")
        self.rule = rule
