"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""


# what evaluating one trial can raise: a fuzz run keeps it as the outcome
TRIAL_ERRORS = (ValueError, NumericError, ArithmeticError)
