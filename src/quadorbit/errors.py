"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input is outside the mathematical domain of the operation."""


class InvalidFieldError(DomainError):
    """p is not the prime needed (numtheory.check_prime): "p is not a prime", "an odd prime" or "a prime > 3"."""


class InvalidElementError(DomainError):
    """An element is not a member of the group the operation works in."""


class DegenerateParameterError(DomainError):
    """A hyperbola parameter on which the parametrization is undefined."""


class BudgetExceededError(RuntimeError):
    """An iteration budget ran out before the computation finished."""
