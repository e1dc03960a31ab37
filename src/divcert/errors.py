"""Exception types shared across the engine."""


class BudgetExceededError(Exception):
    """An input exceeds a configured resource budget (sieve size, degree, ...)."""


class SearchExhaustedError(Exception):
    """A bounded search ran out of candidates without finding a witness."""


class NotPolynomialError(ValueError):
    """A quotient expression that is not a polynomial was asked to expand."""
