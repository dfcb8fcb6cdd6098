"""Exception types shared across the package."""


class DigitprodError(Exception):
    """Base class for all library-specific failures."""


class DomainError(ValueError, DigitprodError):
    """An argument lies outside the mathematical domain of an operation."""


class ValidationError(ValueError, DigitprodError):
    """A value fails a structural precondition (range, shape, bound)."""


class ParseError(ValueError, DigitprodError):
    """A textual specification could not be parsed.

    Carries the offending position when known.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class BalanceError(ValidationError):
    """Gamma-quotient parameter sums differ (the limit formula needs them equal)."""


class HypothesisFailed(DigitprodError):
    """The digit recursion u(B*n + k) = u(n) * v(k) fails for some n >= 1.

    With ``reason`` (and no n, k or deviation) no window allowed proves it
    for every n >= 1: a digit family in a base that is no power of its own,
    or a period too long.  That is decided from the sequence's type, before
    any value is computed.
    """

    def __init__(self, n: int | None = None, k: int | None = None,
                 deviation: float | None = None, reason: str | None = None):
        super().__init__(
            reason
            or f"digit recursion fails at n={n}, k={k} (deviation {deviation:.3e})"
        )
        self.n = n
        self.k = k
        self.deviation = deviation


class ConvergenceHypothesisViolated(DigitprodError):
    """|sum of v(k)| >= B: the convergence guarantee does not apply.

    Products with such exponent sequences may diverge and are never evaluated.
    """


class ProfileMismatch(DigitprodError):
    """A recursion profile disagrees with the sequence it claims to describe."""
