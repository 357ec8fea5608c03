"""Exception types shared across the package.

Every recoverable failure mode gets its own class so callers (and the CLI)
can map errors to exit codes without string matching.
"""


class PrimevisitError(Exception):
    """Base class for all package errors."""


class UsageError(PrimevisitError):
    """Invalid arguments or preconditions violated by the caller."""


class NonCoprimeResidue(UsageError):
    """Residue a shares a factor with the modulus q."""


class RangeTooLarge(UsageError):
    """Requested sieve range exceeds the configured segment cap."""


class KTooLarge(UsageError):
    """Tuple length beyond the configured search cap."""


class InvalidParameter(UsageError):
    """A constructed object violates its invariants."""


class CapExceeded(PrimevisitError):
    """A bounded search ran out of budget before finding its target."""


class BudgetExceeded(PrimevisitError):
    """A computation would exceed the configured work budget."""


class PrecisionExhausted(PrimevisitError):
    """A decimal/truncated input cannot certify the requested comparison."""


class FactorizationFailure(PrimevisitError):
    """Integer outside the supported factorization range."""


class SearchFailed(PrimevisitError):
    """A search could not produce a result that verifies: an early-visit
    certificate, or a return time that fails its exact check."""


class NonTermination(PrimevisitError):
    """An iteration guard was hit (reduction loop cap)."""
