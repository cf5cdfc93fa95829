"""Exception types shared across the package.

The CLI maps ConfigError to exit code 2 and every other ValtrackError,
NumericError included, to exit code 3. Any other exception is a bug and
propagates with its traceback.
"""


class ValtrackError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(ValtrackError, ValueError):
    """Non-finite or otherwise invalid numeric input to an engine operation."""


class DomainError(ValtrackError, ValueError):
    """Input outside the mathematical domain of an operation (log of <= 0 etc.)."""


class DegenerateCaseError(DomainError):
    """Reduced-coordinate reconstruction on the back-diagonal, where the map is singular."""


class CrashDivergentError(DomainError):
    """The alpha/beta map was evaluated where its log argument is non-positive,
    which corresponds to a trade that would wipe out a holding in one step."""


class BoundaryError(ValtrackError):
    """Reduced-step requested on a boundary state (pi = 0 or m = 0); the
    piecewise dynamics are undefined there and the caller must decide."""


class ContractError(ValtrackError):
    """A documented precondition of an operation was violated by the caller."""


class NumericError(ValtrackError):
    """A numeric routine failed to converge; carries diagnostics in args."""


class ConfigError(ValtrackError):
    """Malformed, unknown or out-of-range configuration input."""
