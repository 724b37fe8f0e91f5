"""Exception hierarchy shared by all modules.

Errors split into three families, mirroring the CLI exit codes:
input/usage problems (exit 2), numerical failures (exit 3), and
mathematical negatives such as "the order holds, no witness exists"
(exit 1). Everything derives from :class:`KostantError`.
"""


class KostantError(Exception):
    """Base class for all library errors."""


# --- input / usage errors -------------------------------------------------

class ParseError(KostantError):
    """Malformed JSON input or schema violation."""


class LengthMismatch(KostantError):
    """Vectors of different lengths where equal lengths are required."""


class NonPositive(KostantError):
    """A vector entry that must be strictly positive is not."""


class BadIndex(KostantError):
    """Index out of the valid range (e.g. exterior power k > n)."""


class SumMismatch(KostantError):
    """Totals differ beyond tolerance, so hull membership is moot."""


class DimensionCap(KostantError):
    """Representation dimension exceeds the configured cap."""


# --- numerical failures ---------------------------------------------------

class NonConvergence(KostantError):
    """Iterative eigensolver exhausted its iteration budget."""


class IllConditioned(KostantError):
    """Result cannot be trusted at the requested tolerance."""


class Singular(KostantError):
    """Matrix is not invertible (or indistinguishable from singular)."""


class NotHyperbolic(KostantError):
    """Spectrum is not positive real, or the matrix is not diagonalizable."""


class Overflow(KostantError):
    """Float-mode value exceeded the representable range."""


# --- mathematical negatives -----------------------------------------------

class NotSeparable(KostantError):
    """Spectral radii do not satisfy c > d; no symmetric power separates."""


class OrderHolds(KostantError):
    """x dominates y, so no separating character exists."""
