"""Exception types shared across the package.

Each class declares the CLI exit code it maps to: 2 for input errors (the
default), 3 for an unsupported ring or an input too large, 4 for an
internal inconsistency.
"""


class MatseqError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 2


class RingMismatch(MatseqError):
    """Operands belong to different coefficient rings."""


class UnsupportedRing(MatseqError):
    """The operation is not defined over the given ring."""

    exit_code = 3


class ExactDivisionError(MatseqError):
    """Division has a remainder or the divisor is not invertible."""


class BadIndex(MatseqError):
    """A term index is out of range or malformed."""


class ZeroVector(MatseqError):
    """A nonzero vector was required."""


class Char2Unsupported(MatseqError):
    """The operation requires characteristic different from 2."""

    exit_code = 3


class LengthMismatch(MatseqError):
    """Sequences must have equal length."""


class LengthTooShort(MatseqError):
    """The sequence is too short for this operation."""


class TowerTooDeep(MatseqError):
    """A second quadratic extension would be required."""

    exit_code = 3


class NotTriangularizable(MatseqError):
    """The sequence admits no common triangular form over its ring."""


class CommutativeInput(MatseqError):
    """The operation requires a non-commutative sequence."""


class NotCommutative(MatseqError):
    """The operation requires a commutative sequence."""


class NotCanonical1a(MatseqError):
    """The sequence is not in the expected diagonal canonical form."""


class DegenerateDiscriminant(MatseqError):
    """The characteristic roots coincide; the construction needs them distinct."""


class ZeroC2(MatseqError):
    """The reconstructed lower-left entry would vanish."""


class NotApplicable(MatseqError):
    """The transformation does not apply to this input."""


class TooLarge(MatseqError):
    """The input exceeds a size guard: an oracle enumeration too large, or a
    modulus beyond the proven primality bound, a number too large to
    factor, or a result with more digits than can be printed."""

    exit_code = 3


class InternalInconsistency(MatseqError):
    """A decision procedure and its own construction disagree (bug sentinel)."""

    exit_code = 4
