"""Exception types shared across the package."""


class ResiduaError(Exception):
    """Base class for all errors raised by this package."""


class UnknownElement(ResiduaError):
    """A relation pair or query referenced a name that was never declared."""


class CycleDetected(ResiduaError):
    """The input relation has a cycle, so antisymmetry fails."""


class NotALattice(ResiduaError):
    """Some pair of elements has no meet or no join.

    Carries the offending pair as ``.pair`` (indices) when known.
    """

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class NoBottom(ResiduaError):
    """The poset has no minimum element."""


class NotBelow(ResiduaError):
    """A subtraction x - z was requested with z not below x."""


class LatticeIntegrityError(ResiduaError):
    """A meet/join table entry failed its universal-property check.

    Carries a replayable witness dict as ``.witness``.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness or {}


class NotT1(ResiduaError):
    """The space has a non-closed singleton."""


class TooLarge(ResiduaError):
    """A generator or search was asked for a structure above its
    documented cap."""


class InvalidGroup(ResiduaError):
    """A Cayley table fails the group axioms."""


class DimensionMismatch(ResiduaError):
    """Two ordinal vectors of different lengths were combined."""


class BoundTooSmall(ResiduaError):
    """A search bound is too small to be conclusive for the given element."""


class UnstableVerdict(ResiduaError):
    """A bounded search gave different verdicts at nearby bounds."""


class PreconditionFailed(ResiduaError):
    """A checker was invoked on an element outside its stated hypotheses."""


class OracleMismatch(ResiduaError):
    """A characterization computed through the derivative disagrees with
    its independent oracle."""
