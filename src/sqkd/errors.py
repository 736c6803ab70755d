"""Exception types shared across the package."""


class SqkdError(Exception):
    """Base class for all errors raised by this package."""


# engine


class DuplicateLabel(SqkdError):
    """Two subsystems were given the same label."""


class UnknownLabel(SqkdError):
    """A referenced subsystem label is not present in the layout."""


class DimensionMismatch(SqkdError):
    """Operator and operand dimensions are incompatible."""


class NonQubitTarget(SqkdError):
    """A qubit-only operation was applied to a subsystem of dimension != 2."""


class IndexOutOfRange(SqkdError):
    """A basis-state index exceeds the subsystem dimension."""


class EmptyKeepSet(SqkdError):
    """Partial trace was asked to keep no subsystems."""


class InvalidState(SqkdError):
    """A state or operator violates its defining invariant (norm, unitarity, ...)."""


class FactorizationError(SqkdError):
    """A subsystem could not be factored out because it is entangled with the rest."""


# protocol


class ExactCapExceeded(SqkdError):
    """Requested round count exceeds the exact-simulation cap."""


class AttackLayoutMismatch(SqkdError):
    """An attack references probe subsystems that do not fit the current state."""


class IncompleteTranscript(SqkdError):
    """A transcript, in memory or read back from a file, lacks or garbles required data."""


# attacks


class DuplicateRound(SqkdError):
    """An attack constructor received repeated round indices."""


class ParamOutOfRange(SqkdError):
    """An attack parameter lies outside its admissible range."""


# cli


class UnknownAttack(SqkdError):
    """Attack name not present in the registry."""


class EmptyGrid(SqkdError):
    """Scan requested over an empty parameter grid."""


class GridTooLarge(SqkdError):
    """Scan requested over more grid points than MAX_GRID_POINTS."""
