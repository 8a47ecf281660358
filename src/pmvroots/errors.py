"""Exception hierarchy shared by all modules."""


class PmvError(Exception):
    """Base class for every error raised by this package."""


class MismatchError(PmvError):
    """Operands belong to different groups or algebras."""


class CarrierError(PmvError):
    """A value lies outside the carrier it was claimed to belong to."""


class ParameterError(PmvError):
    """A structural parameter is out of its admissible range."""


class UnsupportedOperationError(PmvError):
    """The operation is not decidable or not implemented for this family."""


class ResourceLimitError(PmvError):
    """An enumeration exceeded the configured size cap."""


class DslError(PmvError):
    """Syntax or semantic error in a textual expression."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position  # 1-based column
        if position is not None:
            message = f"{message} (at column {position})"
        super().__init__(message)
