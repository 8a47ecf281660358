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
    """A finite carrier, or a listed Boolean skeleton, would have more than
    ``pmv.MAX_CARRIER`` elements."""


class DslError(PmvError):
    """Syntax or semantic error in a textual expression."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position  # 1-based column
        if position is not None:
            message = f"{message} (at column {position})"
        super().__init__(message)


class InternalError(PmvError):
    """An internal consistency check failed: a defect of this package."""


def check(condition, what: str) -> None:
    """Raise ``InternalError`` unless ``condition`` holds; unlike ``assert``,
    this still runs under ``python -O``."""
    if not condition:
        raise InternalError(f"internal check failed: {what}")
