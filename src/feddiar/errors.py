"""Exception types shared across the toolkit.

Every raise in the library names one of the five subclasses of
FeddiarError, one per kind of fault, so callers can catch the base class at
the pipeline boundary or one kind of fault where they can act on it.
"""


class FeddiarError(Exception):
    pass


class InvalidConfig(FeddiarError, ValueError):
    """A setting is malformed or out of range."""


class InvalidSpec(FeddiarError):
    """A file or spec from outside the program is malformed."""


class InvalidInput(FeddiarError, ValueError):
    """Data that a library function cannot work on."""


class TrainingDiverged(FeddiarError):
    """A federated round produced non-finite weights or a non-finite loss."""


class StageError(FeddiarError):
    """Wraps a failure with the name of the pipeline stage that raised it."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
