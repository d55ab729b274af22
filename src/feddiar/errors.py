"""Exception types shared across the toolkit.

Every module raises subclasses of FeddiarError so callers can catch one
base class at the pipeline boundary.
"""


class FeddiarError(Exception):
    pass


class InvalidConfig(FeddiarError, ValueError):
    """A configuration value is malformed or out of range."""


# -- audio frontend --------------------------------------------------------

class MalformedWav(FeddiarError):
    """RIFF/WAVE container could not be parsed."""


class UnsupportedEncoding(FeddiarError):
    """WAV payload is not 16-bit PCM."""


class SignalTooShort(FeddiarError):
    """Signal shorter than one analysis frame."""


class SampleRateTooLow(FeddiarError):
    """Sample rate at which a frame hop rounds to no samples."""


# -- silence detection ------------------------------------------------------

class TooFewFrames(FeddiarError):
    """Not enough frames to estimate a noise profile."""


# -- divergence statistics --------------------------------------------------

class DimensionMismatch(FeddiarError):
    pass


class WindowTooSmall(FeddiarError):
    pass


class SingularCovariance(FeddiarError):
    """Ridged covariance still not invertible."""


class NonFiniteInput(FeddiarError, ValueError):
    """A window or its statistics hold NaN or inf."""


# -- clustering -------------------------------------------------------------

class NoSegments(FeddiarError):
    pass


# -- identifier model -------------------------------------------------------

class InvalidArch(FeddiarError):
    pass


class LabelOutOfRange(FeddiarError):
    pass


class EmptyData(FeddiarError):
    pass


class EmptySegment(FeddiarError):
    pass


class ZeroNormEmbedding(FeddiarError):
    pass


class EmptySet(FeddiarError):
    pass


class EmptyCluster(FeddiarError):
    pass


# -- federated simulation ----------------------------------------------------

class TooManyClients(FeddiarError):
    pass


class InsufficientData(FeddiarError):
    pass


class BadGroupSize(FeddiarError):
    pass


class ArchMismatch(FeddiarError):
    pass


class TrainingDiverged(FeddiarError):
    """A federated round produced non-finite weights or a non-finite loss."""


# -- metrics ------------------------------------------------------------------

class UnsortedInput(FeddiarError):
    pass


class LengthMismatch(FeddiarError):
    pass


class EmptyCorpus(FeddiarError):
    pass


# -- harness ------------------------------------------------------------------

class InvalidSpec(FeddiarError):
    pass


class IoFailure(FeddiarError):
    pass


class StageError(FeddiarError):
    """Wraps a failure with the name of the pipeline stage that raised it."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
