"""Exception types shared across the package."""


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class NonUnitNormal(EngineError):
    """A palm normal deviates from unit length by more than the tolerance."""


class GrabOutOfRange(EngineError):
    """Grab strength outside [0, 1]."""


class HeaderMismatch(EngineError):
    """CSV header does not match the expected column list."""


class MalformedRow(EngineError):
    """A CSV row failed to parse; carries the line number and column name."""

    def __init__(self, line: int, column: str, reason: str = ""):
        self.line = line
        self.column = column
        msg = f"line {line}, column {column}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


class NonMonotonicTimestamp(EngineError):
    """Timestamps are not strictly increasing."""

    def __init__(self, message: str = "timestamps not strictly increasing", line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class TooFewSamples(EngineError):
    """Not enough samples to run an estimator."""


class InsufficientWindow(EngineError):
    """A frame window does not satisfy the feature-extraction preconditions."""


class OutOfOrderFrame(EngineError):
    """A frame arrived with a timestamp not after the previous one."""


class InvalidScript(EngineError):
    """A gesture script is inconsistent or incomplete."""


class UnknownPhase(EngineError):
    """An ablation name is not one of `synth.ABLATIONS`."""


class ConfigError(EngineError):
    """A threshold-config file has an unknown key or out-of-range value."""
