"""Exception hierarchy shared across the package.

Each class carries the process exit code the CLI maps it to.
"""


class MelAdaptError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(MelAdaptError):
    """Invalid configuration, arguments, or input contract violation."""

    exit_code = 2


class ShapeError(ConfigError):
    """Tensor shape or axis mismatch; message names the offending shapes."""


class FreezeViolation(MelAdaptError):
    """A training stage modified parameters outside its declared trainable set."""

    exit_code = 3


class NumericError(MelAdaptError):
    """NaN/Inf crossed a check barrier, or an optimizer saw a non-finite gradient."""

    exit_code = 4


class CheckpointFormatError(MelAdaptError):
    """Unreadable or corrupt checkpoint, corpus or mel file; the message names
    the file and what is wrong with it."""

    exit_code = 5
