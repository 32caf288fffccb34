"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage errors exit 1, NumericalError 3 and
the others 2 (training skips a MaskSamplingError, so no command lets one out).
"""


class TijepaError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(TijepaError):
    """Dimension or index mismatch in a tensor/model operation."""


class DataError(TijepaError):
    """Malformed file, manifest, config, or checkpoint."""


class NumericalError(TijepaError):
    """Non-finite values where finite ones are required."""


class MaskSamplingError(TijepaError):
    """Mask sampling could not produce a non-empty context block."""
