"""Exception hierarchy shared across the package, and the one reader of input files.

The CLI maps these onto exit codes: usage errors exit 1, NumericalError 3 and
the others 2 (training skips a MaskSamplingError, so no command lets one out).
"""

from pathlib import Path


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


def read_input(path, what: str, text: bool = False) -> bytes | str:
    """The bytes of the input file ``path`` or, with ``text``, its UTF-8 text; a file
    that cannot be read or decoded is a DataError naming ``what`` and the file."""
    try:
        blob = Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        reason = getattr(exc, "strerror", None) or exc
        raise DataError(f"cannot read {what} {path}: {reason}") from exc
    if not text:
        return blob
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} {path} is not UTF-8 text (byte {exc.start})") from exc
