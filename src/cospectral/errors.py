"""Exception types shared across the package.

Validation failures (bad arguments, malformed inputs) and resource-cap
failures (vertex budgets, percolation windows) are kept distinct so the CLI
can map them to different exit codes.  ``_number`` parses a number from
user text and ``_read_text`` reads a UTF-8 file, each reporting malformed
input as a validation failure.
"""


class ValidationError(ValueError):
    """Raised on malformed or out-of-range inputs."""


def _number(kind, text, what: str):
    """int(text) or float(text), with malformed text as a ValidationError."""
    try:
        return kind(text)
    except ValueError:
        raise ValidationError(f"malformed {what} {text!r}") from None


def _read_text(path: str, what: str) -> str:
    """The text of a UTF-8 file; a file that cannot be read or decoded is a
    ValidationError naming it as ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc


class ResourceCapError(RuntimeError):
    """Raised when a computation exceeds a declared resource budget."""


class BallCapExceeded(ResourceCapError):
    """Ball generation ran past the vertex cap.

    ``attained_radius`` is the largest radius whose ball fits under the cap
    together with its outer rim, so rebuilding at it succeeds; it is -1 when
    even the root, or its rim, does not fit.
    """

    def __init__(self, message: str, attained_radius: int):
        super().__init__(message)
        self.attained_radius = attained_radius


class WindowExceeded(ResourceCapError):
    """A coset walk left the materialized percolation window [-W, W]."""
