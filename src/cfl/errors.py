"""Error taxonomy shared by all modules.

The CLI maps these onto exit codes: InputError (and any OSError) -> 2,
ResourceError, NumericalError, GenerationError and InvariantError -> 3.
Any other exception is a defect; the CLI reports it as one
"error: internal: <Type>: <message>" line and exits 3 as well.  Audit
failures are data, not exceptions, and exit with code 1 at the CLI layer,
so code 1 always means the report was written.
"""


class InputError(ValueError):
    """Malformed or out-of-contract input (bad vertex ids, bad flags, bad files)."""


class ParseError(InputError):
    """Malformed graph text; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ResourceError(RuntimeError):
    """A declared resource budget was exceeded; the message names the budget."""


class NumericalError(RuntimeError):
    """A solver failed to converge or returned an uncertifiable status."""


class GenerationError(RuntimeError):
    """Random generation exhausted its restart budget."""


class InvariantError(RuntimeError):
    """A value violated one of its declared invariants (e.g. f(T) > 1 + 10*tol)."""
