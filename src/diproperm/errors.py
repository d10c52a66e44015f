"""Exception types shared across the package.

Everything derives from DppError so callers can catch the package's
failures with one handler; the CLI maps subfamilies to exit codes.
"""


class DppError(Exception):
    """Base class for all errors raised by this package.

    An error raised while permutation b is re-fit or scored carries
    perm_index = b, and its message ends with "(permutation b)".
    """

    perm_index: int | None = None

    def __str__(self):
        where = "" if self.perm_index is None else f" (permutation {self.perm_index})"
        return super().__str__() + where


class ValidationError(DppError, ValueError):
    """Input violates a documented precondition or invariant."""


class ParseError(ValidationError):
    """A file token could not be parsed; carries 1-based row/col."""

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        loc = ""
        if row is not None:
            loc = f" (row {row}" + (f", col {col})" if col is not None else ")")
        super().__init__(message + loc)
        self.row = row
        self.col = col


class RaggedRowsError(ParseError):
    """Rows of a dense file have differing column counts."""


class LabelDomainError(ValidationError):
    """A class label is not -1 or 1; carries the 1-based row if from a file."""

    def __init__(self, value, row: int | None = None):
        super().__init__(
            f"class label {value!r} is not in {{-1, 1}}; recode labels to -1/1 "
            "before loading (e.g. map 2 -> -1)"
            + (f" (row {row})" if row is not None else "")
        )
        self.value = value
        self.row = row


class NonMonotoneIndexError(ParseError):
    """Sparse-format feature indices are not strictly increasing."""


class DatasetEmptyError(ValidationError):
    """The input file contains no samples."""


class SingleClassError(ValidationError):
    """Both classes are required but only one is present."""


class DimensionMismatchError(ValidationError):
    """Vector/matrix shapes are inconsistent."""


class ZeroDirectionError(ValidationError):
    """The requested direction is undefined (zero-length vector)."""


class DegenerateScaleError(ValidationError):
    """Between-class distances are all ~0; no usable data scale."""


class ZeroVarianceError(ValidationError):
    """A variance-based quantity is undefined because the spread is 0."""


class InfeasibleBalanceError(ValidationError):
    """A balanced relabeling cannot be constructed for these class sizes."""


class EmptyError(ValidationError):
    """An operation received an empty collection."""


class PanelUnavailableError(DppError):
    """The requested diagnostic panel was not retained in the result."""


class WorkerLostError(DppError):
    """A pool worker process died (killed, say, or out of memory) before
    its block of permutations was done."""


class NonConvergedError(DppError):
    """Solver stopped (iteration cap, no descent left) short of its tolerance.

    The partially-converged model is attached for inspection.
    """

    def __init__(self, iterations: int, kkt_residual: float, model=None):
        super().__init__(
            f"solver did not converge: {iterations} iterations, "
            f"residual {kkt_residual:.3e}"
        )
        self.iterations = iterations
        self.kkt_residual = kkt_residual
        self.model = model

    def __reduce__(self):  # custom args and perm_index across processes
        return (
            self.__class__,
            (self.iterations, self.kkt_residual, self.model),
            self.__dict__,
        )
