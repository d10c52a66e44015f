"""Exception types shared across the package, and its integer test.

Everything derives from DppError so callers can catch the package's
failures with one handler; the CLI maps subfamilies to exit codes.
"""

import copyreg
import numbers


def is_integer(value) -> bool:
    """The one test of an integer argument: an int or numpy integer, but
    not a bool (which Python counts as an int)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class DppError(Exception):
    """Base class for all errors raised by this package.

    An error may carry a 1-based file row and col, and one raised while
    permutation b is re-fit or scored carries perm_index = b; its message
    then ends with "(row r, col c)", "(row r)" or "(permutation b)".  A
    pickle rebuilds it from args (the message without the location) and
    its attributes, calling no subclass __init__.
    """

    perm_index: int | None = None

    def __init__(self, *args, row: int | None = None, col: int | None = None):
        super().__init__(*args)
        self.row, self.col = row, col

    def __str__(self):
        where = ""
        if self.row is not None:
            where = f" (row {self.row}" + (f", col {self.col})" if self.col is not None else ")")
        if self.perm_index is not None:
            where += f" (permutation {self.perm_index})"
        return super().__str__() + where

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ValidationError(DppError, ValueError):
    """Input violates a documented precondition or invariant."""


class ParseError(ValidationError):
    """A file token could not be parsed; carries 1-based row/col."""


class RaggedRowsError(ParseError):
    """Rows of a dense file have differing column counts."""


class LabelDomainError(ValidationError):
    """A class label is not -1 or 1; carries the 1-based row if from a file.
    One raised on loading data (`recode`) says how to fix the data."""

    def __init__(self, value, row: int | None = None, recode: bool = False):
        advice = "; recode labels to -1/1 before loading (e.g. map 2 -> -1)" if recode else ""
        super().__init__(f"class label {value!r} is not in {{-1, 1}}{advice}", row=row)
        self.value = value


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
    """Between-class distances are all ~0, or X Xᵀ overflows: no usable data scale."""


class ZeroVarianceError(ValidationError):
    """A variance-based quantity is undefined because the spread is 0."""


class InfeasibleBalanceError(ValidationError):
    """A balanced relabeling cannot be constructed for these class sizes."""


class EmptyError(ValidationError):
    """An operation received an empty collection."""


class PanelUnavailableError(DppError):
    """The result holds no record of the permutation a score panel shows."""


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
