"""Exception hierarchy shared across the package.

Three kinds of error, by whose fault it is:

- ValueError: a broken caller contract (a parameter below 1, a hand-built
  object that breaks its invariants; TypeError for a non-integer parameter).
- FsigError subclasses: the input's fault.  The CLI maps them onto exit
  codes: ParseError -> 2, PreconditionError -> 3, BudgetError -> 4.
- ArithmeticError: a broken internal invariant, a bug that surfaces as a
  traceback.
"""


class FsigError(Exception):
    """Base class for all package-specific errors."""


class ParseError(FsigError):
    """An input document is malformed or violates the document schema."""


class PreconditionError(FsigError):
    """A mathematical precondition of the pipeline is violated."""


class BudgetError(FsigError):
    """An enumeration exceeded its configured work budget."""


class EmptyPresentation(PreconditionError):
    """A semigroup presentation with no generators."""


class InvalidPresentation(PreconditionError):
    """An ambient rank below 1, or generators negative, zero, duplicated or of wrong length."""


class Unbounded(PreconditionError):
    """The signature slab contains a line or is flat; the embedding is invalid."""


class NotPrimary(PreconditionError):
    """A colength count detected an infinite quotient."""


class InvalidParams(PreconditionError):
    """Family constructor parameters outside their allowed range."""


class NonNormalInput(PreconditionError):
    """A normality check produced a counterexample witness."""


class BudgetExceeded(BudgetError):
    """An enumeration or a count exceeded its configured cap.

    reached is the count at which it stopped, some number above the cap.
    """

    def __init__(self, message: str, reached: int):
        super().__init__(message)
        self.reached = reached
