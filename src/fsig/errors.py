"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ParseError -> 2, PreconditionError -> 3,
BudgetError -> 4.  Plain ValueError is reserved for caller contract
violations (wrong dimensions, non-square determinant input, and the like).
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
    """Generators that are negative, zero, duplicated, or of wrong length."""


class DegenerateCone(PreconditionError):
    """The generators span only the zero cone, or the embedding lost rank."""


class ZeroFunctional(PreconditionError):
    """A candidate facet functional vanishes on every generator."""


class WitnessNotFound(PreconditionError):
    """No fraction-field witness exists; input is non-normal or degenerate."""


class Unbounded(PreconditionError):
    """The signature polytope is unbounded; the embedding is invalid."""


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
