"""Exact F-signature computation for normal affine semigroup rings.

The semigroup is presented by monomial exponent vectors; every number the
package produces is an exact integer or rational.  The package namespace
holds the pipeline and the errors; the modules hold the rest.
"""

from .cone import full_embedding
from .errors import (
    BudgetError,
    BudgetExceeded,
    EmptyPresentation,
    FsigError,
    InvalidParams,
    InvalidPresentation,
    NonNormalInput,
    NotPrimary,
    ParseError,
    PreconditionError,
    Unbounded,
)
from .families import segre_generators, veronese_generators
from .frobenius import brute_force_aq, count_aq, hk_difference_identity
from .semigroup import SemigroupPresentation, build_context, check_normal
from .signature import f_signature, polytope_volume, signature_polytope

__version__ = "0.1.0"

__all__ = [
    "SemigroupPresentation",
    "build_context",
    "check_normal",
    "full_embedding",
    "signature_polytope",
    "polytope_volume",
    "f_signature",
    "count_aq",
    "brute_force_aq",
    "hk_difference_identity",
    "segre_generators",
    "veronese_generators",
    "BudgetError",
    "BudgetExceeded",
    "EmptyPresentation",
    "FsigError",
    "InvalidParams",
    "InvalidPresentation",
    "NonNormalInput",
    "NotPrimary",
    "ParseError",
    "PreconditionError",
    "Unbounded",
]
