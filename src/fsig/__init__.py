"""Exact F-signature computation for normal affine semigroup rings.

The semigroup is presented by monomial exponent vectors; every number the
package produces is an exact integer or rational.  The package namespace
holds the pipeline and the errors; the modules hold the rest.  Each exported
name is imported from its module on first access (PEP 562), so importing the
package loads no layer that its caller does not use.
"""

from importlib import import_module

__version__ = "0.1.0"

# (module, the names it exports), in the order of __all__
_EXPORTS = (
    ("semigroup", ("SemigroupPresentation", "build_context", "check_normal")),
    ("cone", ("full_embedding",)),
    ("signature", ("signature_polytope", "polytope_volume", "f_signature")),
    ("frobenius", ("count_aq", "brute_force_aq", "hk_difference_identity")),
    ("families", ("segre_generators", "veronese_generators")),
    (
        "errors",
        (
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
        ),
    ),
)

__all__ = [name for _, names in _EXPORTS for name in names]


def __getattr__(name: str):
    for module, names in _EXPORTS:
        if name in names:
            value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
