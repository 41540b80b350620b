"""Affine semigroups given by generator exponent vectors.

A presentation is a finite list of nonzero vectors in N^r.  The context
derived from it fixes lattice coordinates: a Hermite basis of the group
generated by the generators, against which all downstream functionals and
counts are expressed.

Membership below is only meaningful for normal semigroups; normality itself
is an assumption of the signature pipeline, and check_normal certifies it up
to a finite bound only.  It closes the generators inside the box once per
call and compares that set with the group-and-cone points of the box.
"""

from dataclasses import dataclass
from operator import add, mul
from typing import Sequence

from .errors import EmptyPresentation, InvalidPresentation
from .exact import (
    IntegerMatrix,
    Vector,
    dot,
    express_in_basis,
    hermite_basis,
    lattice_points_in_box,
    primitive_vector,
)


@dataclass(frozen=True)
class SemigroupPresentation:
    """Ambient rank plus a duplicate-free list of nonzero generators in N^r."""

    ambient_rank: int
    generators: tuple[Vector, ...]
    name: str | None = None

    def __post_init__(self):
        if self.ambient_rank < 1:
            raise InvalidPresentation("ambient rank must be a positive integer")
        gens = tuple(tuple(int(x) for x in g) for g in self.generators)
        if not gens:
            raise EmptyPresentation("a presentation needs at least one generator")
        seen = set()
        for g in gens:
            if len(g) != self.ambient_rank:
                raise InvalidPresentation(
                    f"generator {g} does not have {self.ambient_rank} coordinates"
                )
            if any(x < 0 for x in g):
                raise InvalidPresentation(f"generator {g} has a negative coordinate")
            if all(x == 0 for x in g):
                raise InvalidPresentation("the zero vector is not a valid generator")
            if g in seen:
                raise InvalidPresentation(f"duplicate generator {g}")
            seen.add(g)
        object.__setattr__(self, "generators", gens)


@dataclass(frozen=True)
class SemigroupContext:
    """A presentation with its lattice coordinates fixed.

    lattice is a Hermite basis of the group generated by the generators;
    rank is the number of basis rows, which equals the Krull dimension of
    the associated monomial ring.  generator_coords caches each generator
    expressed against the basis.
    """

    presentation: SemigroupPresentation
    lattice: IntegerMatrix
    rank: int
    generator_coords: tuple[Vector, ...]


def build_context(presentation: SemigroupPresentation) -> SemigroupContext:
    """Fix lattice coordinates for a presentation."""
    matrix = IntegerMatrix(presentation.generators)
    lattice = hermite_basis(matrix)
    coords = []
    for g in presentation.generators:
        c = express_in_basis(g, lattice)
        if c is None:  # cannot happen: the basis spans the generators
            raise InvalidPresentation(f"generator {g} escaped its own lattice")
        coords.append(c)
    return SemigroupContext(presentation, lattice, lattice.nrows, tuple(coords))


def member(ctx: SemigroupContext, facets: Sequence, v: Sequence[int]) -> bool:
    """Membership test for a NORMAL semigroup.

    For normal semigroups, v belongs iff it lies in the generated group and
    every facet functional is nonnegative on it.  facets must come from the
    same context (see the cone module).
    """
    if len(v) != ctx.presentation.ambient_rank:
        raise ValueError("vector length does not match the ambient rank")
    if express_in_basis(v, ctx.lattice) is None:
        return False
    return all(dot(f.coefficients, v) >= 0 for f in facets)


@dataclass(frozen=True)
class NormalityVerdict:
    """Outcome of the bounded normality check.

    normal=True certifies saturation only for group-and-cone members with
    coordinates up to the recorded bound.
    """

    normal: bool
    counterexample: Vector | None
    bound: int


def check_normal(ctx: SemigroupContext, facets: Sequence, bound: int) -> NormalityVerdict:
    """Bounded normality diagnostic.

    Enumerates every group member v with 0 <= v_i <= bound and all facet
    values >= 0, and verifies that each is a nonnegative integer combination
    of the generators; the first failure is returned as a counterexample.

    The combinations inside the box are found once per call, by closure from
    0: generators are nonnegative, so every partial sum of an in-box
    combination stays in the box.  Facet signs are read off integer rows,
    each the primitive positive multiple of a functional's coefficients.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    gens = ctx.presentation.generators
    zero = (0,) * ctx.presentation.ambient_rank
    combinations = {zero}
    frontier = [zero]
    while frontier:
        u = frontier.pop()
        for g in gens:
            w = tuple(map(add, u, g))
            if max(w) <= bound and w not in combinations:
                combinations.add(w)
                frontier.append(w)
    rows = [primitive_vector(f.coefficients) for f in facets]
    box = [bound] * ctx.presentation.ambient_rank
    for v in lattice_points_in_box(ctx.lattice, box):
        if v not in combinations and all(sum(map(mul, row, v)) >= 0 for row in rows):
            return NormalityVerdict(False, v, bound)
    return NormalityVerdict(True, None, bound)
