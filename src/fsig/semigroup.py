"""Affine semigroups given by generator exponent vectors.

A presentation is a finite list of nonzero vectors in N^r.  The context
derived from it fixes lattice coordinates: a Hermite basis of the group
generated by the generators, against which all downstream functionals and
counts are expressed.

Normality is an assumption of the signature pipeline, and check_normal
certifies it up to a finite bound only, against a bitset over the box.
"""

from operator import index, mul
from typing import NamedTuple, Sequence

from .errors import EmptyPresentation, InvalidPresentation
from .exact import (
    IntegerMatrix,
    Vector,
    _lattice_runs,
    _pivot_columns,
    hermite_basis,
    lattice_coordinates,
)


class SemigroupPresentation(
    NamedTuple(
        "SemigroupPresentation",
        [("ambient_rank", int), ("generators", tuple[Vector, ...]), ("name", str | None)],
    )
):
    """Ambient rank plus a duplicate-free list of nonzero generators in N^r."""

    __slots__ = ()

    def __new__(cls, ambient_rank, generators, name=None):
        try:
            rank = index(ambient_rank)
        except TypeError:
            rank = 0
        if rank < 1:
            raise InvalidPresentation("ambient rank must be a positive integer")
        try:
            gens = tuple(tuple(map(index, g)) for g in generators)
        except TypeError:
            raise InvalidPresentation("generator coordinates must be integers") from None
        if not gens:
            raise EmptyPresentation("a presentation needs at least one generator")
        seen = set()
        for g in gens:
            if len(g) != rank:
                raise InvalidPresentation(f"generator {g} does not have {rank} coordinates")
            if any(x < 0 for x in g):
                raise InvalidPresentation(f"generator {g} has a negative coordinate")
            if all(x == 0 for x in g):
                raise InvalidPresentation("the zero vector is not a valid generator")
            if g in seen:
                raise InvalidPresentation(f"duplicate generator {g}")
            seen.add(g)
        return super().__new__(cls, rank, gens, name)


class SemigroupContext(NamedTuple):
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
    coords = tuple(lattice_coordinates(presentation.generators, lattice))
    if None in coords:  # cannot happen: the basis spans the generators
        g = presentation.generators[coords.index(None)]
        raise InvalidPresentation(f"generator {g} escaped its own lattice")
    return SemigroupContext(presentation, lattice, lattice.nrows, coords)


class NormalityVerdict(NamedTuple):
    """Outcome of the bounded normality check.

    normal=True certifies saturation only for group-and-cone members with
    coordinates up to the recorded bound.
    """

    normal: bool
    counterexample: Vector | None
    bound: int


def _tile(pattern: int, width: int, copies: int) -> int:
    """sum(pattern << i * width for i in range(copies)), built by doubling."""
    odd = pattern << (copies - 1) * width if copies % 2 else 0
    return odd if copies < 2 else odd | _tile(pattern | pattern << width, 2 * width, copies // 2)


def check_normal(ctx: SemigroupContext, facets: Sequence, bound: int) -> NormalityVerdict:
    """Bounded normality diagnostic.

    Decides whether every group member v with 0 <= v_i <= bound and all facet
    values >= 0 is a nonnegative integer combination of the generators; the
    lexicographically least failure is returned as a counterexample.  facets
    are FacetFunctionals (emb.functionals), read as their integer rays.

    Closes the generators once per call in a bitset with bit sum_k u_k * B^(d-1-k) for
    Hermite pivot coordinates u in [0, bound]^d, B = bound + 1.  These fix a lattice point,
    and bit order is lexicographic.  Facets cut each run of _lattice_runs to a bit progression.
    """
    bound = index(bound)
    if bound < 1:
        raise ValueError("bound must be at least 1")
    base, pivots = bound + 1, _pivot_columns(ctx.lattice)
    weights = {p: base**k for k, p in enumerate(reversed(pivots))}  # least significant first
    reach = 1
    for g in ctx.presentation.generators:
        if max(g) <= bound:
            source, shift = 1, 0  # source: the cells u with u + g in [0, bound]^d
            for p, w in weights.items():
                source, shift = _tile(source, w, base - g[p]), shift + g[p] * w
            while (grown := reach | (reach & source) << shift) != reach:
                reach = grown
    bits = reach.to_bytes(reach.bit_length() // 8 + 1, "little")  # a run reads only its bytes
    last, step = ctx.lattice.rows[-1], ctx.lattice.rows[-1][pivots[-1]]
    rows = [f.ray for f in facets]
    slopes = [sum(map(mul, row, last)) for row in rows]
    progression = _tile(1, step, bound + 1)  # a run's cells, masked to its length below
    for point, lo, hi in _lattice_runs(ctx.lattice, [bound] * ctx.presentation.ambient_rank):
        for row, slope in zip(rows, slopes):
            value = sum(map(mul, row, point))
            if slope > 0:
                lo = max(lo, -(value // slope))
            elif slope < 0:
                hi = min(hi, value // -slope)
            elif value < 0:
                hi = lo - 1
            if lo > hi:
                break
        else:
            start = sum(point[p] * w for p, w in weights.items()) + lo * step
            window = int.from_bytes(bits[start >> 3 : start + (hi - lo) * step + 8 >> 3], "little")
            run = progression & (2 << (hi - lo) * step) - 1
            missing = run & ~(window >> (start & 7))
            if missing:
                c = lo + ((missing & -missing).bit_length() - 1) // step
                return NormalityVerdict(False, tuple(a + c * s for a, s in zip(point, last)), bound)
    return NormalityVerdict(True, None, bound)
