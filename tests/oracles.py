"""Reference decisions for the tests, independent of the code under test."""

from fractions import Fraction
from math import factorial, lcm, prod
from operator import mul
from typing import Sequence

from fsig.exact import Vector, determinant, lattice_points_in_box
from fsig.signature import _boundary_fan


def dot(u: Sequence, v: Sequence):
    """Scalar product; works for int and Fraction entries alike."""
    if len(u) != len(v):
        raise ValueError("dimension mismatch in scalar product")
    return sum(map(mul, u, v))


def is_natural_combination(v: Sequence[int], generators: Sequence[Vector]) -> bool:
    """Whether v is a sum of generators with nonnegative integer multiplicities.

    Depth-first search with componentwise dominance pruning; terminates
    because generators are nonzero and nonnegative.
    """
    target = tuple(int(x) for x in v)
    if any(x < 0 for x in target):
        return False
    cache: dict[Vector, bool] = {}

    def reach(u: Vector) -> bool:
        if all(x == 0 for x in u):
            return True
        hit = cache.get(u)
        if hit is not None:
            return hit
        cache[u] = False  # cuts revisits along the current search path
        for g in generators:
            w = tuple(a - b for a, b in zip(u, g))
            if all(x >= 0 for x in w) and reach(w):
                cache[u] = True
                return True
        return False

    return reach(target)


def counted_by_enumeration(basis, bounds, avoid=()) -> int:
    """Oracle for count_lattice_points: enumerate the box, drop dominating points."""
    return sum(
        1
        for u in lattice_points_in_box(basis, bounds)
        if not any(all(a >= b for a, b in zip(u, v)) for v in avoid)
    )


def fraction_tight_sets(half_spaces, vertices) -> set[int]:
    """Per half-space (a, b), the bitmask of the vertices v with a . v == b.

    Evaluated on the rational vertices in Fraction arithmetic, with no
    homogeneous coordinates.
    """
    return {
        sum(1 << j for j, v in enumerate(vertices) if sum(x * y for x, y in zip(a, v)) == b)
        for a, b in half_spaces
    }


def fan_volume(polytope) -> Fraction:
    """The polytope's volume summed one simplex at a time over the listed fan.

    Every simplex of _boundary_fan on a facet missing the origin gets its own
    Bareiss determinant of the cleared vertex rows r_i, times the weights
    L / t_i (L the lcm of the scales t_i), over L^d d!.  It reads the same
    fan as polytope_volume, so it checks the walk's elimination, not the
    face lattice.
    """
    d = polytope.dim
    if d == 0:
        return Fraction(1)
    scales, rows = polytope._homogeneous
    origin = rows.index([0] * d)
    common = lcm(*scales)
    numerator = sum(
        abs(determinant([rows[i] for i in s])) * prod(common // scales[i] for i in s)
        for facet, simplices in _boundary_fan(polytope).items()
        if not facet >> origin & 1
        for s in simplices
    )
    return Fraction(numerator, common**d * factorial(d))
