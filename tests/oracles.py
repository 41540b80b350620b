"""Reference decisions for the tests, independent of the code under test."""

from fractions import Fraction
from math import factorial, lcm, prod
from operator import mul
from typing import Sequence

from fsig.exact import Vector, determinant, lattice_points_in_box, rational_determinant, vsub
from fsig.signature import _facets, _pulled, _tight_sets


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


def _triangulate(face: int, tight: set[int], memo: dict, fans: dict) -> list[tuple[int, ...]]:
    if face not in fans:  # each face is listed once per call
        apex, facets, _ = _pulled(face, tight, memo)
        simplices = [(apex,) + s for f in facets for s in _triangulate(f, tight, memo, fans)]
        fans[face] = simplices or [(apex,)]  # a vertex has no facets
    return fans[face]


def boundary_fan(polytope) -> dict[int, list[tuple[int, ...]]]:
    """The facets of the polytope, each with a fan triangulation.

    A face is the bitmask of its vertex indices.  The facets of a face F are
    the inclusion-maximal proper nonempty F & tight_i, where tight_i holds the
    vertices on the boundary of half-space i (see signature._tight_sets).  A
    face is fanned from its lowest-index (lex-least) vertex over its facets
    that miss that vertex, down to single vertices (see signature._pulled).
    Simplices are tuples of vertex indices.  The volume walk follows the same
    fan without listing it.
    """
    tight = _tight_sets(polytope)
    everything = (1 << len(polytope.vertices)) - 1
    memo, fans = {}, {}
    return {f: _triangulate(f, tight, memo, fans) for f in _facets(everything, tight)}


def fan_volume(polytope) -> Fraction:
    """The polytope's volume summed one simplex at a time over the listed fan.

    Every simplex of boundary_fan on a facet missing the origin gets its own
    Bareiss determinant of the cleared vertex rows r_i, times the weights
    L / t_i (L the lcm of the scales t_i), over L^d d!.  It reads the same
    fan as the volume walk, so it checks the walk's elimination, not the
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
        for facet, simplices in boundary_fan(polytope).items()
        if not facet >> origin & 1
        for s in simplices
    )
    return Fraction(numerator, common**d * factorial(d))


def centroid_volume(polytope) -> Fraction:
    """The polytope's volume as a sum of pyramids over the vertex centroid.

    Every simplex of boundary_fan, on every facet, is coned from the centroid
    of the vertices and measured by a Fraction determinant of the vertices
    less the centroid.  No vertex row is cleared and no facet is skipped, so
    it shares neither the walk's elimination nor its choice of the origin.
    """
    vertices = polytope.vertices
    centroid = tuple(sum(column) / len(vertices) for column in zip(*vertices))
    apart = [vsub(v, centroid) for v in vertices]
    return sum(
        abs(rational_determinant([apart[i] for i in s]))
        for simplices in boundary_fan(polytope).values()
        for s in simplices
    ) / factorial(polytope.dim)
