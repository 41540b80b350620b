"""Reference decisions for the tests, independent of the code under test."""

from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, lcm, prod
from operator import le, mul, sub
from typing import Sequence

from fsig.cone import FacetFunctional, FullEmbedding, extreme_rays, full_embedding
from fsig.exact import (
    IntegerMatrix,
    Vector,
    clear_denominators,
    determinant,
    gauss_jordan,
    lattice_coordinates,
    lattice_points_in_box,
    rational_determinant,
    vadd,
)
from fsig.semigroup import build_context
from fsig.signature import _facets, _pulled, _tight_sets


def vsub(u: Sequence, v: Sequence) -> tuple:
    return tuple(map(sub, u, v))


def primitive_vector(vec: Sequence) -> Vector:
    """The unique primitive integer vector that is a positive multiple of vec.

    Entries are ints or Fractions; the denominators are cleared in integers.
    """
    try:
        g = gcd(*vec)
    except TypeError:  # a Fraction entry: clear the denominators first
        g = gcd(*(vec := clear_denominators(vec)[1]))
    if g == 0:
        raise ValueError("the zero vector has no primitive form")
    return tuple(x // g for x in vec)


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


def scaled_inverse(rows: Sequence[Sequence[int]]) -> tuple[int, tuple[Vector, ...] | None]:
    """(d, B) with B @ A = A @ B = d * I and d = +-det A, or (0, None) if singular.

    The square case of exact.gauss_jordan: its left block ends as d * I.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("scaled_inverse requires a square matrix")
    pivots, d, inverse = gauss_jordan(rows)
    return (d, inverse) if len(pivots) == n else (0, None)


def euclid_hermite_basis(m: IntegerMatrix) -> IntegerMatrix:
    """Oracle for exact.hermite_basis: Euclid on each column, the smallest entry as pivot.

    Column by column, the row below the finished ones whose entry is smallest
    in absolute value becomes the pivot and every other row below is reduced
    by it, until one nonzero entry is left; the pivot is then made positive
    and every entry above it reduced into [0, pivot).  The Hermite normal
    form is unique, so the two must agree row for row.
    """
    work = [list(r) for r in m.rows]
    n, r = len(work), 0
    for col in range(m.ncols):
        while True:
            nz = [i for i in range(r, n) if work[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(work[i][col]), i))
            work[r], work[i0] = work[i0], work[r]
            others = [i for i in range(r + 1, n) if work[i][col] != 0]
            if not others:
                break
            for i in others:
                q = work[i][col] // work[r][col]
                work[i] = [a - q * b for a, b in zip(work[i], work[r])]
        if r < n and work[r][col] != 0:
            if work[r][col] < 0:
                work[r] = [-a for a in work[r]]
            for i in range(r):
                q = work[i][col] // work[r][col]
                work[i] = [a - q * b for a, b in zip(work[i], work[r])]
            r += 1
    return IntegerMatrix(tuple(tuple(row) for row in work[:r]))


def gram_inverse_embedding(ctx) -> FullEmbedding:
    """Oracle for full_embedding: the facets from the generators' lattice coordinates.

    The rows w of T are the primitive extreme rays of the dual of the cone
    of the generator coordinates, and the generator images are their values
    on those coordinates.  The ambient functional of w is y @ basis with
    gram @ y = w, taken from one scaled inverse d * gram^-1 of the basis's
    Gram matrix: d * y @ basis is a positive multiple g of its primitive ray,
    over the denominator d / g.
    """
    basis = ctx.lattice.rows
    coords = lattice_coordinates(ctx.presentation.generators, ctx.lattice)
    d, inverse = scaled_inverse([[dot(bi, bj) for bj in basis] for bi in basis])
    assert d > 0, "the Gram matrix of independent rows is positive definite"
    facets = []
    for w, _ in extreme_rays(coords):
        y = [dot(row, w) for row in inverse]  # d times the solution of gram @ y = w
        scaled = [dot(y, column) for column in zip(*basis)]
        g = gcd(*scaled)
        facets.append((tuple(x // g for x in scaled), d // g, w))
    facets.sort()
    functionals = tuple(
        FacetFunctional(ray, m, tuple(dot(w, c) for c in coords)) for ray, m, w in facets
    )
    images = tuple(zip(*(f.values_on_generators for f in functionals)))
    return FullEmbedding(functionals, IntegerMatrix(w for _, _, w in facets), images, ctx.rank)


def counted_by_enumeration(basis, bounds, avoid=()) -> int:
    """Oracle for count_lattice_points: enumerate the box, drop dominating points."""
    return sum(
        1
        for u in lattice_points_in_box(basis, bounds)
        if not any(all(a >= b for a, b in zip(u, v)) for v in avoid)
    )


def leaf_front(live, leaf) -> list[Vector]:
    """Oracle for the counter's last-level front: each live item (v, end, bit)
    projected onto the leaf columns, and the distinct projections minimal there.

    Sorted, a projection comes after every projection below it, so one
    dominance scan against the minimal ones found so far decides it.
    """
    minimal: list[Vector] = []
    for u in sorted({tuple(v[j] for j in leaf) for v, _, _ in live}):
        if not any(all(map(le, w, u)) for w in minimal):
            minimal.append(u)
    return minimal


def closure_aq(presentation, q: int) -> int:
    """Oracle for brute_force_aq: the same closure from 0, on tuples.

    Adds generator images while every coordinate stays below q and counts the
    distinct points reached; nothing is packed and no generator is dropped.
    """
    images = full_embedding(build_context(presentation)).image_generators
    zero = (0,) * len(images[0])
    seen = {zero}
    frontier = [zero]
    while frontier:
        point = frontier.pop()
        for g in images:
            nxt = vadd(point, g)
            if nxt not in seen and max(nxt) < q:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen)


def class_group_torsion(emb: FullEmbedding) -> int:
    """h = g_T, the gcd of the d x d minors of T: the order of the torsion of
    the class group Z^n / T(M).

    The torsion cover is etale in codimension 1 of degree h, so s <= 1/h
    (Carvajal-Rojas, Schwede and Tucker, 2018); for a square T, s = 1/|det T| = 1/h.
    """
    return gcd(*(determinant(minor) for minor in combinations(emb.matrix_T.rows, emb.rank)))


def minimal_elements(vectors: Sequence[Vector]) -> tuple[Vector, ...]:
    """Oracle for frobenius._minimalize: the componentwise-minimal vectors, by (sum, vector)."""
    kept: list[Vector] = []
    for v in sorted(set(vectors), key=lambda u: (sum(u), u)):
        if not any(all(map(le, w, v)) for w in kept):
            kept.append(v)
    return tuple(kept)


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
