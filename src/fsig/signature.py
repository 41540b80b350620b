"""The signature polytope and its exact volume.

For an embedding T of rank d, the polytope is {x in R^d : 0 <= (Tx)_i <= 1}.
Counting group elements whose image lies in [0, q-1]^n is, up to O(q^{d-1}),
q^d times the volume of this polytope, so the exact rational volume is the
limit of those normalized counts.  Vertices are found by double description
on the homogenization cone, as primitive integer rays (r, t) for the vertex
r / t, and the volume is computed in these integer rows and scales: integer
tight sets give the vertex-incidence face lattice (faces are bitmasks of
vertices); its fan is walked with one fraction-free step per face, |det| read
at each vertex over one denominator; self_check keeps the centroid route.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, lcm
from operator import mul

from .cone import FullEmbedding, extreme_rays, full_embedding
from .errors import Unbounded
from .exact import Vector, clear_denominators, matrix_rank, rational_determinant, vsub
from .semigroup import SemigroupPresentation, build_context

RationalVector = tuple[Fraction, ...]


@dataclass(frozen=True)
class SignaturePolytope:
    """H-representation and vertices of {x : 0 <= (Tx)_i <= 1}.

    half_spaces lists pairs (a, b) meaning a . x <= b, two per embedding
    coordinate.  Vertices are sorted lexicographically; the origin is always
    one of them.
    """

    half_spaces: tuple[tuple[Vector, int], ...]
    vertices: tuple[RationalVector, ...]
    dim: int

    @cached_property
    def _homogeneous(self) -> tuple[tuple[int, ...], tuple[list[int], ...]]:
        """Scales t_j and primitive integer rows r_j, vertex j = r_j / t_j.

        These are the cleared vertices; signature_polytope sets its DD rays here.
        """
        return tuple(zip(*map(clear_denominators, self.vertices)))


@dataclass(frozen=True)
class SignatureResult:
    value: Fraction
    polytope: SignaturePolytope
    embedding: FullEmbedding

    def __post_init__(self):
        if not 0 < self.value <= 1:
            raise ArithmeticError(f"signature {self.value} outside (0, 1]")


def signature_polytope(emb: FullEmbedding) -> SignaturePolytope:
    """Assemble the 2n half-spaces and enumerate the vertices exactly.

    The polytope is homogenized to a pointed cone in dimension d + 1 whose
    extreme rays (x, t) with t > 0 are the vertices x / t; a ray with t = 0
    would be a recession direction, which signals an invalid embedding.
    """
    d = emb.rank
    half_spaces = []
    for w in emb.matrix_T.rows:
        half_spaces.append((tuple(-a for a in w), 0))  # w . x >= 0
        half_spaces.append((w, 1))  # w . x <= 1
    # homogenized, a . x <= b reads b t - a . x >= 0; t >= 0 closes the cone
    rays = extreme_rays([tuple(-x for x in a) + (b,) for a, b in half_spaces] + [(0,) * d + (1,)])
    if any(ray[-1] == 0 for ray in rays):
        raise Unbounded("signature polytope has a recession direction")
    if (0,) * d + (1,) not in rays:
        raise Unbounded("origin is not a vertex; embedding is invalid")
    if matrix_rank(rays) != d + 1:
        raise Unbounded("signature polytope is not full-dimensional")
    # vertex r / t is sorted as the integer row r * (L / t), L the lcm of the scales
    common = lcm(*(ray[-1] for ray in rays))
    ordered = sorted(rays, key=lambda ray: [x * (common // ray[-1]) for x in ray[:-1]])
    vertices = tuple(tuple(Fraction(x, r[-1]) for x in r[:-1]) for r in ordered)
    polytope = SignaturePolytope(tuple(half_spaces), vertices, d)
    homogeneous = tuple(r[-1] for r in ordered), tuple(list(r[:-1]) for r in ordered)
    object.__setattr__(polytope, "_homogeneous", homogeneous)  # fills the cached_property
    return polytope


def _facets(face: int, tight: set[int]) -> list[int]:
    # largest first: a set can only lie inside a larger one already kept
    kept: list[int] = []
    for f in sorted({face & t for t in tight} - {0, face}, key=int.bit_count, reverse=True):
        if not any(f & g == f for g in kept):
            kept.append(f)
    return kept


def _pulled(face: int, tight: set[int], memo: dict) -> tuple[int, list[int]]:
    """Apex (lowest vertex index) of a face and its facets missing the apex, memoized."""
    if face not in memo:
        apex = (face & -face).bit_length() - 1
        memo[face] = apex, [f for f in _facets(face, tight) if not f >> apex & 1]
    return memo[face]


def _triangulate(face: int, tight: set[int], memo: dict, fans: dict) -> list[tuple[int, ...]]:
    if face not in fans:  # each face is listed once per call
        apex, facets = _pulled(face, tight, memo)
        simplices = [(apex,) + s for f in facets for s in _triangulate(f, tight, memo, fans)]
        fans[face] = simplices or [(apex,)]  # a vertex has no facets
    return fans[face]


def _boundary_fan(polytope: SignaturePolytope) -> dict[int, list[tuple[int, ...]]]:
    """The facets of the polytope, each with a fan triangulation.

    A face is the bitmask of its vertex indices.  The facets of a face F are
    the inclusion-maximal proper nonempty F & tight_i, where tight_i holds the
    vertices on the boundary of half-space i (see _tight_sets).  A face is
    fanned from its lowest-index (lex-least) vertex over its facets that miss
    that vertex, down to single vertices (see _pulled).  Simplices are tuples
    of vertex indices.  polytope_volume walks the same fan without listing it.
    """
    tight = _tight_sets(polytope)
    everything = (1 << len(polytope.vertices)) - 1
    memo, fans = {}, {}
    return {f: _triangulate(f, tight, memo, fans) for f in _facets(everything, tight)}


def _tight_sets(polytope: SignaturePolytope) -> set[int]:
    """Per half-space a . x <= b, the bitmask of the j with a . r_j == b * t_j."""
    scales, rows = polytope._homogeneous
    return {
        sum(1 << j for j, (r, t) in enumerate(zip(rows, scales)) if sum(map(mul, a, r)) == b * t)
        for a, b in polytope.half_spaces
    }


def polytope_volume(polytope: SignaturePolytope, self_check: bool = False) -> Fraction:
    """Exact d-volume by fanning boundary simplices from the origin vertex.

    With vertex x_i = r_i / t_i and L the lcm of all the scales, the simplex
    on the origin and x_1..x_d has volume |det(r_1..r_d)| prod(L / t_i) over
    L^d d!.  Each facet missing the origin is walked down its fan with one
    Bareiss step per face on the apex's row; +-det is the entry left at a
    vertex, and a zero apex row (a broken face lattice) raises ArithmeticError.
    self_check=True sums centroid pyramids over every facet's fan; they must agree.
    """
    d = polytope.dim
    if d == 0:
        return Fraction(1)
    tight = _tight_sets(polytope)
    scales, rows = polytope._homogeneous
    origin = rows.index([0] * d)
    common = lcm(*scales)
    weights = [common // t for t in scales]
    memo, fans, members = {}, {}, {}  # per face: apex and facets, its fan, its other vertices

    def walk(face: int, reduced: dict, prev: int) -> int:
        # reduced[j]: vertex j's row after one Bareiss step per face above
        apex, facets = _pulled(face, tight, memo)
        if face not in members:  # reduced holds a row for every vertex of the face
            members[face] = [j for j in reduced if j != apex and face >> j & 1]
        others = members[face]
        row = reduced[apex]
        p = next(filter(None, row), 0)
        if not p or (not facets and (others or len(row) > 1)):
            raise ArithmeticError(f"face {face:#b} does not fan into simplices")
        if not facets:  # the one entry left is the simplex's determinant up to sign
            return weights[apex] * abs(p)
        c = row.index(p)
        rest = row[:c] + row[c + 1 :]
        below = {}
        for j in others:
            r = reduced[j]
            below[j] = [(p * x - r[c] * y) // prev for x, y in zip(r[:c] + r[c + 1 :], rest)]
        return weights[apex] * sum(walk(g, below, p) for g in facets)

    facets = _facets((1 << len(rows)) - 1, tight)
    numerator = sum(walk(f, dict(enumerate(rows)), 1) for f in facets if not f >> origin & 1)
    total = Fraction(numerator, common**d * factorial(d))
    if self_check:
        centroid = tuple(sum(v[j] for v in polytope.vertices) / len(rows) for j in range(d))
        apart = [vsub(v, centroid) for v in polytope.vertices]
        second = sum(
            abs(rational_determinant([apart[i] for i in s]))
            for f in facets for s in _triangulate(f, tight, memo, fans)
        ) / factorial(d)
        if second != total:
            raise ArithmeticError(f"volume decompositions disagree: {total} versus {second}")
    return total


def f_signature(presentation: SemigroupPresentation) -> SignatureResult:
    """Exact F-signature of the normal semigroup ring of the presentation.

    Pipeline: fix lattice coordinates, embed through the facet functionals,
    cut the signature polytope, take its exact volume.  Normality of the
    semigroup is the caller's responsibility (check_normal is available as a
    bounded diagnostic); the value is independent of generator order and of
    unimodular reparametrization of the ambient lattice.
    """
    ctx = build_context(presentation)
    emb = full_embedding(ctx)
    polytope = signature_polytope(emb)
    value = polytope_volume(polytope)
    return SignatureResult(value, polytope, emb)
