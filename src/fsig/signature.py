"""The signature polytope and its exact volume.

For an embedding T of rank d, the polytope is {x in R^d : 0 <= (Tx)_i <= 1}.
Counting group elements whose image lies in [0, q-1]^n is, up to O(q^{d-1}),
q^d times the volume of this polytope, so the exact rational volume is the
limit of those normalized counts.  Vertices are found by double description
on the homogenization cone, as primitive integer rays (r, t) for the vertex
r / t, and the volume is computed in these integer rows and scales: integer
tight sets give the vertex-incidence face lattice (faces are bitmasks of
vertices), and its fan triangulation is summed as integer determinants over
one common denominator.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, lcm, prod
from operator import mul

from .cone import FullEmbedding, extreme_rays, full_embedding
from .errors import Unbounded
from .exact import Vector, clear_denominators, determinant, matrix_rank, rational_determinant, vsub
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
    ordered = sorted((tuple(Fraction(x, ray[-1]) for x in ray[:-1]), ray) for ray in rays)
    polytope = SignaturePolytope(tuple(half_spaces), tuple(v for v, _ in ordered), d)
    homogeneous = tuple(r[-1] for _, r in ordered), tuple(list(r[:-1]) for _, r in ordered)
    object.__setattr__(polytope, "_homogeneous", homogeneous)  # fills the cached_property
    return polytope


def _facets(face: int, tight: set[int]) -> list[int]:
    # largest first: a set can only lie inside a larger one already kept
    kept: list[int] = []
    for f in sorted({face & t for t in tight} - {0, face}, key=int.bit_count, reverse=True):
        if not any(f & g == f for g in kept):
            kept.append(f)
    return kept


def _triangulate(face: int, tight: set[int], memo: dict) -> list[tuple[int, ...]]:
    if face not in memo:
        apex = (face & -face).bit_length() - 1
        memo[face] = [
            (apex,) + s
            for f in _facets(face, tight)
            if not f >> apex & 1
            for s in _triangulate(f, tight, memo)
        ] or [(apex,)]  # a vertex has no facets
    return memo[face]


def _boundary_fan(polytope: SignaturePolytope) -> dict[int, list[tuple[int, ...]]]:
    """The facets of the polytope, each with a fan triangulation.

    A face is the bitmask of its vertex indices.  The facets of a face F are
    the inclusion-maximal proper nonempty F & tight_i, where tight_i holds the
    vertices on the boundary of half-space i (see _tight_sets).  A face is
    fanned from its lowest-index (lex-least) vertex over its facets that miss
    that vertex, down to single vertices, and each face is triangulated once.
    Simplices are tuples of vertex indices.
    """
    tight = _tight_sets(polytope)
    everything = (1 << len(polytope.vertices)) - 1
    memo: dict[int, list[tuple[int, ...]]] = {}
    return {f: _triangulate(f, tight, memo) for f in _facets(everything, tight)}


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
    L^d d!, so the integer numerators are summed and one Fraction is built at
    the end.  With self_check=True the volume is recomputed from a second
    decomposition (pyramids over every facet from the vertex centroid, by
    rational elimination) and the two values must agree.
    """
    d = polytope.dim
    verts = polytope.vertices
    if d == 0:
        return Fraction(1)
    fan = _boundary_fan(polytope)
    scales, rows = polytope._homogeneous
    origin = rows.index([0] * d)
    common = lcm(*scales)
    weights = [common // t for t in scales]
    numerator = 0
    for facet, simplices in fan.items():
        if not facet >> origin & 1:
            for s in simplices:
                det = determinant([rows[i] for i in s])
                numerator += abs(det) * prod(weights[i] for i in s)
    total = Fraction(numerator, common**d * factorial(d))
    if self_check:
        centroid = tuple(sum(v[j] for v in verts) / len(verts) for j in range(d))
        apart = [vsub(v, centroid) for v in verts]
        second = sum(
            abs(rational_determinant([apart[i] for i in s]))
            for simplices in fan.values()
            for s in simplices
        ) / factorial(d)
        if second != total:
            raise ArithmeticError(
                f"volume decompositions disagree: {total} versus {second}"
            )
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
