"""The signature polytope and its exact volume.

For an embedding T of rank d, the polytope is {x in R^d : 0 <= (Tx)_i <= 1}.
Counting group elements whose image lies in [0, q-1]^n is, up to O(q^{d-1}),
q^d times the volume of this polytope, so the exact rational volume is the
limit of those normalized counts.  Vertices are found by double description
on the homogenization cone.  The volume comes from a fan triangulation of
the boundary over the vertex-incidence face lattice (faces are bitmasks of
vertices), summed as integer determinants of homogeneous vertex coordinates.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm, prod

from .cone import FullEmbedding, extreme_rays, full_embedding
from .errors import Unbounded
from .exact import (
    IntegerMatrix,
    Vector,
    determinant,
    dot,
    matrix_rank,
    rational_determinant,
    vsub,
)
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
    t_rows = emb.matrix_T.rows
    cone_rows: list[Vector] = []
    for w in t_rows:
        cone_rows.append(w + (0,))  # w . x >= 0
        cone_rows.append(tuple(-a for a in w) + (1,))  # w . x <= t
    cone_rows.append((0,) * d + (1,))  # t >= 0
    rays = extreme_rays(cone_rows)
    vertices = []
    for ray in rays:
        t = ray[-1]
        if t == 0:
            raise Unbounded("signature polytope has a recession direction")
        vertices.append(tuple(Fraction(x, t) for x in ray[:-1]))
    vertices = tuple(sorted(set(vertices)))
    origin = (Fraction(0),) * d
    if origin not in vertices:
        raise Unbounded("origin is not a vertex; embedding is invalid")
    if _affine_rank(vertices) != d:
        raise Unbounded("signature polytope is not full-dimensional")
    half_spaces = []
    for w in t_rows:
        half_spaces.append((tuple(-a for a in w), 0))
        half_spaces.append((w, 1))
    return SignaturePolytope(tuple(half_spaces), vertices, d)


def _affine_rank(points) -> int:
    if len(points) <= 1:
        return 0
    base = points[0]
    return matrix_rank([vsub(p, base) for p in points[1:]])


def _facets(face: int, tight: set[int]) -> list[int]:
    subs = {face & t for t in tight} - {0, face}
    return [f for f in subs if not any(f != g and f & g == f for g in subs)]


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
    vertices on the boundary of half-space i.  A face is fanned from its
    lowest-index (lex-least) vertex over its facets that miss that vertex,
    down to single vertices, and each face is triangulated once.  Simplices
    are tuples of vertex indices.
    """
    verts = polytope.vertices
    tight = {
        sum(1 << j for j, v in enumerate(verts) if dot(a, v) == b)
        for a, b in polytope.half_spaces
    }
    memo: dict[int, list[tuple[int, ...]]] = {}
    return {f: _triangulate(f, tight, memo) for f in _facets((1 << len(verts)) - 1, tight)}


def polytope_volume(polytope: SignaturePolytope, self_check: bool = False) -> Fraction:
    """Exact d-volume by fanning boundary simplices from the origin vertex.

    The simplex on the origin and x_1..x_d has volume |D| / (prod t_i * d!),
    where t_i is the lcm of the denominators of x_i and D is the integer
    determinant of the homogeneous rows (x_i t_i, t_i) and (0, ..., 0, 1),
    i.e. of the rows x_i t_i.  With self_check=True the volume is recomputed
    from a second decomposition (pyramids over every facet from the vertex
    centroid, by rational elimination) and the two values must agree.
    """
    d = polytope.dim
    verts = polytope.vertices
    if d == 0:
        return Fraction(1)
    fan = _boundary_fan(polytope)
    origin = verts.index((Fraction(0),) * d)
    scales = [lcm(*(x.denominator for x in v)) for v in verts]
    rows = [tuple(int(x * t) for x in v) for v, t in zip(verts, scales)]
    total = Fraction(0)
    for facet, simplices in fan.items():
        if not facet >> origin & 1:
            for s in simplices:
                det = determinant(IntegerMatrix(tuple(rows[i] for i in s)))
                total += Fraction(abs(det), prod(scales[i] for i in s))
    total /= factorial(d)
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
