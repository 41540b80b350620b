"""The signature polytope and its exact volume.

For an embedding T (n rows, rank d) the polytope is {x in R^d : 0 <= Tx <= 1}.
Counting group elements whose image lies in [0, q-1]^n is, up to O(q^{d-1}),
q^d times the volume of this polytope, so the exact rational volume is the
limit of those normalized counts.  The route follows the corank c = n - d:
for c <= 1 one Gauss-Jordan pass on T gives a closed form and no vertex is
enumerated.  For c >= 2 double description gives the vertices as primitive
integer rays (r, t) for r / t, integer tight sets give the vertex-incidence
face lattice (faces are bitmasks of vertices), and its fan is walked with one
fraction-free step per face, |det| read at each vertex over one denominator.
self_check also runs the walk and its centroid route.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm, prod
from operator import mul

from .cone import FullEmbedding, extreme_rays, full_embedding
from .errors import Unbounded
from .exact import Vector, clear_denominators, gauss_jordan, matrix_rank, rational_determinant, vsub
from .semigroup import SemigroupPresentation, build_context

RationalVector = tuple[Fraction, ...]


@dataclass(frozen=True)
class SignaturePolytope:
    """The slab {x in R^dim : 0 <= w . x <= 1 for every row w}.

    half_spaces lists pairs (a, b) meaning a . x <= b: (-w, 0), then (w, 1).
    The vertices are enumerated on first read; they are sorted
    lexicographically and the origin is always one of them.
    """

    rows: tuple[Vector, ...]
    dim: int

    @property
    def half_spaces(self) -> tuple[tuple[Vector, int], ...]:
        return tuple(h for w in self.rows for h in ((tuple(-a for a in w), 0), (w, 1)))

    @cached_property
    def vertices(self) -> tuple[RationalVector, ...]:
        scales, rows = self._homogeneous
        return tuple(tuple(Fraction(x, t) for x in r) for t, r in zip(scales, rows))

    @cached_property
    def _homogeneous(self) -> tuple[tuple[int, ...], tuple[list[int], ...]]:
        """Scales t_j and primitive integer rows r_j, vertex j = r_j / t_j.

        The extreme rays (r, t) of the homogenization cone, each with t > 0 (a
        ray with t = 0 is a recession direction: an invalid embedding); vertices
        set by hand before the first read are cleared instead.
        """
        if "vertices" in vars(self):
            return tuple(zip(*map(clear_denominators, self.vertices)))
        d = self.dim
        # homogenized, a . x <= b reads b t - a . x >= 0; t >= 0 closes the cone
        homogenized = [tuple(-x for x in a) + (b,) for a, b in self.half_spaces]
        rays = extreme_rays(homogenized + [(0,) * d + (1,)])
        if any(ray[-1] == 0 for ray in rays):
            raise Unbounded("signature polytope has a recession direction")
        if (0,) * d + (1,) not in rays:
            raise Unbounded("origin is not a vertex; embedding is invalid")
        if matrix_rank(rays) != d + 1:
            raise Unbounded("signature polytope is not full-dimensional")
        # vertex r / t is sorted as the integer row r * (L / t), L the lcm of the scales
        common = lcm(*(ray[-1] for ray in rays))
        ordered = sorted(rays, key=lambda ray: [x * (common // ray[-1]) for x in ray[:-1]])
        return tuple(r[-1] for r in ordered), tuple(list(r[:-1]) for r in ordered)


@dataclass(frozen=True)
class SignatureResult:
    value: Fraction
    polytope: SignaturePolytope
    embedding: FullEmbedding

    def __post_init__(self):
        if not 0 < self.value <= 1:
            raise ArithmeticError(f"signature {self.value} outside (0, 1]")


def signature_polytope(emb: FullEmbedding) -> SignaturePolytope:
    """The slab of the embedding's rows; its vertices are enumerated only when read."""
    return SignaturePolytope(emb.matrix_T.rows, emb.rank)


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


def _tight_sets(polytope: SignaturePolytope) -> set[int]:
    """Per half-space a . x <= b, the bitmask of the j with a . r_j == b * t_j."""
    scales, rows = polytope._homogeneous
    return {
        sum(1 << j for j, (r, t) in enumerate(zip(rows, scales)) if sum(map(mul, a, r)) == b * t)
        for a, b in polytope.half_spaces
    }


def polytope_volume(polytope: SignaturePolytope, self_check: bool = False) -> Fraction:
    """Exact d-volume of the slab, by the route its corank c = n - d allows.

    c <= 1 is read in closed form; c >= 2, or rows that fail its checks, take
    the walk, whose double description raises on an invalid slab.  On a
    closed-form slab self_check=True runs the walk too; the routes must agree.
    """
    if (closed := _closed_form(polytope)) is None:
        return _walk_volume(polytope, self_check)
    if self_check and (walked := _walk_volume(polytope, True)) != closed:
        raise ArithmeticError(f"volume routes disagree: {closed} versus {walked}")
    return closed


def _closed_form(polytope: SignaturePolytope) -> Fraction | None:
    """The volume at corank c <= 1; None at c >= 2, if T lacks rank d or a is one-signed.

    One Gauss-Jordan pass on [T | I]: for c = 0 the volume is 1 / |det T|, its
    last pivot.  For c = 1 the row left without a pivot holds the signed
    maximal minors of T, with gcd g_T; over g_T they are the primitive a with
    a T = 0, and x -> Tx carries the slab onto the cube section a . y = 0.
    Polya's formula, over the subsets S of the m nonzero a_i, with N the sum
    of |a_i| over a_i < 0, is summed as one signed count per subset sum below N:

        sum_S (-1)^|S| (N - sum_S |a_i|)_+^(m-1) / ((m-1)! prod |a_i| g_T)

    By Gordan's lemma a one-signed a means a flat slab or a zero row of T,
    which the walk rejects or measures.
    """
    d = polytope.dim
    if len(polytope.rows) > d + 1:
        return None
    pivots, last, right = gauss_jordan(polytope.rows)
    if len(pivots) < d:
        return None
    if len(right) == d:
        return Fraction(1, abs(last))
    minors = right[d]
    if min(minors) >= 0 or max(minors) <= 0:
        return None
    g = gcd(*minors)
    a = [abs(x) // g for x in minors if x]
    # a and -a span the same kernel, and the section is symmetric: N may be either side
    bound = min(sum(-x for x in minors if x < 0), sum(x for x in minors if x > 0)) // g
    signed = {0: 1}  # subset sum v < N: the sum of (-1)^|S| over the S with that sum
    for x in a:
        for v, count in list(signed.items()):
            if v + x < bound:
                signed[v + x] = signed.get(v + x, 0) - count
    m = len(a)
    numerator = sum(count * (bound - v) ** (m - 1) for v, count in signed.items())
    return Fraction(numerator, factorial(m - 1) * prod(a) * g)


def _walk_volume(polytope: SignaturePolytope, self_check: bool = False) -> Fraction:
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
