"""Facet functionals of the cone spanned by a semigroup, and the embedding
that carries the semigroup onto a full subsemigroup of N^n.

The dual cone is computed by incremental ray insertion (double description):
start from a simplicial subcone cut out by a maximal independent subset of
the constraints, then insert the remaining half-spaces one at a time,
combining adjacent positive/negative ray pairs.  Two rays are adjacent iff
at least dim - 2 constraints are tight at both and no third ray is tight on
all of those (Fukuda-Prodon); tight sets are kept as bitmasks, so this needs
no rank test.  One fraction-free Gauss-Jordan pass on the transposed
constraints both chooses the start constraints (its pivot columns) and
gives the start rays (the rows of its right block), so rays are built in
integer arithmetic throughout.

The rows of T are the dual rays of the generator cone in lattice
coordinates, as extreme_rays returns them.  Each is primitive and the
generator coordinates span Z^rank, so its values on the generators are
integers with gcd 1: each functional is integral and primitive on the
generated group, which makes the stacked map T injective with a full image.
The ambient form of every ray comes from one scaled inverse of the lattice
basis's Gram matrix, as a primitive integer ray over an integer denominator.
The facet list is the irredundant (minimal) one, ordered lexicographically
by primitive ambient ray so that all downstream output is deterministic.
"""

from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul
from typing import NamedTuple

from .exact import (
    IntegerMatrix,
    Vector,
    extended_gcd_vector,
    gauss_jordan,
    hermite_basis,
    matrix_rank,
    primitive_vector,
    scaled_inverse,
    vadd,
    vscale,
    vsub,
)
from .semigroup import SemigroupContext


def extreme_rays(constraints: list[Vector]) -> list[Vector]:
    """Extreme rays of the pointed cone {x : a . x >= 0 for every row a}.

    The constraint rows are integer vectors and must have full column rank
    (this is what makes the cone pointed).  Returns primitive integer ray
    representatives, sorted.
    """
    if not constraints:
        raise ValueError("extreme_rays requires at least one constraint")
    m = len(constraints[0])

    # Maximal independent subset, each row independent of those before it:
    # the pivot columns of the transpose.  Simplicial start: ray j satisfies
    # base[k] . ray = delta_{kj}, and row j of the right block E is d * ray,
    # as E @ base^T = d * I; it is read with the sign of d.  Each ray carries
    # the bitmask of the processed constraints tight at it.
    chosen, d, start = gauss_jordan(list(zip(*constraints)))
    if len(chosen) < m:
        raise ValueError("constraint system is rank deficient; cone is not pointed")
    sign = 1 if d > 0 else -1
    chosen_bits = sum(1 << i for i in chosen)
    rays: list[tuple[Vector, int]] = [
        (primitive_vector([sign * x for x in row]), chosen_bits & ~(1 << i))
        for i, row in zip(chosen, start)
    ]

    for i, a in enumerate(constraints):
        if chosen_bits >> i & 1:
            continue
        values = [sum(map(mul, a, r)) for r, _ in rays]
        negative = [(n, rays[n]) for n, v in enumerate(values) if v < 0]
        fresh = []
        for p, (rp, tp) in enumerate(rays):
            if values[p] <= 0:
                continue
            for n, (rn, tn) in negative:
                common = tp & tn
                if common.bit_count() < m - 2 or any(
                    k != p and k != n and t & common == common
                    for k, (_, t) in enumerate(rays)
                ):
                    continue
                combo = vsub(vscale(values[p], rn), vscale(values[n], rp))
                fresh.append((primitive_vector(combo), common | 1 << i))
        rays = [
            (r, t | 1 << i if v == 0 else t) for (r, t), v in zip(rays, values) if v >= 0
        ] + fresh
    return sorted(r for r, _ in rays)


def _facets(ctx: SemigroupContext) -> list[tuple[Vector, int, Vector]]:
    """(primitive ambient ray, denominator m, lattice ray w) per facet, sorted.

    w is a primitive extreme ray of the dual of the generator cone in lattice
    coordinates.  The generator coordinates span Z^rank, so the values of w
    on them have gcd 1: w is the facet's row of T as it stands.  The ambient
    functional is y @ basis with gram @ y = w, so that it agrees with w on the
    basis rows and vanishes on their orthogonal complement.  The gram matrix
    of independent rows is positive definite, so d = det > 0 and inverse @ w
    is d * y.  The inverse is symmetric, so d * y @ basis = w @ (inverse @
    basis) = g * ray with ray primitive.  ray takes the integers d * w_k / g
    on the basis rows and w is coprime, so the denominator m = d / g is whole.
    """
    if ctx.rank == 0:
        raise ValueError("generators span only the zero cone")
    basis = ctx.lattice.rows
    d, inverse = scaled_inverse([[sum(map(mul, bi, bj)) for bj in basis] for bi in basis])
    if d <= 0:
        raise ArithmeticError("lattice basis lost rank")
    columns = list(zip(*[[sum(map(mul, row, col)) for col in zip(*basis)] for row in inverse]))
    facets = []
    for w in extreme_rays([tuple(c) for c in ctx.generator_coords]):
        scaled = [sum(map(mul, w, col)) for col in columns]
        g = gcd(*scaled)
        facets.append((tuple(x // g for x in scaled), d // g, w))
    return sorted(facets)


class FacetFunctional(
    NamedTuple(
        "FacetFunctional",
        [("ray", Vector), ("denominator", int), ("values_on_generators", tuple[int, ...])],
    )
):
    """A facet-defining linear functional, scaled to be primitive.

    In ambient coordinates it is ray / denominator, a primitive integer ray
    over a positive integer; values_on_generators are its values on the
    presentation's generators, always nonnegative integers with gcd 1.
    """

    __slots__ = ()

    def __new__(cls, ray, denominator, values_on_generators):
        vals = values_on_generators
        if any(v < 0 for v in vals):
            raise ValueError("facet functional is negative on a generator")
        if not any(vals):
            raise ValueError("functional vanishes on every generator")
        if gcd(*vals) != 1:
            raise ValueError("facet values are not coprime; functional not primitive")
        return super().__new__(cls, ray, denominator, vals)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:  # for display
        return tuple(Fraction(x, self.denominator) for x in self.ray)


class FullEmbedding(
    NamedTuple(
        "FullEmbedding",
        [
            ("functionals", tuple[FacetFunctional, ...]),
            ("matrix_T", IntegerMatrix),
            ("image_generators", tuple[Vector, ...]),
            ("rank", int),
        ],
    )
):
    """The stacked facet functionals T, mapping the semigroup into N^n.

    matrix_T holds the functionals in lattice coordinates (n rows, rank
    columns); image_generators are the generator images, in presentation
    order; image_lattice is a Hermite basis of the group generated by the
    image, as a sublattice of Z^n, built on first read: only the counting
    code reads it, and the instance dict (no __slots__) holds it.
    """

    @property
    def num_coordinates(self) -> int:
        return len(self.functionals)

    @cached_property
    def image_lattice(self) -> IntegerMatrix:
        return hermite_basis(self.matrix_T.transpose())


def full_embedding(ctx: SemigroupContext) -> FullEmbedding:
    """Stack the facet functionals into an embedding.

    The rows of T are the lattice rays of the dual cone; their values on
    the generator coordinates are the generator images.  Verifies
    injectivity on the generated group (T has full column rank) and
    nonnegativity of the generator images.
    """
    facets = _facets(ctx)
    matrix_t = IntegerMatrix(tuple(w for _, _, w in facets))
    if matrix_rank(matrix_t.rows) != ctx.rank:
        raise ArithmeticError("stacked functionals do not separate the lattice")
    functionals = tuple(
        FacetFunctional(ray, m, tuple(sum(map(mul, w, c)) for c in ctx.generator_coords))
        for ray, m, w in facets
    )
    images = tuple(zip(*(f.values_on_generators for f in functionals)))
    return FullEmbedding(functionals, matrix_t, images, ctx.rank)


def fraction_field_witness(emb: FullEmbedding, i: int) -> Vector:
    """A certificate v in the image group with v_i = -1 and v_j >= 0 else.

    v is built as -(x) + t * alpha where x is an image-group element with
    x_i = 1 (it exists because the i-th functional is primitive), alpha is
    the sum of the generator images lying on facet i (a relative-interior
    point of that facet, so alpha_i = 0 and alpha_j > 0 for j != i), and
    t >= 1 is minimal.
    """
    n = emb.num_coordinates
    if not 0 <= i < n:
        raise ValueError(f"coordinate index {i} out of range")
    lattice = emb.image_lattice
    column = [row[i] for row in lattice.rows]
    g, coeffs = extended_gcd_vector(column)
    if g != 1:
        raise ValueError(f"coordinate {i} of the image group lies in {g}Z: not a full embedding")
    x = (0,) * n
    for c, row in zip(coeffs, lattice.rows):
        if c:
            x = vadd(x, vscale(c, row))
    alpha = (0,) * n
    for img in emb.image_generators:
        if img[i] == 0:
            alpha = vadd(alpha, img)
    if n > 1 and any(alpha[j] == 0 for j in range(n) if j != i):
        raise ValueError(f"facet {i} has no relative-interior generator sum: not a full embedding")
    t = 1
    for j in range(n):
        if j != i and x[j] > 0:
            # smallest t with t * alpha_j >= x_j
            t = max(t, -(-x[j] // alpha[j]))
    v = vadd(vscale(-1, x), vscale(t, alpha))
    if v[i] != -1 or any(v[j] < 0 for j in range(n) if j != i):
        raise ValueError("witness construction failed: not a full embedding")
    return v
