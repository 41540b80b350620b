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
integer arithmetic throughout.  Each ray carries its values on every
constraint, so an insertion reads them, and they are returned with the rays.

The cone is cut out by the generators G themselves when they span R^r, and
each extreme ray x is the ambient functional.  Otherwise it is cut out by
their products P = G B^T with the rows of the Hermite basis B of the
generated lattice, and each extreme ray y gives the ambient functional
x = y @ B.  Over h, the gcd of its values G @ x, each functional is integral
and primitive on the generated group, which makes the stacked map T
injective with a full image.  Its row of T is B @ x / h, and x / gcd(x) over
h / gcd(x) is its primitive ambient ray: no generator is written in lattice
coordinates, no Gram matrix is built and no matrix is inverted.
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
    vadd,
    vscale,
)
from .semigroup import SemigroupContext


def extreme_rays(constraints: list[Vector]) -> list[tuple[Vector, Vector]]:
    """Extreme rays of the pointed cone {x : a . x >= 0 for every row a}, with their values.

    The constraint rows are integer vectors and must have full column rank
    (this is what makes the cone pointed).  Returns, sorted, the pairs of a
    primitive integer ray and its values a . ray on the constraints, in order.
    """
    if len(set(map(len, constraints))) != 1:
        raise ValueError("extreme_rays requires constraint rows, all of the same length")
    m = len(constraints[0])

    # The pivot columns of the transpose: a maximal independent subset, each
    # row independent of those before.  Row j of the right block E is d * ray
    # j, as E @ base^T = d * I, so ray j has value |d| / gcd(E_j) on base row j
    # and 0 on the others.  A ray is [ray, values, bitmask of tight processed rows].
    chosen, d, start = gauss_jordan(list(zip(*constraints)))
    if len(chosen) < m:
        raise ValueError("constraint system is rank deficient; cone is not pointed")
    sign = 1 if d > 0 else -1
    chosen_bits = sum(1 << i for i in chosen)
    rays = []
    for i, row in zip(chosen, start):
        g = gcd(*row)
        r = tuple([sign * x // g for x in row])
        vs = [0 if chosen_bits >> k & 1 else sum(map(mul, a, r)) for k, a in enumerate(constraints)]
        vs[i] = sign * d // g
        rays.append([r, vs, chosen_bits & ~(1 << i)])

    for i in range(len(constraints)):
        if chosen_bits >> i & 1:
            continue
        bit, fresh = 1 << i, []
        if negative := [ray for ray in rays if ray[1][i] < 0]:
            tight = [t for _, _, t in rays]
            for rp, vp, tp in rays:
                if (a := vp[i]) <= 0:
                    continue
                for rn, vn, tn in negative:  # adjacent: no third ray tight on common
                    common, b = tp & tn, vn[i]
                    if common.bit_count() < m - 2 or sum(t & common == common for t in tight) > 2:
                        continue
                    combo = [a * x - b * y for x, y in zip(rn, rp)]
                    g = gcd(*combo)
                    vs = [(a * x - b * y) // g for x, y in zip(vn, vp)]
                    fresh.append([tuple([x // g for x in combo]), vs, common | bit])
            rays = [ray for ray in rays if ray[1][i] >= 0]
        for ray in rays:
            if not ray[1][i]:
                ray[2] |= bit
        rays += fresh
    return sorted((r, tuple(vs)) for r, vs, _ in rays)


def _facets(ctx: SemigroupContext) -> list[tuple[Vector, int, Vector, Vector]]:
    """(ambient ray, denominator m, row w of T, values on the generators) per facet, sorted.

    At full rank the double description runs on the generators G, and a
    primitive extreme ray x of {x : G @ x >= 0} is the ambient functional.
    Otherwise it runs on P = G @ B^T, B the basis rows, and a primitive ray y
    of {y : P @ y >= 0} gives x = y @ B, with P @ y = G @ x.  Either way it
    hands over the values G @ x.  A generator with lattice coordinates c is
    c @ B, so G @ x = C @ (B @ x): B @ x is h = gcd(G @ x) times the primitive
    ray w of the dual cone in lattice coordinates, as C @ w has gcd 1.  Both
    integrality arguments: w = B @ x / h is whole because each basis row is
    an integer combination of generators, and so each b . x of the g . x; and
    x / h is x / gcd(x) over m = h / gcd(x), whole because gcd(x) divides
    every g . x (at full rank gcd(x) = 1).
    """
    if ctx.rank == 0:
        raise ValueError("generators span only the zero cone")
    basis, generators = ctx.lattice.rows, ctx.presentation.generators
    full = ctx.rank == ctx.presentation.ambient_rank
    constraints = generators if full else [[sum(map(mul, g, b)) for b in basis] for g in generators]
    columns = list(zip(*basis))
    facets = []
    for x, values in extreme_rays(constraints):
        h = m = gcd(*values)
        if not full:  # the ray is y: its ambient functional y @ B, made primitive
            x = [sum(map(mul, x, col)) for col in columns]
            g = gcd(*x)
            x, m = tuple([a // g for a in x]), h // g
        w = tuple([sum(map(mul, b, x)) // m for b in basis])  # B @ x / h before x is divided by g
        facets.append((x, m, w, tuple([v // h for v in values])))
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

    The rows of T are the lattice rays of the dual cone; the facets' values
    on the generators are the generator images.  Verifies
    injectivity on the generated group (T has full column rank) and
    nonnegativity of the generator images.
    """
    facets = _facets(ctx)
    matrix_t = IntegerMatrix(tuple(w for _, _, w, _ in facets))
    if matrix_rank(matrix_t.rows) != ctx.rank:
        raise ArithmeticError("stacked functionals do not separate the lattice")
    functionals = tuple(FacetFunctional(ray, m, values) for ray, m, _, values in facets)
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
