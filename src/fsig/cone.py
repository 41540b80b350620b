"""Facet functionals of the cone spanned by a semigroup, and the embedding
that carries the semigroup onto a full subsemigroup of N^n.

The dual cone is computed by incremental ray insertion (double description):
start from a simplicial subcone cut out by a maximal independent subset of
the constraints, chosen in one fraction-free elimination, then insert the
remaining half-spaces one at a time, combining adjacent positive/negative
ray pairs.  Two rays are adjacent iff at least dim - 2 constraints are tight
at both and no third ray is tight on all of those (Fukuda-Prodon); tight
sets are kept as bitmasks, so this needs no rank test.  The start rays are
the columns of a fraction-free scaled inverse of the chosen rows, and each
dual ray is carried to ambient coordinates through one scaled inverse of the
lattice basis's Gram matrix, so rays are built in integer arithmetic
throughout.

Facet functionals are normalized so that their values on the generators are
integers with gcd 1; this makes each functional integral and primitive on
the generated group, which in turn makes the stacked map T injective with a
full image.  The facet list is the irredundant (minimal) one, ordered
lexicographically by primitive ambient representative so that all
downstream output is deterministic.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DegenerateCone, WitnessNotFound, ZeroFunctional
from .exact import (
    IntegerMatrix,
    Vector,
    dot,
    extended_gcd_vector,
    hermite_basis,
    independent_rows,
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

    # Maximal independent subset, each row independent of those before it.
    chosen = independent_rows(constraints)
    if len(chosen) < m:
        raise ValueError("constraint system is rank deficient; cone is not pointed")

    # Simplicial start: ray j satisfies base[k] . ray = delta_{kj}, i.e. the
    # rays are the columns of the inverse of the chosen constraint rows, read
    # off the scaled inverse d * base^-1 with the sign of d.  Each ray carries
    # the bitmask of the processed constraints tight at it.
    d, inverse = scaled_inverse([constraints[i] for i in chosen])
    sign = 1 if d > 0 else -1
    chosen_bits = sum(1 << i for i in chosen)
    rays: list[tuple[Vector, int]] = [
        (primitive_vector([sign * row[j] for row in inverse]), chosen_bits & ~(1 << chosen[j]))
        for j in range(m)
    ]

    for i, a in enumerate(constraints):
        if chosen_bits >> i & 1:
            continue
        values = [dot(a, r) for r, _ in rays]
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


def dual_cone_rays(ctx: SemigroupContext) -> list[Vector]:
    """Minimal generating rays of the dual cone, in ambient coordinates.

    One ray per facet of the cone spanned by the generators, each returned
    as the primitive integer vector on its ray, vanishing on the orthogonal
    complement of the span of the generated group.  Sorted lexicographically.
    """
    if ctx.rank == 0:
        raise DegenerateCone("generators span only the zero cone")
    rays_lattice = extreme_rays([tuple(c) for c in ctx.generator_coords])
    # The ambient ray of a lattice functional w is y @ basis with gram @ y = w.
    # The gram matrix of independent rows is positive definite, so d = det > 0
    # and inverse @ w is y scaled by d, which primitive_vector removes.
    basis = ctx.lattice.rows
    d, inverse = scaled_inverse([[dot(bi, bj) for bj in basis] for bi in basis])
    if d <= 0:
        raise DegenerateCone("lattice basis lost rank")
    ambient = []
    for w in rays_lattice:
        y = [dot(row, w) for row in inverse]
        ambient.append(primitive_vector([dot(y, col) for col in zip(*basis)]))
    return sorted(ambient)


@dataclass(frozen=True)
class FacetFunctional:
    """A facet-defining linear functional, scaled to be primitive.

    coefficients give the functional in ambient coordinates (entries may be
    non-integral rationals); values_on_generators are its values on the
    presentation's generators, always nonnegative integers with gcd 1.
    """

    coefficients: tuple[Fraction, ...]
    values_on_generators: tuple[int, ...]

    def __post_init__(self):
        vals = tuple(int(v) for v in self.values_on_generators)
        if any(v < 0 for v in vals):
            raise ValueError("facet functional is negative on a generator")
        if not any(vals):
            raise ZeroFunctional("functional vanishes on every generator")
        if gcd(*vals) != 1:
            raise ValueError("facet values are not coprime; functional not primitive")
        object.__setattr__(self, "coefficients", tuple(Fraction(c) for c in self.coefficients))
        object.__setattr__(self, "values_on_generators", vals)


def primitivize(ray, ctx: SemigroupContext) -> FacetFunctional:
    """Rescale a dual ray so that its generator values are coprime integers.

    The scale is the unique positive rational making all values integers of
    gcd 1; e.g. the ray (1, 0) over generators (2,0),(0,2) has values (2, 0)
    and is rescaled to (1/2, 0) with values (1, 0).  The values are computed
    in integers on the primitive form of the ray and divided by their gcd.
    """
    if all(x == 0 for x in ray):
        raise ZeroFunctional("ray vanishes on every generator")
    ray = primitive_vector(ray)
    values = [dot(ray, g) for g in ctx.presentation.generators]
    if all(v == 0 for v in values):
        raise ZeroFunctional("ray vanishes on every generator")
    if any(v < 0 for v in values):
        raise ValueError("ray is negative on a generator")
    g = gcd(*values)
    return FacetFunctional(tuple(Fraction(x, g) for x in ray), tuple(v // g for v in values))


def facet_functionals(ctx: SemigroupContext) -> tuple[FacetFunctional, ...]:
    """The primitivized facet functionals of the generator cone, in ray order."""
    return tuple(primitivize(r, ctx) for r in dual_cone_rays(ctx))


@dataclass(frozen=True)
class FullEmbedding:
    """The stacked facet functionals T, mapping the semigroup into N^n.

    matrix_T holds the functionals in lattice coordinates (n rows, rank
    columns); image_generators are the generator images, in presentation
    order; image_lattice is a Hermite basis of the group generated by the
    image, as a sublattice of Z^n.
    """

    functionals: tuple[FacetFunctional, ...]
    matrix_T: IntegerMatrix
    image_generators: tuple[Vector, ...]
    image_lattice: IntegerMatrix
    rank: int

    @property
    def num_coordinates(self) -> int:
        return len(self.functionals)


def full_embedding(ctx: SemigroupContext) -> FullEmbedding:
    """Stack all primitivized facet functionals into an embedding.

    Verifies injectivity on the generated group (the stacked matrix has full
    column rank) and nonnegativity of the generator images.
    """
    functionals = facet_functionals(ctx)
    t_rows = []
    for f in functionals:
        # integer numerators over one denominator: each value is an exact quotient
        scale = lcm(*(c.denominator for c in f.coefficients))
        ints = [c.numerator * (scale // c.denominator) for c in f.coefficients]
        row = []
        for basis_row in ctx.lattice.rows:
            val, rem = divmod(dot(ints, basis_row), scale)
            if rem:  # integral on the group by construction
                raise DegenerateCone("functional is not integral on the lattice")
            row.append(val)
        t_rows.append(tuple(row))
    matrix_t = IntegerMatrix(tuple(t_rows))
    if matrix_rank(matrix_t.rows) != ctx.rank:
        raise DegenerateCone("stacked functionals do not separate the lattice")
    images = tuple(
        tuple(f.values_on_generators[k] for f in functionals)
        for k in range(len(ctx.presentation.generators))
    )
    image_lattice = hermite_basis(matrix_t.transpose())
    return FullEmbedding(functionals, matrix_t, images, image_lattice, ctx.rank)


def fraction_field_witness(emb: FullEmbedding, i: int) -> tuple[Vector, Vector]:
    """A pair (a_i, v) with v in the image group, v_i = -1, v_j >= 0 else.

    v is built as -(x) + t * alpha where x is an image-group element with
    x_i = 1 (it exists because the i-th functional is primitive), alpha is
    the sum of the generator images lying on facet i (a relative-interior
    point of that facet, so alpha_i = 0 and alpha_j > 0 for j != i), and
    t >= 1 is minimal.  a_i is v with its i-th coordinate lifted to 0.
    """
    n = emb.num_coordinates
    if not 0 <= i < n:
        raise ValueError(f"coordinate index {i} out of range")
    lattice = emb.image_lattice
    column = [row[i] for row in lattice.rows]
    g, coeffs = extended_gcd_vector(column)
    if g != 1:
        raise WitnessNotFound(
            f"coordinate {i} of the image group is contained in {g}Z; "
            "input is non-normal or degenerate"
        )
    x = (0,) * n
    for c, row in zip(coeffs, lattice.rows):
        if c:
            x = vadd(x, vscale(c, row))
    alpha = (0,) * n
    for img in emb.image_generators:
        if img[i] == 0:
            alpha = vadd(alpha, img)
    if n > 1 and any(alpha[j] == 0 for j in range(n) if j != i):
        raise WitnessNotFound(
            f"facet {i} has no relative-interior generator sum; "
            "input is non-normal or degenerate"
        )
    t = 1
    for j in range(n):
        if j != i and x[j] > 0:
            # smallest t with t * alpha_j >= x_j
            t = max(t, -(-x[j] // alpha[j]))
    v = vadd(vscale(-1, x), vscale(t, alpha))
    if v[i] != -1 or any(v[j] < 0 for j in range(n) if j != i):
        raise WitnessNotFound("witness construction failed; input is degenerate")
    a = tuple(0 if j == i else v[j] for j in range(n))
    return a, v
