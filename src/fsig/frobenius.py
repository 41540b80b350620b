"""Free-rank counting and Hilbert-Kunz colengths for embedded semigroups.

After the full embedding, the free rank a_q is the number of image-group
points in the box [0, q-1]^n: fullness turns divisibility inside the
semigroup into componentwise comparison, so counting semigroup elements
reduces to counting lattice points.  The same comparison drives the
colength counts: a monomial lies in a monomial ideal exactly when it
componentwise dominates q times one of the ideal's minimal generators, so a
colength is the number of image-group points in N^n that dominate none of
them.  Both come from exact.count_lattice_points, which enumerates no point
and counts the coefficient prefixes that share an open state once.  Like
f_signature, both count the image group inside N^n, which is the semigroup
of a normal input and the normalization of any other.

q is accepted as any positive integer, not only a prime power: everything
computed here is lattice combinatorics, and the identities it verifies hold
verbatim for every q.
"""

from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import NamedTuple, Sequence

from .cone import FullEmbedding, fraction_field_witness, full_embedding
from .errors import BudgetExceeded, NotPrimary
from .exact import (
    Vector,
    count_lattice_points,
    express_in_basis,
    lattice_points_in_box,
    vadd,
    vscale,
)
from .semigroup import SemigroupPresentation, build_context


@dataclass(frozen=True)
class FrobeniusCount:
    """One row of the free-rank table: q, a_q, and the ratio a_q / q^rank."""

    q: int
    a_q: int
    ratio: Fraction


def count_aq(emb: FullEmbedding, q: int) -> FrobeniusCount:
    """Exact a_q: image-group points with every coordinate below q.

    Counts against the Hermite basis of the image group with
    count_lattice_points, the last coefficient in closed form.
    """
    q = index(q)
    if q < 1:
        raise ValueError("q must be a positive integer")
    count = count_lattice_points(emb.image_lattice, (q - 1,) * emb.num_coordinates)
    return FrobeniusCount(q, count, Fraction(count, q**emb.rank))


def brute_force_aq(
    presentation: SemigroupPresentation, q: int, budget: int = 1_000_000
) -> int:
    """Independent oracle for count_aq, by semigroup closure.

    Starts from 0, repeatedly adds generators, keeps the sums whose image
    under the embedding stays inside [0, q-1]^n, and counts the distinct
    image points reached.  Never consults the lattice enumeration.
    """
    q = index(q)
    if q < 1:
        raise ValueError("q must be a positive integer")
    emb = full_embedding(build_context(presentation))
    images = emb.image_generators
    zero = (0,) * emb.num_coordinates
    seen = {zero}
    frontier = [zero]
    while frontier:
        point = frontier.pop()
        for g in images:
            nxt = vadd(point, g)
            if nxt in seen or any(x >= q for x in nxt):
                continue
            seen.add(nxt)
            if len(seen) > budget:
                raise BudgetExceeded(
                    f"closure enumeration reached {len(seen)} points at q={q}, "
                    f"past the budget of {budget}",
                    len(seen),
                )
            frontier.append(nxt)
    return len(seen)


def socle_witness(emb: FullEmbedding) -> Vector:
    """The strictly positive witness monomial mu, in additive notation.

    mu = alpha + sum_i v_i, where alpha is the sum of the generator images
    and v_i = fraction_field_witness(emb, i) is the certificate of coordinate
    i (v_i[i] = -1, every other entry >= 0, v_i in the image group); if some
    entry of mu is 0 (only one generator in rank 1), alpha is added once more.
    It guarantees, for every coordinate i and every t >= 1, that t*mu - v_i
    lies in the image group and in N^n with i-th entry t*mu_i + 1: entry j of
    mu is alpha_j - 1 + sum_{i != j} v_i[j] >= v_k[j] for every k != j, since
    alpha_j >= 1 (each functional is positive on some generator).
    """
    alpha = tuple(map(sum, zip(*emb.image_generators)))
    mu = alpha
    for i in range(emb.num_coordinates):
        mu = vadd(mu, fraction_field_witness(emb, i))
    if 0 in mu:
        mu = vadd(mu, alpha)
    return mu


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial (semigroup) ideal, as two generator tuples.

    bounds holds t*mu for each not-dividing summand, whose generators are the
    semigroup elements not dividing t*mu; generators holds the explicit
    generators.  Membership of u in the ideal's q-th Frobenius power is: u
    componentwise dominates q times some minimal generator.
    """

    bounds: tuple[Vector, ...] = ()
    generators: tuple[Vector, ...] = ()

    @staticmethod
    def not_dividing(mu: Sequence[int], t: int) -> "MonomialIdeal":
        t = index(t)
        if t < 1:
            raise ValueError("t must be a positive integer")
        mu = tuple(map(index, mu))
        if any(x < 1 for x in mu):
            raise ValueError("the witness monomial must be strictly positive")
        return MonomialIdeal(bounds=(vscale(t, mu),))

    @staticmethod
    def generated_by(vectors: Sequence[Sequence[int]]) -> "MonomialIdeal":
        return MonomialIdeal(generators=tuple(tuple(map(index, v)) for v in vectors))

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return MonomialIdeal(self.bounds + other.bounds, self.generators + other.generators)

    def minimal_generators(self, emb: FullEmbedding) -> tuple[Vector, ...]:
        """Minimal monomial generating set.

        For a bound t*mu the minimal generators are the minimal semigroup
        elements u with u not componentwise below t*mu; each such element is
        the sum of a generator image and an element below t*mu, which bounds
        the search box.
        """
        n = emb.num_coordinates
        candidates: list[Vector] = []
        gamma = [max(g[j] for g in emb.image_generators) for j in range(n)]
        for tmu in self.bounds:
            for u in lattice_points_in_box(emb.image_lattice, vadd(tmu, gamma)):
                if any(u) and not _leq(u, tmu):
                    candidates.append(u)
        for u in self.generators:
            if len(u) != n:
                raise ValueError(f"generator {u} has wrong length")
            if any(x < 0 for x in u) or express_in_basis(u, emb.image_lattice) is None:
                raise ValueError(f"generator {u} is not a semigroup element")
            candidates.append(u)
        return _minimalize(candidates)


def _leq(u: Vector, v: Vector) -> bool:
    return all(a <= b for a, b in zip(u, v))


def _minimalize(vectors: list[Vector]) -> tuple[Vector, ...]:
    kept: list[Vector] = []
    for v in sorted(set(vectors), key=lambda u: (sum(u), u)):
        if not any(_leq(w, v) for w in kept):
            kept.append(v)
    return tuple(kept)


def hk_colength(
    emb: FullEmbedding, ideal: MonomialIdeal, q: int, budget: int = 5_000_000
) -> int:
    """Colength of the q-th Frobenius power of an m-primary monomial ideal.

    The colength is the number of image-group points in N^n that dominate
    no Frobenius generator F (q times a minimal generator), counted by
    count_lattice_points over an explicit box; for a non-normal input that
    is the colength in its normalization.  The count stops with
    BudgetExceeded, whose reached is the count so far, once it passes budget.

    The box comes from the extreme directions g of the cone: the generator
    images of minimal support, one per support.  For each g, k_g is the least
    max_j ceil(F_j / g_j) over the F with supp F inside supp g (0 for F = 0,
    the unit ideal); if there is no such F, no multiple of g enters the
    ideal, the quotient is infinite and NotPrimary is raised.  Every cone
    point x is a sum of lambda_g g with all lambda_g >= 0, and if some
    lambda_g >= k_g then x >= k_g g >= F componentwise.  So a point outside
    the ideal has every lambda_g < k_g, and since every coordinate j has an
    extreme g with g_j > 0, x_j < sum_g k_g g_j: the box is
    prod [0, sum_g k_g g_j - 1].
    """
    q = index(q)
    if q < 1:
        raise ValueError("q must be a positive integer")
    return _colength(emb, ideal.minimal_generators(emb), q, budget)


def _colength(emb: FullEmbedding, generators: Sequence[Vector], q: int, budget: int) -> int:
    """hk_colength of the ideal with these minimal generators, unvalidated."""
    frobenius_gens = [vscale(q, g) for g in generators]
    supports = {frozenset(j for j, x in enumerate(g) if x): g for g in emb.image_generators}
    box = [-1] * emb.num_coordinates
    for support, g in supports.items():
        if any(other < support for other in supports):
            continue
        multiples = [
            max((-(-f[j] // g[j]) for j in support), default=0)
            for f in frobenius_gens
            if all(j in support for j, x in enumerate(f) if x)
        ]
        if not multiples:
            raise NotPrimary(
                f"no ideal generator is supported inside direction {g}; "
                "the quotient is not finite"
            )
        box = [b + min(multiples) * x for b, x in zip(box, g)]
    count = count_lattice_points(emb.image_lattice, box, frobenius_gens, limit=budget)
    if count > budget:
        raise BudgetExceeded(
            f"colength count reached {count} points, past the budget of {budget}; "
            "the quotient is finite but beyond the configured budget",
            count,
        )
    return count


class HKIdentity(NamedTuple):
    lhs: int
    rhs: int
    equal: bool
    mu: Vector
    not_dividing: int
    with_witness: int


def hk_difference_identity(
    emb: FullEmbedding, t: int, q: int, budget: int = 5_000_000
) -> HKIdentity:
    """Check that the colength difference reproduces the free rank a_q.

    mu is the socle witness; not_dividing is the colength of the q-th
    Frobenius power of the not-dividing ideal at level t, with_witness the
    colength after adjoining t*mu.  lhs is their difference and rhs is
    count_aq; the two agree for every q >= 1 and t >= 1.  budget caps each
    colength: BudgetExceeded is raised once a count passes it.
    """
    t, q = index(t), index(q)
    if t < 1 or q < 1:
        raise ValueError("t and q must be positive integers")
    mu = socle_witness(emb)
    # one walk of the not-dividing box serves both ideals
    gens = MonomialIdeal.not_dividing(mu, t).minimal_generators(emb)
    # mu is a sum of generator images, so t*mu needs no membership test
    enlarged = _minimalize(list(gens) + [vscale(t, mu)])
    not_dividing = _colength(emb, gens, q, budget)
    with_witness = _colength(emb, enlarged, q, budget)
    lhs, rhs = not_dividing - with_witness, count_aq(emb, q).a_q
    return HKIdentity(lhs, rhs, lhs == rhs, mu, not_dividing, with_witness)
