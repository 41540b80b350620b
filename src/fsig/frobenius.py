"""Free-rank counting and Hilbert-Kunz colengths for embedded semigroups.

After the full embedding, the free rank a_q is the number of image-group
points in the box [0, q-1]^n: fullness turns divisibility inside the
semigroup into componentwise comparison, so counting semigroup elements
reduces to counting lattice points.  The same comparison drives the
colength counts: a monomial lies in a monomial ideal exactly when it
componentwise dominates q times one of the ideal's minimal generators.

q is accepted as any positive integer, not only a prime power: everything
computed here is lattice combinatorics, and the identities it verifies hold
verbatim for every q.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .cone import FullEmbedding, fraction_field_witness, full_embedding
from .errors import BudgetExceeded, NotPrimary
from .exact import (
    IntegerMatrix,
    Vector,
    express_in_basis,
    lattice_points_in_box,
    solve_integer_combination,
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

    Enumerates lattice coset representatives against the Hermite basis of
    the image group, pruning by the box bounds.
    """
    if q < 1:
        raise ValueError("q must be a positive integer")
    n = emb.num_coordinates
    bounds = (q - 1,) * n
    count = sum(1 for _ in lattice_points_in_box(emb.image_lattice, bounds))
    return FrobeniusCount(q, count, Fraction(count, q**emb.rank))


def brute_force_aq(
    presentation: SemigroupPresentation, q: int, budget: int = 1_000_000
) -> int:
    """Independent oracle for count_aq, by semigroup closure.

    Starts from 0, repeatedly adds generators, keeps the sums whose image
    under the embedding stays inside [0, q-1]^n, and counts the distinct
    image points reached.  Never consults the lattice enumeration.
    """
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
                    f"closure enumeration exceeded {budget} points at q={q}"
                )
            frontier.append(nxt)
    return len(seen)


@dataclass(frozen=True)
class SoclePart:
    """Certificate for one coordinate: a - e_i = mu_part - eta_part exactly."""

    index: int
    a: Vector
    mu_part: Vector
    eta_part: Vector
    certificate: Vector


@dataclass(frozen=True)
class SocleWitness:
    """The witness monomial mu (additive notation) with its factorization.

    mu = mu0 + sum of the per-coordinate mu_parts; every coordinate of mu is
    at least 1.
    """

    mu: Vector
    mu0: Vector
    parts: tuple[SoclePart, ...]


def socle_witness(emb: FullEmbedding) -> SocleWitness:
    """Construct the strictly positive witness monomial.

    mu0 is the sum of all generator images (strictly positive in every
    coordinate because each functional is positive somewhere); each further
    factor comes from the smallest-exponent fraction-field certificate of
    its coordinate, split into its positive and negative semigroup parts.
    """
    n = emb.num_coordinates
    images = emb.image_generators
    mu0 = (0,) * n
    for g in images:
        mu0 = vadd(mu0, g)
    gen_matrix = IntegerMatrix(images)
    parts = []
    mu = mu0
    for i in range(n):
        a, v = fraction_field_witness(emb, i)
        combo = solve_integer_combination(gen_matrix, v)
        if combo is None:  # v lies in the image group by construction
            raise ArithmeticError(f"certificate {v} escaped the image group")
        mu_part = (0,) * n
        eta_part = (0,) * n
        for c, g in zip(combo, images):
            if c > 0:
                mu_part = vadd(mu_part, vscale(c, g))
            elif c < 0:
                eta_part = vadd(eta_part, vscale(-c, g))
        parts.append(SoclePart(i, a, mu_part, eta_part, v))
        mu = vadd(mu, mu_part)
    if any(x < 1 for x in mu):
        raise ArithmeticError(f"witness {mu} is not strictly positive")
    return SocleWitness(mu, mu0, tuple(parts))


@dataclass(frozen=True)
class NotDividing:
    """Atom for the ideal generated by semigroup elements not dividing t*mu."""

    mu: Vector
    t: int


@dataclass(frozen=True)
class ExplicitGenerators:
    """Atom for the ideal generated by an explicit list of semigroup elements."""

    vectors: tuple[Vector, ...]


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial (semigroup) ideal, as a sum of atoms, with a Frobenius power.

    Membership of u in the ideal's q-th Frobenius power is: u componentwise
    dominates q times some minimal generator.
    """

    atoms: tuple
    frobenius_power: int = 1

    def __post_init__(self):
        if self.frobenius_power < 1:
            raise ValueError("frobenius power must be a positive integer")

    @staticmethod
    def not_dividing(mu: Sequence[int], t: int) -> "MonomialIdeal":
        if t < 1:
            raise ValueError("t must be a positive integer")
        mu = tuple(int(x) for x in mu)
        if any(x < 1 for x in mu):
            raise ValueError("the witness monomial must be strictly positive")
        return MonomialIdeal((NotDividing(mu, t),))

    @staticmethod
    def generated_by(vectors: Sequence[Sequence[int]]) -> "MonomialIdeal":
        return MonomialIdeal(
            (ExplicitGenerators(tuple(tuple(int(x) for x in v) for v in vectors)),)
        )

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if self.frobenius_power != other.frobenius_power:
            raise ValueError("cannot add ideals with different Frobenius powers")
        return MonomialIdeal(self.atoms + other.atoms, self.frobenius_power)

    def frobenius(self, q: int) -> "MonomialIdeal":
        if q < 1:
            raise ValueError("q must be a positive integer")
        return MonomialIdeal(self.atoms, self.frobenius_power * q)

    def minimal_generators(self, emb: FullEmbedding) -> tuple[Vector, ...]:
        """Minimal monomial generating set, before the Frobenius power.

        For a NotDividing atom the minimal generators are the minimal
        semigroup elements u with u not componentwise below t*mu; each such
        element is the sum of a generator image and an element below t*mu,
        which bounds the search box.
        """
        n = emb.num_coordinates
        candidates: list[Vector] = []
        for atom in self.atoms:
            if isinstance(atom, NotDividing):
                tmu = vscale(atom.t, atom.mu)
                gamma = [max(g[j] for g in emb.image_generators) for j in range(n)]
                bounds = vadd(tmu, gamma)
                for u in lattice_points_in_box(emb.image_lattice, bounds):
                    if any(x != 0 for x in u) and not _leq(u, tmu):
                        candidates.append(u)
            elif isinstance(atom, ExplicitGenerators):
                for u in atom.vectors:
                    if len(u) != n:
                        raise ValueError(f"generator {u} has wrong length")
                    if any(x < 0 for x in u) or express_in_basis(u, emb.image_lattice) is None:
                        raise ValueError(f"generator {u} is not a semigroup element")
                    candidates.append(u)
            else:
                raise TypeError(f"unknown ideal atom {atom!r}")
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

    Counts the semigroup elements outside the ideal by closure search from
    0: the ideal is an up-set under componentwise order, so a branch can be
    pruned as soon as it enters the ideal.  A structurally non-primary ideal
    (no generator supported inside some generator direction) raises
    NotPrimary up front; a finite but oversized count raises BudgetExceeded.

    Points are packed into single integers, one field per coordinate, so
    that componentwise domination becomes a borrow test.  Every expanded
    point lies on a chain of at most budget generator steps from 0, so the
    field width is taken from (budget + 1) times the largest step coordinate
    and from the largest Frobenius-generator coordinate, plus a borrow bit.
    """
    if q < 1:
        raise ValueError("q must be a positive integer")
    power = q * ideal.frobenius_power
    frobenius_gens = [vscale(power, g) for g in ideal.minimal_generators(emb)]
    if not frobenius_gens:
        raise NotPrimary("the zero ideal has infinite colength")

    n = emb.num_coordinates
    # m-primality: along every generator direction some multiple must enter
    # the ideal, which needs an ideal generator supported inside that
    # direction's support; otherwise the complement is infinite.
    for g in emb.image_generators:
        support = {j for j in range(n) if g[j]}
        if not any(
            all(j in support for j in range(n) if f[j]) for f in frobenius_gens
        ):
            raise NotPrimary(
                f"no ideal generator is supported inside direction {g}; "
                "the quotient is not finite"
            )
    max_step = max(max(g) for g in emb.image_generators)
    largest = max((budget + 1) * max_step, max(max(f) for f in frobenius_gens))
    bits = largest.bit_length() + 1

    def pack(v: Vector) -> int:
        return sum(x << (bits * j) for j, x in enumerate(v))

    high = sum(1 << (bits * j + bits - 1) for j in range(n))
    packed_gens = [pack(g) for g in frobenius_gens]
    steps = [pack(g) for g in emb.image_generators]

    def in_ideal(key: int) -> bool:
        # key dominates g componentwise iff no field borrows: with the high
        # bit of every field set on the minuend, each field subtracts
        # independently and keeps its high bit exactly when key_j >= g_j.
        base = key | high
        for g in packed_gens:
            if (base - g) & high == high:
                return True
        return False

    if in_ideal(0):
        return 0
    seen = {0}
    frontier = [0]
    count = 0
    while frontier:
        point = frontier.pop()
        count += 1
        for g in steps:
            nxt = point + g
            if nxt in seen:
                continue
            seen.add(nxt)
            if len(seen) > budget:
                raise BudgetExceeded(
                    f"colength enumeration exceeded {budget} points; "
                    "the quotient is finite but beyond the configured budget"
                )
            if not in_ideal(nxt):
                frontier.append(nxt)
    return count


class HKIdentity(NamedTuple):
    lhs: int
    rhs: int
    equal: bool


class HKColengths(NamedTuple):
    mu: Vector
    not_dividing: int
    with_witness: int


def hk_colengths(emb: FullEmbedding, t: int, q: int, budget: int = 5_000_000) -> HKColengths:
    """The socle witness mu and the two colengths of the difference identity.

    not_dividing is the colength of the q-th Frobenius power of the
    not-dividing ideal at level t; with_witness is the colength after
    adjoining t*mu.  budget caps each colength enumeration.
    """
    if t < 1 or q < 1:
        raise ValueError("t and q must be positive integers")
    mu = socle_witness(emb).mu
    ideal = MonomialIdeal.not_dividing(mu, t)
    enlarged = ideal + MonomialIdeal.generated_by([vscale(t, mu)])
    return HKColengths(
        mu, hk_colength(emb, ideal, q, budget=budget), hk_colength(emb, enlarged, q, budget=budget)
    )


def hk_difference_identity(emb: FullEmbedding, t: int, q: int) -> HKIdentity:
    """Check that the colength difference reproduces the free rank a_q.

    lhs is hk_colengths' not_dividing minus with_witness; rhs is count_aq.
    The two agree for every q >= 1 and t >= 1.
    """
    colengths = hk_colengths(emb, t, q)
    lhs = colengths.not_dividing - colengths.with_witness
    rhs = count_aq(emb, q).a_q
    return HKIdentity(lhs, rhs, lhs == rhs)


def aq_table(emb: FullEmbedding, q_list: Sequence[int]) -> list[FrobeniusCount]:
    """Table of (q, a_q, a_q / q^rank) for an ascending list of q values."""
    q_list = list(q_list)
    if not q_list:
        raise ValueError("q_list must be nonempty")
    if any(b <= a for a, b in zip(q_list, q_list[1:])):
        raise ValueError("q_list must be strictly ascending")
    return [count_aq(emb, q) for q in q_list]
