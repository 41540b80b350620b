"""Free-rank counting and Hilbert-Kunz colengths for embedded semigroups.

After the full embedding, the free rank a_q is the number of image-group
points in the box [0, q-1]^n: fullness turns divisibility inside the
semigroup into componentwise comparison, so counting semigroup elements
reduces to counting lattice points.  The same comparison drives the
colength counts: a monomial lies in a monomial ideal exactly when it
componentwise dominates q times one of the ideal's minimal generators, so a
colength is the number of image-group points in N^n that dominate none of
them.  Both come from count_lattice_points, at the end of this module, which
enumerates no point and counts the coefficient prefixes that share an open
state once.  Like f_signature, both count the image group inside N^n, which
is the semigroup of a normal input and the normalization of any other.

q is accepted as any positive integer, not only a prime power: everything
computed here is lattice combinatorics, and the identities it verifies hold
verbatim for every q.

The closure oracle and the minimal-generator search pack a point of N^n
into one int (_pack): field j, w bits wide, holds coordinate j, and its top
bit is a guard bit.  Each sum or difference they form stays in [0, 2^w) per
field, so no carry crosses a field, one int op acts componentwise, and the
guard bits answer a bound test for every coordinate at once.
"""

from bisect import bisect_right
from fractions import Fraction
from operator import index, itemgetter, le
from typing import NamedTuple, Sequence

from .cone import FullEmbedding, fraction_field_witness, full_embedding
from .errors import BudgetExceeded, NotPrimary
from .exact import (
    IntegerMatrix,
    Vector,
    _lattice_runs,
    _pivot_columns,
    express_in_basis,
    vadd,
    vscale,
)
from .semigroup import SemigroupPresentation, build_context


class FrobeniusCount(NamedTuple):
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

    Packed, field j is p_j + 2^(w-1) - q with w = q.bit_length() + 1, so p_j
    in [0, q-1] fills exactly the values below the guard bit 2^(w-1).  Generators
    with an entry >= q are dropped; any other added to a point in the box gives
    fields below 2^(w-1) + q - 1 < 2^w, so no carry crosses a field, and the sum
    left the box exactly when one of its guard bits is set.
    """
    q = index(q)
    if q < 1:
        raise ValueError("q must be a positive integer")
    emb = full_embedding(build_context(presentation))
    n, width = emb.num_coordinates, q.bit_length() + 1
    high = _pack([1 << width - 1] * n, width)
    steps = [_pack(g, width) for g in emb.image_generators if max(g) < q]
    zero = _pack([(1 << width - 1) - q] * n, width)
    seen = {zero}
    frontier = [zero]
    while frontier:
        point = frontier.pop()
        for g in steps:
            nxt = point + g
            if nxt & high or nxt in seen:
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


class MonomialIdeal(NamedTuple):
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
        the search box.  A box point u >= g, for a generator image g, with
        u - g not below t*mu is skipped: u - g is then a box point too, and
        below u.

        The box is walked by the runs of exact._lattice_runs, a packed point
        stepping by the packed last Hermite row.  Fields are w = b.bit_length()
        + 1 bits for the largest bound b, so every entry of a box point stays
        below the guard bit 2^(w-1), negative steps included.  Then u <= v is
        ((v | guard) - u) & guard == guard: field j of the difference is
        2^(w-1) + v_j - u_j in [1, 2^w), so no borrow crosses a field, and its
        guard bit is set exactly when u_j <= v_j.  Only kept points are unpacked.
        """
        n, images = emb.num_coordinates, emb.image_generators
        candidates: list[Vector] = []
        gamma = [max(g[j] for g in images) for j in range(n)]
        last = emb.image_lattice.rows[-1]
        for tmu in self.bounds:
            bounds = vadd(tmu, gamma)
            width = max(bounds).bit_length() + 1
            guard, mask = _pack([1 << width - 1] * n, width), (1 << width) - 1
            top, step = _pack(tmu, width) | guard, _pack(last, width)
            # (guard - g) + u keeps every guard bit iff g <= u; u - g <= t*mu iff u <= t*mu + g
            pairs = [(guard - _pack(g, width), _pack(vadd(tmu, g), width) | guard) for g in images]
            for point, lo, hi in _lattice_runs(emb.image_lattice, list(bounds)):
                first = _pack(vadd(point, vscale(lo, last)), width)
                for u in range(first, first + (hi - lo + 1) * step, step):
                    if (top - u) & guard == guard:  # u <= t*mu, u = 0 included
                        continue
                    for g, v in pairs:
                        if (g + u) & guard == guard and (v - u) & guard != guard:
                            break
                    else:
                        candidates.append(tuple(u >> j * width & mask for j in range(n)))
        for u in self.generators:
            if len(u) != n:
                raise ValueError(f"generator {u} has wrong length")
            if any(x < 0 for x in u) or express_in_basis(u, emb.image_lattice) is None:
                raise ValueError(f"generator {u} is not a semigroup element")
            candidates.append(u)
        return _minimalize(candidates)


def _pack(vector: Sequence[int], width: int) -> int:
    """vector[j] in field j of a width-bit-per-field int: sum of vector[j] << j*width."""
    return sum(x << j * width for j, x in enumerate(vector))


def _minimalize(vectors: list[Vector]) -> tuple[Vector, ...]:
    """The componentwise-minimal vectors, by (sum, vector), compared packed."""
    if not vectors:
        return ()
    width = max(map(max, vectors)).bit_length() + 1
    guard = _pack([1 << width - 1] * len(vectors[0]), width)
    kept: dict[int, Vector] = {}  # packed vector -> vector
    for v in sorted(set(vectors), key=lambda u: (sum(u), u)):
        top = _pack(v, width) | guard
        if not any((top - w) & guard == guard for w in kept):
            kept[top ^ guard] = v
    return tuple(kept.values())


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


def count_lattice_points(
    basis: IntegerMatrix,
    bounds: Sequence[int],
    avoid: Sequence[Sequence[int]] = (),
    limit: int | None = None,
) -> int:
    """Number of row-lattice points in prod [0, bounds[j]] dominating no avoid vector.

    A point dominates v when it is componentwise at least v.  The basis must
    be in Hermite form.  Coordinate j is final once the last row with a
    nonzero entry in column j has its coefficient fixed.  A row's
    coefficient c moves its pivot and the columns it makes final affinely,
    so by floor divisions the box keeps one interval of c there, and each
    live avoid vector (one every final coordinate reaches) is kept on
    another, where those coordinates reach it too; outside it the vector is
    dropped.  A kept vector whose positive entries are all final blocks
    every point of its interval.  Every row is swept by the sorted ends of
    those intervals, not looped: between two ends the kept set is constant,
    and only the runs of c that nothing blocks are counted, so a range the
    box or a blocking vector excludes costs one floor division.  The last
    row moves only the leaf, its pivot and the columns it makes final, and
    counts the length of its runs.  A vector at least another on the leaf
    cuts a sub-interval of the other's, so only the front, the live vectors
    minimal on the leaf, is cut there, found once per live bitmask (one bit
    per avoid vector, carried down the walk).

    The count below row k depends only on k, the coordinates still open
    there and the live bitmask, as rows k.. change and read no final
    coordinate: rows 0..d-2 are memoized on those in a dict local to the
    call.  The rows above d-2 recurse on each coefficient of a run, with the
    run's kept set.  Row d-2 reads each run from a line of the last level:
    along a run the leaf moves along one line, in steps of row d-2, and the
    last-level counts along each (kept bitmask, line) are held as prefix
    sums, extended on demand either way, so each last-level state is scored
    once and a run costs two lookups.

    With limit set, counting stops once the running count passes it, and the
    returned number is then some count above limit: a memoized branch can
    carry it far past limit in one step, and a run stops at its first
    coefficient that passes it.  A branch cut short is not memoized.
    """
    bounds = list(map(index, bounds))
    ncols = len(bounds)
    avoid = [tuple(map(index, v)) for v in avoid]
    if any(len(v) != ncols for v in avoid):
        raise ValueError("avoid vector length does not match the box")
    if any(b < 0 for b in bounds):
        return 0
    d = basis.nrows
    if d and basis.ncols != ncols:
        raise ValueError("bounds length does not match basis width")
    rows = basis.rows
    pivots = _pivot_columns(basis)
    # level[j]: the last row with a nonzero entry in column j, -1 for none.
    level = [max((k for k in range(d) if rows[k][j]), default=-1) for j in range(ncols)]
    final = [[j for j in range(ncols) if level[j] == k and j != p] for k, p in enumerate(pivots)]
    # Each avoid vector with the level at which its last positive entry
    # becomes final; coordinates of level -1 are 0.
    live = []
    for v in avoid:
        end = max((level[j] for j, x in enumerate(v) if x > 0), default=-1)
        if all(x <= 0 for x, lev in zip(v, level) if lev < 0):
            if end < 0:
                return 0
            live.append((v, end, 1 << len(live)))
    if d == 0:
        return 1
    # A row's coefficient c moves its pivot and the other columns of its final
    # set by s_j each; cutter reads them at positions at(j), split by sign.
    def cutter(k: int, top: Sequence[int], at=lambda j: j):
        row, p = rows[k], pivots[k]
        step, p = row[p], at(p)
        rising = [(at(j), row[j]) for j in final[k] if row[j] > 0]
        falling = [(at(j), -row[j]) for j in final[k] if row[j] < 0]

        def cut(u, items) -> tuple[int, list]:
            # lo and the sorted ends of the intervals of c: (hi + 1, 0, 0) past
            # the [lo, hi] that keeps u + c*row in the box on those columns, and
            # per item (v, end, bit) whose [vlo, vhi] (vlo not cut to lo) with
            # u + c*row >= v there is not empty, (vlo, bit, blocks) and, if
            # vhi < hi, (vhi + 1, bit, -blocks); v blocks if end <= k
            lo, hi = -(u[p] // step), (top[p] - u[p]) // step
            for j, s in rising:
                a, b = -(u[j] // s), (top[j] - u[j]) // s
                lo, hi = a if a > lo else lo, b if b < hi else hi
            for j, s in falling:
                a, b = -((top[j] - u[j]) // s), u[j] // s
                lo, hi = a if a > lo else lo, b if b < hi else hi
            ends = [(hi + 1, 0, 0)]
            if lo <= hi:
                for v, end, bit in items:
                    vlo, vhi = -((u[p] - v[p]) // step), hi
                    for j, s in rising:
                        a = -((u[j] - v[j]) // s)
                        vlo = a if a > vlo else vlo
                    for j, s in falling:
                        b = (u[j] - v[j]) // s
                        vhi = b if b < vhi else vhi
                    if vlo <= vhi:
                        ends.append((vlo, bit, end <= k))
                        if vhi < hi:
                            ends.append((vhi + 1, bit, -(end <= k)))
                ends.sort()
            return lo, ends

        return cut

    leaf = [pivots[-1]] + final[-1]  # the last level reads points and vectors on leaf
    cut_last = cutter(d - 1, [bounds[j] for j in leaf], leaf.index)
    memo: dict[tuple, int] = {}  # (k < d - 1, live bitmask, open coordinates) -> count below
    fronts: dict[int, list] = {}  # live bitmask -> the live vectors minimal on leaf
    lines: dict[tuple, tuple] = {}  # (kept bitmask, line base) -> prefix sums along the line
    members: dict[int, list] = {}  # kept bitmask -> its items, for the rows above d - 2

    def front(live) -> list:
        # sorted on leaf, a vector comes after every vector below it there; each
        # is kept as an item of the last row (end d - 1, no bit), so it blocks
        minimal: list = []
        for u in sorted({tuple(v[j] for j in leaf) for v, _, _ in live}):
            if not any(all(map(le, w, u)) for w, _, _ in minimal):
                minimal.append((u, d - 1, 0))
        return minimal

    def count_last(u: tuple, front: list) -> int:
        # the c of the box that no front vector's interval holds
        lo, ends = cut_last(u, front)
        count = blocked = 0
        for c, _, block in ends:
            if lo < c and not blocked:
                count += c - lo
            lo, blocked = c if c > lo else lo, blocked + block
        return count

    if d == 1:
        return count_last((0,) * len(leaf), front(live))
    # opened[k] reads the coordinates not yet final at row k: the memo key with k and the live bits.
    opened = [itemgetter(*[j for j in range(ncols) if level[j] >= k]) for k in range(d - 1)]
    cut_rows = [cutter(k, bounds) for k in range(d - 1)]
    # Row d - 2 moves the leaf by delta.  A line of leaf points base + m*delta
    # is keyed by its base, whose entry at lead, the first nonzero of delta,
    # lies in [0, delta[lead]) (in (delta[lead], 0] for a negative one).
    delta = [rows[d - 2][j] for j in leaf]
    lead = next((i for i, s in enumerate(delta) if s), None)

    def run(bits: int, live, base: tuple, ma: int, mb: int, room) -> int:
        """The last-level count of the kept set bits summed over the line's
        points ma <= m < mb, or its first partial sum past room."""
        vectors = fronts.get(bits)
        if vectors is None:
            vectors = fronts[bits] = front([item for item in live if item[2] & bits])
        table = lines.get((bits, base))
        if table is None:  # the one state of a line with delta 0, or empty sums from ma
            table = count_last(base, vectors) if lead is None else (ma, [0], [0])
            lines[bits, base] = table
        if lead is None:  # m points of the one state
            sums = table.__mul__
        else:
            # right[i] sums the points m0 <= m < m0 + i, left[i] those m0 - i <= m < m0
            m0, right, left = table
            for m in range(m0 + len(right) - 1, mb):
                u = tuple(x + m * s for x, s in zip(base, delta))
                right.append(right[-1] + count_last(u, vectors))
            for m in range(m0 - len(left), ma - 1, -1):
                u = tuple(x + m * s for x, s in zip(base, delta))
                left.append(left[-1] + count_last(u, vectors))

            def sums(m: int) -> int:  # the points m0 <= . < m, negated for m < m0
                return right[m - m0] if m >= m0 else -left[m0 - m]

        first = sums(ma)
        total = sums(mb) - first
        if total > room:
            m = bisect_right(range(ma + 1, mb + 1), room + first, key=sums)
            return sums(ma + 1 + m) - first
        return total

    def rec(k: int, point: list[int], live, bits: int, room) -> int:
        key = (k, bits, opened[k](point))
        if key in memo:
            return memo[key]
        # Between two ends of the intervals the kept set is constant: each
        # run of c that no kept vector blocks is counted.
        lo, ends = cut_rows[k](point, live)
        if k == d - 2:  # the leaf is at base + (c + shift)*delta: a run is read from that line
            shift = 0 if lead is None else point[leaf[lead]] // delta[lead]
            base = tuple(point[j] - shift * s for j, s in zip(leaf, delta))
        row = rows[k]
        count = kept = blocked = 0
        for c, bit, block in ends:
            if lo < c and not blocked:
                if k == d - 2:
                    count += run(kept, live, base, lo + shift, c + shift, room - count)
                else:
                    items = members.get(kept)
                    if items is None:
                        items = members[kept] = [item for item in live if item[2] & kept]
                    for b in range(lo, c):
                        moved = [a + b * s for a, s in zip(point, row)]
                        count += rec(k + 1, moved, items, kept, room - count)
                        if count > room:
                            break
                if count > room:
                    return count  # a partial count, never memoized
            lo, kept, blocked = c if c > lo else lo, kept ^ bit, blocked + block
        memo[key] = count
        return count

    room = float("inf") if limit is None else limit
    try:
        return rec(0, [0] * ncols, live, (1 << len(live)) - 1, room)
    finally:
        memo.clear()  # rec refers to itself: free the memo now, not at a later gc pass
        fronts.clear()
        lines.clear()
        members.clear()
