"""Exact integer and rational linear algebra kernel.

Scalars are Python ints (arbitrary precision), so no overflow is possible
and every result is exact.  fractions.Fraction is only for the displayed
facet coefficients and for rational_determinant and solve_linear_system,
references kept for the tests.  Matrices and vectors are immutable tuples;
all functions here are pure and thread-safe.

Every elimination is fraction-free (Bareiss) and runs one loop, _bareiss:
forward for rank and determinant, with rational rows first cleared of their
denominators, and as the Gauss-Jordan pass of gauss_jordan, which gives the
independent columns with a scaled inverse and has scaled_inverse as its
square case.

The Hermite normal form convention used throughout the package: row-style,
upper echelon, positive pivots, and every entry above a pivot reduced into
[0, pivot).  Lattice coordinates elsewhere in the package are always taken
against a basis in this form.  Box points are walked in runs: the first d-1
coefficients pivot by pivot, the last over the interval the box cuts out.
"""

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import add, index, itemgetter, le, sub
from typing import Iterator, Sequence

Vector = tuple[int, ...]


@dataclass(frozen=True)
class IntegerMatrix:
    """Immutable rectangular matrix with arbitrary-precision integer entries."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(map(index, row)) for row in self.rows)  # TypeError on 1.5, Fraction
        if len(set(map(len, rows))) > 1:
            raise ValueError("matrix rows must all have the same length")
        object.__setattr__(self, "rows", rows)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(tuple(zip(*self.rows)) if self.rows else ())


def vadd(u: Sequence, v: Sequence) -> tuple:
    return tuple(map(add, u, v))


def vsub(u: Sequence, v: Sequence) -> tuple:
    return tuple(map(sub, u, v))


def vscale(c, u: Sequence) -> tuple:
    return tuple(c * a for a in u)


def hermite_basis(m: IntegerMatrix) -> IntegerMatrix:
    """Row-style Hermite normal form basis of the row lattice of m.

    The result has full row rank equal to the rank of m and the same integer
    row span; a zero matrix yields an empty basis of rank 0.  Idempotent.
    """
    if m.nrows < 1:
        raise ValueError("hermite_basis requires at least one row")
    work = [list(r) for r in m.rows]
    n = len(work)
    ncols = len(work[0])
    r = 0
    for col in range(ncols):
        # Euclid on the column below r until at most one nonzero entry is left.
        while True:
            nz = [i for i in range(r, n) if work[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(work[i][col]), i))
            if i0 != r:
                work[r], work[i0] = work[i0], work[r]
            others = [i for i in range(r + 1, n) if work[i][col] != 0]
            if not others:
                break
            p = work[r][col]
            for i in others:
                q = work[i][col] // p
                work[i] = [a - q * b for a, b in zip(work[i], work[r])]
        if r < n and work[r][col] != 0:
            if work[r][col] < 0:
                work[r] = [-a for a in work[r]]
            p = work[r][col]
            for i in range(r):
                q = work[i][col] // p  # floor division puts the entry in [0, p)
                if q:
                    work[i] = [a - q * b for a, b in zip(work[i], work[r])]
            r += 1
            if r == n:
                break
    return IntegerMatrix(tuple(tuple(row) for row in work[:r]))


def clear_denominators(row: Sequence) -> tuple[int, list[int]]:
    """(s, s * row) with s the lcm of the denominators of the int/Fraction row."""
    scale = lcm(*(x.denominator for x in row))
    return scale, [x.numerator * (scale // x.denominator) for x in row]


def _bareiss(a: list[list[int]], ncols: int, jordan: bool = False) -> tuple[list[int], int, int]:
    """Fraction-free (Bareiss) elimination, in place, of integer rows on their first ncols columns.

    Returns (pivot columns, sign of the row swaps, last pivot).  A column
    with no pivot left is skipped, so column j is a pivot iff it is
    independent of the columns before it.  Each pivot clears the rows below
    it or, with jordan, every other row.  Every entry stays an integer minor,
    so each division by the previous pivot is exact; only the columns right
    of the pivot are updated, as no other is read again.
    """
    n = len(a)
    pivots, sign, prev = [], 1, 1
    for col in range(ncols):
        r = len(pivots)
        for i in range(r, n):
            if a[i][col]:
                break
        else:
            continue
        if i != r:
            a[r], a[i] = a[i], a[r]
            sign = -sign
        p, tail = a[r][col], a[r][col + 1 :]
        for row in a[:r] + a[r + 1 :] if jordan else a[r + 1 :]:
            if f := row[col]:
                row[col + 1 :] = [(p * x - f * y) // prev for x, y in zip(row[col + 1 :], tail)]
            elif p != prev:  # a zero entry only rescales its row
                row[col + 1 :] = [p * x // prev for x in row[col + 1 :]]
        prev = p
        pivots.append(col)
        if r + 1 == n:
            break
    return pivots, sign, prev


def determinant(m: IntegerMatrix | Sequence[Sequence[int]]) -> int:
    """Exact determinant of an IntegerMatrix or of integer rows, by Bareiss."""
    rows = m.rows if isinstance(m, IntegerMatrix) else m
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("determinant requires a square matrix")
    pivots, sign, last = _bareiss([list(row) for row in rows], len(rows))
    return sign * last if len(pivots) == len(rows) else 0


def _pivot_columns(basis: IntegerMatrix) -> list[int]:
    pivots = []
    for row in basis.rows:
        for j, entry in enumerate(row):
            if entry != 0:
                pivots.append(j)
                break
        else:
            raise ValueError("basis contains a zero row")
    return pivots


def lattice_coordinates(vectors: Sequence, basis: IntegerMatrix) -> list[Vector | None]:
    """Per vector v, the coefficients c with c @ basis = v, or None if v is outside the lattice.

    The basis must be in the Hermite form produced by hermite_basis, so the
    coefficients are read off by forward substitution on the pivot columns,
    found once for all the vectors.
    """
    steps = list(zip(basis.rows, _pivot_columns(basis)))
    out: list[Vector | None] = []
    for v in vectors:
        if basis.nrows and len(v) != basis.ncols:
            raise ValueError("vector length does not match basis width")
        residual, coeffs = [int(x) for x in v], []
        for row, p in steps:
            c, rem = divmod(residual[p], row[p])
            if rem:
                break
            if c:
                residual = [a - c * b for a, b in zip(residual, row)]
            coeffs.append(c)
        out.append(tuple(coeffs) if len(coeffs) == len(steps) and not any(residual) else None)
    return out


def express_in_basis(v: Sequence[int], basis: IntegerMatrix) -> Vector | None:
    """c with c @ basis = v, or None if v is outside the lattice; see lattice_coordinates."""
    return lattice_coordinates([v], basis)[0]


def solve_integer_combination(m: IntegerMatrix, target: Sequence[int]) -> Vector | None:
    """Some integer row combination a with a @ m = target, or None.

    Each Hermite basis row of [m | I] whose left part is nonzero carries, on
    its right, the combination of the rows of m that gives that left part;
    those left parts are the Hermite basis of m.  No package code calls this:
    the benchmark tracer counts it by name.
    """
    k, n = m.ncols, m.nrows
    identity = (tuple(int(i == j) for j in range(n)) for i in range(n))
    augmented = hermite_basis(IntegerMatrix(tuple(r + e for r, e in zip(m.rows, identity))))
    rows = [row for row in augmented.rows if any(row[:k])]
    coeffs = express_in_basis(target, IntegerMatrix(tuple(row[:k] for row in rows)))
    if coeffs is None:
        return None
    a = (0,) * n
    for c, row in zip(coeffs, rows):
        a = vadd(a, vscale(c, row[k:]))
    return a


def matrix_rank(rows: Sequence[Sequence]) -> int:
    """Rank over the rationals of int/Fraction rows; a Fraction entry is cleared first."""
    if not all(isinstance(x, int) for row in rows for x in row):
        rows = [clear_denominators(row)[1] for row in rows]  # row scaling keeps the rank
    ncols = len(rows[0]) if rows else 0
    if len(rows) > ncols:  # eliminate the transpose: fewer, longer rows
        rows, ncols = list(zip(*rows)), len(rows)
    return len(_bareiss([list(row) for row in rows], ncols)[0])


def solve_linear_system(rows: Sequence[Sequence], rhs: Sequence) -> tuple[Fraction, ...] | None:
    """Solve a square nonsingular rational system; None if singular."""
    n = len(rows)
    if n == 0:
        return ()
    if any(len(row) != n for row in rows) or len(rhs) != n:
        raise ValueError("solve_linear_system expects a square system")
    work = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = None
        for i in range(col, n):
            if work[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for i in range(n):
            if i != col and work[i][col] != 0:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[col])]
    return tuple(row[n] for row in work)


def gauss_jordan(rows: Sequence[Sequence[int]]) -> tuple[list[int], int, tuple[Vector, ...]]:
    """(pivot columns, d, E): the Gauss-Jordan pass of _bareiss on [M | I], M the integer rows.

    E is the right block: on the pivot columns, the first len(pivots) rows of
    E @ M are d * I, with d the last pivot (1 with none).
    """
    n, ncols = len(rows), len(rows[0]) if rows else 0
    a = [[index(x) for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    pivots, _, d = _bareiss(a, ncols, jordan=True)
    return pivots, d, tuple(tuple(row[ncols:]) for row in a)


def scaled_inverse(rows: Sequence[Sequence[int]]) -> tuple[int, tuple[Vector, ...] | None]:
    """(d, B) with B @ A = A @ B = d * I and d = +-det A, or (0, None) if singular."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("scaled_inverse requires a square matrix")
    pivots, d, inverse = gauss_jordan(rows)  # the square case: the left block ends as d * I
    return (d, inverse) if len(pivots) == n else (0, None)


def rational_determinant(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant of a square int/Fraction matrix, via its cleared rows."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("rational_determinant requires a square matrix")
    scales, cleared = zip(*map(clear_denominators, rows)) if rows else ((), ())
    return Fraction(determinant(cleared), prod(scales))


def primitive_vector(vec: Sequence) -> Vector:
    """The unique primitive integer vector that is a positive multiple of vec.

    Entries are ints or Fractions; the denominators are cleared in integers.
    """
    try:
        g = gcd(*vec)
    except TypeError:  # a Fraction entry: clear the denominators first
        g = gcd(*(vec := clear_denominators(vec)[1]))
    if g == 0:
        raise ValueError("the zero vector has no primitive form")
    return tuple(x // g for x in vec)


def extended_gcd_vector(values: Sequence[int]) -> tuple[int, Vector]:
    """gcd g of values and integer coefficients c with c . values = g."""
    if not values:
        raise ValueError("extended_gcd_vector requires at least one value")
    g = 0
    coeffs = [0] * len(values)
    for k, a in enumerate(values):
        if a == 0:
            continue
        if g == 0:
            g = abs(a)
            coeffs = [0] * len(values)
            coeffs[k] = 1 if a > 0 else -1
            continue
        # Euclid on (g, a), tracking coefficients of g only.
        old_r, r = g, a
        old_s, s = 1, 0
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_s, s = s, old_s - q * s
        # old_s * g + t * a = old_r with t = (old_r - old_s * g) / a
        t = (old_r - old_s * g) // a
        coeffs = [old_s * c for c in coeffs]
        coeffs[k] += t
        g = old_r
        if g < 0:
            g = -g
            coeffs = [-c for c in coeffs]
    return g, tuple(coeffs)


def _lattice_runs(basis: IntegerMatrix, bounds: list[int]) -> Iterator[tuple[Vector, int, int]]:
    """Runs (point, lo, hi): the box points point + c * basis.rows[-1], lo <= c <= hi.

    The basis must be in Hermite form with a row, and the bounds nonnegative.
    The first d-1 coefficients are iterated pivot by pivot, pruned by the
    coordinates each makes final; the box cuts the last coefficient c to an
    interval.  Points first differ at a pivot: they come in lexicographic order.
    """
    if basis.ncols != len(bounds):
        raise ValueError("bounds length does not match basis width")
    rows, pivots = basis.rows, _pivot_columns(basis)
    last, step = pivots[-1], rows[-1][pivots[-1]]
    tail = [(j, rows[-1][j]) for j in range(last + 1, len(bounds))]

    def rec(k: int, point: list[int]) -> Iterator[tuple[Vector, int, int]]:
        if k == len(rows) - 1:
            lo, hi = -(point[last] // step), (bounds[last] - point[last]) // step
            for j, s in tail:
                if s > 0:
                    lo, hi = max(lo, -(point[j] // s)), min(hi, (bounds[j] - point[j]) // s)
                elif s < 0:
                    lo, hi = max(lo, -((bounds[j] - point[j]) // -s)), min(hi, point[j] // -s)
                elif not 0 <= point[j] <= bounds[j]:
                    return
            if lo <= hi:
                yield tuple(point), lo, hi
            return
        row, p, end = rows[k], pivots[k], pivots[k + 1]
        for c in range(-(point[p] // row[p]), (bounds[p] - point[p]) // row[p] + 1):
            moved = point[:p] + [a + c * s for a, s in zip(point[p:], row[p:])]
            if all(0 <= moved[j] <= bounds[j] for j in range(p + 1, end)):
                yield from rec(k + 1, moved)

    yield from rec(0, [0] * len(bounds))


def lattice_points_in_box(basis: IntegerMatrix, bounds: Sequence[int]) -> Iterator[Vector]:
    """All points of the row lattice of basis inside the box prod [0, bounds[j]].

    The basis must be in Hermite form.  The points come in increasing
    lexicographic order: the runs of _lattice_runs, expanded.
    """
    bounds = [int(b) for b in bounds]
    if any(b < 0 for b in bounds):
        return
    if basis.nrows == 0:
        yield (0,) * len(bounds)
        return
    last = basis.rows[-1]
    for point, lo, hi in _lattice_runs(basis, bounds):
        v = tuple(a + (lo - 1) * s for a, s in zip(point, last))
        for _ in range(hi - lo + 1):
            v = tuple(map(add, v, last))
            yield v


def count_lattice_points(
    basis: IntegerMatrix,
    bounds: Sequence[int],
    avoid: Sequence[Sequence[int]] = (),
    limit: int | None = None,
) -> int:
    """Number of row-lattice points in prod [0, bounds[j]] dominating no avoid vector.

    A point dominates v when it is componentwise at least v.  The basis must
    be in Hermite form.  The first d-1 coefficients are iterated pivot by
    pivot, pruned by the box as in lattice_points_in_box.  Coordinate j is
    final once the last row with a nonzero entry in column j has its
    coefficient fixed; then the box is checked there, an avoid vector the
    coordinate falls below is dropped, and the branch is empty once a
    surviving avoid vector has all its positive entries in final
    coordinates.  The last row moves only the leaf, its pivot and the columns
    it makes final, affinely in its coefficient c: the box cuts out one
    interval of c and each surviving avoid vector another, and the count is
    the box interval minus the union of the avoid intervals.  A vector at
    least another on the leaf cuts a sub-interval of the other's, so only the
    front, the live vectors minimal on the leaf, is scored, found once per
    live bitmask (one bit per avoid vector, carried down the walk).

    The count below row k depends only on k, the coordinates still open
    there and the live bitmask, as rows k.. change and read no final
    coordinate: rows 0..d-2 are memoized on those in a dict local to the
    call.  Row d-2 is swept, not looped: by the same floor divisions, each
    live vector is kept on one interval of its coefficient, and between the
    ends of those intervals the kept set is constant while the leaf moves
    along one line, in steps of row d-2.  The last-level counts along each
    (kept bitmask, line) are held as prefix sums, extended on demand either
    way, so each last-level state is scored once and a run costs two lookups.

    With limit set, counting stops once the running count passes it, and the
    returned number is then some count above limit: a memoized branch can
    carry it far past limit in one step, and a run stops at its first
    coefficient that passes it.  A branch cut short is not memoized.
    """
    bounds = [int(b) for b in bounds]
    ncols = len(bounds)
    avoid = [tuple(int(x) for x in v) for v in avoid]
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

        def cut(u, vectors) -> tuple[int, int, list]:
            # [lo, hi], the c that keep u + c*row in the box on those columns,
            # and per vector v the c from vlo (not cut to lo) to vhi with u + c*row >= v there
            lo, hi = -(u[p] // step), (top[p] - u[p]) // step
            for j, s in rising:
                a, b = -(u[j] // s), (top[j] - u[j]) // s
                lo, hi = a if a > lo else lo, b if b < hi else hi
            for j, s in falling:
                a, b = -((top[j] - u[j]) // s), u[j] // s
                lo, hi = a if a > lo else lo, b if b < hi else hi
            cuts = []
            if lo <= hi:
                for v in vectors:
                    vlo, vhi = -((u[p] - v[p]) // step), hi
                    for j, s in rising:
                        a = -((u[j] - v[j]) // s)
                        vlo = a if a > vlo else vlo
                    for j, s in falling:
                        b = (u[j] - v[j]) // s
                        vhi = b if b < vhi else vhi
                    cuts.append((vlo, vhi))
            return lo, hi, cuts

        return cut

    leaf = [pivots[-1]] + final[-1]  # the last level reads points and vectors on leaf
    cut_last = cutter(d - 1, [bounds[j] for j in leaf], leaf.index)
    memo: dict[tuple, int] = {}  # (k < d - 1, live bitmask, open coordinates) -> count below
    fronts: dict[int, list] = {}  # live bitmask -> the live vectors minimal on leaf
    lines: dict[tuple, tuple] = {}  # (kept bitmask, line base) -> prefix sums along the line

    def front(live) -> list:
        # sorted on leaf, a vector comes after every vector below it there
        minimal: list = []
        for u in sorted({tuple(v[j] for j in leaf) for v, _, _ in live}):
            if not any(all(map(le, w, u)) for w in minimal):
                minimal.append(u)
        return minimal

    def count_last(u: tuple, front: list) -> int:
        lo, hi, cuts = cut_last(u, front)
        if lo > hi:
            return 0
        covered, reach = 0, lo - 1
        for vlo, vhi in sorted(cuts):
            if vlo <= vhi and vhi > reach:
                covered += vhi - (vlo if vlo > reach else reach + 1) + 1
                reach = vhi
        return hi - lo + 1 - covered

    if d == 1:
        return count_last((0,) * len(leaf), front(live))
    # opened[k] reads the coordinates not yet final at row k: the memo key with k and the live bits.
    opened = [itemgetter(*[j for j in range(ncols) if level[j] >= k]) for k in range(d - 1)]
    cut_row = cutter(d - 2, bounds)
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
        count = 0
        if k == d - 2:
            # Each live vector is kept on one interval of c; between the ends
            # of those intervals the kept set is constant, and the leaf is at
            # base + (c + shift)*delta: each run of c is read from that line.
            lo, hi, cuts = cut_row(point, [item[0] for item in live])
            ends = [(hi + 1, 0, 0)]
            for (vlo, vhi), (_, end, bit) in zip(cuts, live):
                if vlo <= vhi:  # a vector with end <= k blocks every point of its interval
                    ends.append((vlo, bit, end <= k))
                    if vhi < hi:
                        ends.append((vhi + 1, bit, -(end <= k)))
            shift = 0 if lead is None else point[leaf[lead]] // delta[lead]
            base = tuple(point[j] - shift * s for j, s in zip(leaf, delta))
            kept = blocked = 0
            for c, bit, block in sorted(ends):
                if lo < c and not blocked:
                    count += run(kept, live, base, lo + shift, c + shift, room - count)
                    if count > room:
                        return count  # a partial count, never memoized
                lo, kept, blocked = c if c > lo else lo, kept ^ bit, blocked + block
            memo[key] = count
            return count
        row, p, others = rows[k], pivots[k], final[k]
        step = row[p]
        # The pivot coordinate grows with c, so the vectors it passes are a
        # growing prefix of live sorted by their pivot entry.
        live = sorted(live, key=lambda item: item[0][p])
        passed, passed_bits, least_end = 0, 0, d
        first = -(point[p] // step)  # moved is point + c*row, from one row below the first c
        moved = [a + (first - 1) * s for a, s in zip(point, row)]
        for _ in range(first, (bounds[p] - point[p]) // step + 1):
            moved = list(map(add, moved, row))
            if others and not all(0 <= moved[j] <= bounds[j] for j in others):
                continue
            while passed < len(live) and live[passed][0][p] <= moved[p]:
                least_end = min(least_end, live[passed][1])
                passed_bits |= live[passed][2]
                passed += 1
            kept, kept_bits = live[:passed], passed_bits
            if others:
                kept = [item for item in kept if all(moved[j] >= item[0][j] for j in others)]
                if len(kept) < passed:
                    kept_bits = sum(item[2] for item in kept)
                if kept and min(end for _, end, _ in kept) <= k:
                    continue
            elif least_end <= k:
                break  # some vector is dominated by every point of this and later branches
            count += rec(k + 1, moved, kept, kept_bits, room - count)
            if count > room:
                return count  # a partial count, never memoized
        memo[key] = count
        return count

    room = float("inf") if limit is None else limit
    try:
        return rec(0, [0] * ncols, live, (1 << len(live)) - 1, room)
    finally:
        memo.clear()  # rec refers to itself: free the memo now, not at a later gc pass
        fronts.clear()
        lines.clear()
