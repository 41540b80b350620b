"""Exact integer and rational linear algebra kernel.

Scalars are Python ints (arbitrary precision), so no overflow is possible
and every result is exact.  fractions.Fraction is only for the displayed
facet coefficients and for rational_determinant and solve_linear_system,
references kept for the tests.  Matrices and vectors are immutable tuples;
all functions here are pure and thread-safe.

Every elimination is fraction-free (Bareiss) and runs one loop, _bareiss:
forward for rank and determinant, with rational rows first cleared of their
denominators, and as the Gauss-Jordan pass of gauss_jordan, which gives the
independent columns with a scaled inverse: the start of the double
description.  No package code inverts a square matrix.

The Hermite normal form convention used throughout the package: row-style,
upper echelon, positive pivots, and every entry above a pivot reduced into
[0, pivot).  Lattice coordinates elsewhere in the package are always taken
against a basis in this form.  Box points are walked in runs (_lattice_runs):
the first d-1 coefficients pivot by pivot, the last over the interval the box
cuts out.  The counter that counts box points without walking them,
count_lattice_points, lives with its callers in frobenius.
"""

from fractions import Fraction
from math import lcm, prod
from operator import add, index
from typing import Iterator, NamedTuple, Sequence

Vector = tuple[int, ...]


class IntegerMatrix(NamedTuple("IntegerMatrix", [("rows", tuple[Vector, ...])])):
    """Immutable rectangular matrix with arbitrary-precision integer entries."""

    __slots__ = ()

    def __new__(cls, rows):
        rows = tuple(tuple(map(index, row)) for row in rows)  # TypeError on 1.5, Fraction
        if len(set(map(len, rows))) > 1:
            raise ValueError("matrix rows must all have the same length")
        return super().__new__(cls, rows)

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


def vscale(c, u: Sequence) -> tuple:
    return tuple(c * a for a in u)


def hermite_basis(m: IntegerMatrix) -> IntegerMatrix:
    """Row-style Hermite normal form basis of the row lattice of m.

    The result has full row rank equal to the rank of m and the same integer
    row span; a zero matrix yields an empty basis of rank 0.  Idempotent.
    Column by column, one _clear_column pass clears each entry below the
    pivot in one step and drops the rows that vanish; the pivot row, made
    positive, then reduces the entries above it into [0, pivot).
    """
    if m.nrows < 1:
        raise ValueError("hermite_basis requires at least one row")
    rows, basis = [list(r) for r in m.rows if any(r)], []
    for col in range(m.ncols):
        pivot, rows = _clear_column(rows, col)
        if pivot is not None:
            if (p := pivot[col]) < 0:
                pivot, p = [-a for a in pivot], -p
            for i, row in enumerate(basis):
                if q := row[col] // p:  # floor division puts the entry in [0, p)
                    basis[i] = [a - q * b for a, b in zip(row, pivot)]
            basis.append(pivot)
    return IntegerMatrix(tuple(map(tuple, basis)))


def _clear_column(rows: list[list[int]], col: int) -> tuple[list[int] | None, list[list[int]]]:
    """(pivot, rest): the first row nonzero in column col, and the other nonzero rows cleared there.

    Each later nonzero entry b under the pivot's a takes one step: a row
    subtraction when a divides b, else the unimodular step of the extended gcd
    g = s a + t b: pivot <- s pivot + t row, row <- (a/g) row - (b/g) pivot.
    """
    pivot, rest = None, []
    for row in rows:
        if not (b := row[col]):
            rest.append(row)
        elif pivot is None:
            pivot = row
        else:
            if b % (a := pivot[col]):
                g, s, t = _euclid(a, b)
                u, v, pairs = a // g, b // g, list(zip(pivot, row))
                pivot, row = [s * x + t * y for x, y in pairs], [u * y - v * x for x, y in pairs]
            else:
                q = b // a
                row = [y - q * x for x, y in zip(pivot, row)]
            if any(row):
                rest.append(row)
    return pivot, rest


def _euclid(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = s a + t b, a gcd of a and b of either sign; b != 0."""
    s, s1, g, r = 1, 0, a, b
    while r:
        q = g // r
        g, r, s, s1 = r, g - q * r, s1, s - q * s1
    return g, s, (g - s * a) // b


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
    if not all(map(any, basis.rows)):
        raise ValueError("basis contains a zero row")
    return [next(j for j, entry in enumerate(row) if entry) for row in basis.rows]


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
        residual, coeffs = list(map(index, v)), []
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
        pivot = next((i for i in range(col, n) if work[i][col]), None)
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
    a = [[*map(index, row), *(0,) * i, 1, *(0,) * (n - i - 1)] for i, row in enumerate(rows)]
    pivots, _, d = _bareiss(a, ncols, jordan=True)
    return pivots, d, tuple(tuple(row[ncols:]) for row in a)


def rational_determinant(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant of a square int/Fraction matrix, via its cleared rows."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("rational_determinant requires a square matrix")
    scales, cleared = zip(*map(clear_denominators, rows)) if rows else ((), ())
    return Fraction(determinant(cleared), prod(scales))


def extended_gcd_vector(values: Sequence[int]) -> tuple[int, Vector]:
    """gcd g of values and integer coefficients c with c . values = g."""
    if not values:
        raise ValueError("extended_gcd_vector requires at least one value")
    g, coeffs = 0, [0] * len(values)
    for k, a in enumerate(values):
        if a:
            g, s, t = _euclid(g, a)
            coeffs = [s * c for c in coeffs]
            coeffs[k] += t
            if g < 0:
                g, coeffs = -g, [-c for c in coeffs]
    return g, tuple(coeffs)


def _lattice_runs(basis: IntegerMatrix, bounds: list[int]) -> Iterator[tuple[Vector, int, int]]:
    """Runs (point, lo, hi): the box points point + c * basis.rows[-1], lo <= c <= hi.

    The basis must be in Hermite form with a row, one nonnegative bound per
    column.  The first d-1 coefficients are iterated pivot by pivot, pruned by
    the coordinates each makes final; the box cuts the last coefficient c to
    an interval.  Points first differ at a pivot: they come in lexicographic order.
    """
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
    bounds = list(map(index, bounds))
    if basis.nrows and basis.ncols != len(bounds):
        raise ValueError("bounds length does not match basis width")
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
