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
from math import gcd, lcm, prod
from operator import add, index, sub
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
    bounds = list(map(index, bounds))
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
