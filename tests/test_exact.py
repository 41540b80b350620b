"""Exact kernel: Hermite form, determinants, lattice membership, enumeration."""

import gc
import itertools
import operator
import random
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsig import exact
from fsig.cone import full_embedding
from fsig.exact import (
    IntegerMatrix,
    determinant,
    express_in_basis,
    extended_gcd_vector,
    gauss_jordan,
    hermite_basis,
    lattice_coordinates,
    lattice_points_in_box,
    matrix_rank,
    rational_determinant,
    solve_integer_combination,
    solve_linear_system,
)
from fsig.families import segre_aq_closed_form, segre_generators, veronese_generators
from fsig.frobenius import (
    MonomialIdeal,
    _dominance,
    count_lattice_points,
    hk_difference_identity,
    socle_witness,
)
from fsig.semigroup import build_context
from oracles import (
    counted_by_enumeration,
    euclid_hermite_basis,
    leaf_front,
    primitive_vector,
    scaled_inverse,
)
from test_semigroup import SEEDS
from test_signature import FAMILY_MEMBERS, random_presentations


def brute_force_in_span(v, rows, coeff_bound=8):
    """Independent oracle: search small integer combinations exhaustively."""
    for coeffs in itertools.product(range(-coeff_bound, coeff_bound + 1), repeat=len(rows)):
        combo = [0] * len(v)
        for c, row in zip(coeffs, rows):
            combo = [a + c * b for a, b in zip(combo, row)]
        if tuple(combo) == tuple(v):
            return True
    return False


def cofactor_determinant(rows):
    """Independent oracle: textbook cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_determinant(minor)
    return total


class TestIntegerMatrix:
    def test_int_rows_kept_as_tuples(self):
        m = IntegerMatrix([[1, 2], [3, -4]])
        assert m.rows == ((1, 2), (3, -4))
        assert (m.nrows, m.ncols) == (2, 2)

    @pytest.mark.parametrize(
        "rows",
        [((Fraction(3, 2), 1.7),), ((1, 2), (3, 4.0)), ((Fraction(2), 1),), ((1, "2"),)],
        ids=["fraction-and-float", "integral-float", "integral-fraction", "string"],
    )
    def test_non_integer_entry_rejected(self, rows):
        # these were truncated by int() before: ((3/2, 1.7),) read as ((1, 1),)
        with pytest.raises(TypeError):
            IntegerMatrix(rows)

    def test_bool_entries_read_as_integers(self):
        m = IntegerMatrix(((True, 0), (2, False)))
        assert m.rows == ((1, 0), (2, 0))
        assert all(type(x) is int for row in m.rows for x in row)

    def test_ragged_rows_rejected(self):
        for rows in (((1, 2), (3,)), ((1,), (True, False))):
            with pytest.raises(ValueError, match="same length"):
                IntegerMatrix(rows)


class TestHermiteBasis:
    def test_identity_fixed(self):
        m = IntegerMatrix(((1, 0), (0, 1)))
        assert hermite_basis(m).rows == ((1, 0), (0, 1))

    def test_rank_two_reduction(self):
        m = IntegerMatrix(((2, 0), (1, 1), (0, 2)))
        basis = hermite_basis(m)
        assert basis.rows == ((1, 1), (0, 2))
        # both spans agree, certified by exhaustive small-coefficient search
        for row in m.rows:
            assert brute_force_in_span(row, basis.rows)
        for row in basis.rows:
            assert brute_force_in_span(row, m.rows)

    def test_single_scaled_row(self):
        assert hermite_basis(IntegerMatrix(((2, 4),))).rows == ((2, 4),)

    def test_zero_matrix_has_empty_basis(self):
        assert hermite_basis(IntegerMatrix(((0, 0), (0, 0)))).nrows == 0

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError):
            hermite_basis(IntegerMatrix(()))

    def test_idempotent_and_spanning_randomized(self):
        rng = random.Random(1701)
        for _ in range(40):
            width = rng.randint(1, 4)
            rows = tuple(
                tuple(rng.randint(-4, 4) for _ in range(width))
                for _ in range(rng.randint(1, 4))
            )
            m = IntegerMatrix(rows)
            basis = hermite_basis(m)
            assert hermite_basis(basis).rows == basis.rows
            for row in m.rows:
                assert express_in_basis(row, basis) is not None


@st.composite
def integer_matrices(draw):
    """Signed integer rows, often more rows than columns, with zero and repeated rows."""
    ncols = draw(st.integers(1, 5))
    rows = draw(st.lists(st.tuples(*[st.integers(-6, 6)] * ncols), min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        extra = draw(st.sampled_from([(0,) * ncols, *rows]))
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return IntegerMatrix(tuple(rows))


class TestHermiteReference:
    """hermite_basis equals the Euclid-loop reference row for row: the form is unique."""

    @settings(max_examples=400, deadline=None)
    @given(integer_matrices())
    @example(IntegerMatrix(((-4,), (6,), (0,), (6,), (-10,))))
    @example(IntegerMatrix(((0, -3, 5), (0, -3, 5), (0, 0, 0), (0, 2, -7), (0, 4, 1))))
    @example(IntegerMatrix(((-2, -3, 1), (-3, -5, 0), (-5, -8, 4), (0, 0, -3))))
    @example(IntegerMatrix(((0, 0), (0, 0))))
    def test_signed_matrices(self, m):
        assert hermite_basis(m) == euclid_hermite_basis(m)

    def test_families_and_random_corpora(self):
        presentations = FAMILY_MEMBERS + [
            p for seed in SEEDS for p in random_presentations(seed, per_cell=20)
        ]
        for p in presentations:
            m = IntegerMatrix(p.generators)
            assert hermite_basis(m) == euclid_hermite_basis(m), p.name


class TestHermiteWork:
    """Each nonzero entry below a pivot costs one step, and no zero row is scanned."""

    @staticmethod
    def hermite_work(m):
        """The basis, and the work of _clear_column over one hermite_basis call.

        A scan is a row handed to _clear_column for a column.  Every step ends
        in the any() that drops a row once it is zero, the only builtin call
        _clear_column makes, so steps count those calls.
        """
        work = Counter()

        def profile(frame, event, arg):
            if frame.f_code is not exact._clear_column.__code__:
                return
            if event == "call":
                rows, col = frame.f_locals["rows"], frame.f_locals["col"]
                hit = sum(1 for row in rows if row[col])
                work["columns"] += 1
                work["scans"] += len(rows)
                work["zero scans"] += sum(1 for row in rows if not any(row))
                work["entries below a pivot"] += max(hit - 1, 0)
            elif event == "c_call" and arg is any:
                work["steps"] += 1

        sys.setprofile(profile)
        try:
            basis = hermite_basis(m)
        finally:
            sys.setprofile(None)
        return basis, work

    def test_family_generator_matrices(self):
        total = Counter()
        for p in FAMILY_MEMBERS:
            m = IntegerMatrix(p.generators)
            basis, work = self.hermite_work(m)
            assert basis == euclid_hermite_basis(m), p.name
            assert work["columns"] == m.ncols, p.name
            assert work["zero scans"] == 0, p.name
            assert work["steps"] <= work["entries below a pivot"], p.name
            total += work
        # the Euclid loop of the reference scanned 1,912 rows, 302 of them zero
        assert len(FAMILY_MEMBERS) == 18 and total["steps"] > 0
        assert total["scans"] < 1_912

    def test_zero_rows_and_gcd_steps(self):
        # the zero row is dropped before column 0 and the repeated row when it
        # vanishes there; 3 under the pivot 2 takes the unimodular step.  The
        # columns scan 4, 2 and 1 rows.
        m = IntegerMatrix(((2, 1, 0), (2, 1, 0), (0, 0, 0), (3, 5, 1), (4, 0, 2)))
        basis, work = self.hermite_work(m)
        assert basis == euclid_hermite_basis(m) == IntegerMatrix(((1, 0, 5), (0, 1, 8), (0, 0, 18)))
        assert (work["scans"], work["zero scans"]) == (7, 0)
        assert work["steps"] == work["entries below a pivot"] == 4


class TestDeterminant:
    def test_identity(self):
        assert determinant(IntegerMatrix(((1, 0), (0, 1)))) == 1

    def test_diagonal(self):
        assert determinant(IntegerMatrix(((2, 0), (0, 2)))) == 4

    def test_hand_cofactor_case(self):
        # cofactor expansion by hand: 1*4 - 2*3
        assert determinant(IntegerMatrix(((1, 2), (3, 4)))) == -2

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            determinant(IntegerMatrix(((1, 2, 3), (4, 5, 6))))

    def test_matches_cofactor_oracle_randomized(self):
        rng = random.Random(1703)
        for _ in range(30):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            assert determinant(IntegerMatrix(tuple(map(tuple, rows)))) == cofactor_determinant(rows)

    def test_multiplicative_randomized(self):
        rng = random.Random(1704)
        for _ in range(20):
            n = rng.randint(1, 3)
            a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            product = tuple(
                tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                for i in range(n)
            )
            assert determinant(IntegerMatrix(product)) == determinant(
                IntegerMatrix(tuple(map(tuple, a)))
            ) * determinant(IntegerMatrix(tuple(map(tuple, b))))


def minor_rank(rows):
    """Independent oracle: the largest k with a nonzero k x k minor."""
    ncols = len(rows[0]) if rows else 0
    for k in range(min(len(rows), ncols), 0, -1):
        for r in itertools.combinations(range(len(rows)), k):
            for c in itertools.combinations(range(ncols), k):
                if cofactor_determinant([[rows[i][j] for j in c] for i in r]):
                    return k
    return 0


def greedy_independent_rows(rows):
    """Independent oracle: take row i iff it raises the rank of the rows taken so far."""
    chosen = []
    for i, row in enumerate(rows):
        if minor_rank([rows[j] for j in chosen] + [row]) > len(chosen):
            chosen.append(i)
    return chosen


def small_int(rng):
    return rng.choice((0, 0, 0, 1, -1, 2, -2, 3))


def small_fraction(rng):
    return Fraction(small_int(rng), rng.randint(1, 4))


def degenerate_matrix(rng, entry, nrows, ncols):
    """Random rows with, now and then, a zero column, a duplicated row and a
    row that is a combination of two others."""
    rows = [[entry(rng) for _ in range(ncols)] for _ in range(nrows)]
    if rows and ncols and rng.random() < 0.3:
        j = rng.randrange(ncols)
        for row in rows:
            row[j] = 0
    if nrows >= 2 and rng.random() < 0.3:
        rows[rng.randrange(nrows)] = list(rows[rng.randrange(nrows)])
    if nrows >= 3 and rng.random() < 0.3:
        i, j, k = rng.sample(range(nrows), 3)
        c = entry(rng)
        rows[k] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return rows


def independent_rows(rows):
    """The rows independent of those before them: gauss_jordan's pivot columns of the transpose."""
    return gauss_jordan(list(zip(*rows)))[0]


class TestFractionFreeElimination:
    """matrix_rank, determinant and rational_determinant share one forward
    elimination, and the independent rows come from the Gauss-Jordan pass;
    each is compared with an oracle written here."""

    @pytest.mark.parametrize("entry", [small_int, small_fraction])
    def test_matrix_rank_matches_minor_rank(self, entry):
        rng = random.Random(2024)
        for _ in range(150):
            rows = degenerate_matrix(rng, entry, rng.randint(0, 5), rng.randint(1, 5))
            assert matrix_rank(rows) == minor_rank(rows), rows

    def test_matrix_rank_edge_cases(self):
        assert matrix_rank([]) == 0
        assert matrix_rank([(0, 0, 0), (0, 0, 0)]) == 0
        assert matrix_rank([(0, 1), (0, 2), (0, 3)]) == 1
        assert matrix_rank([(Fraction(1, 2), Fraction(1, 3)), (3, 2)]) == 1
        assert matrix_rank([(0, 0, 1), (0, 1, 0), (1, 0, 0)]) == 3

    def test_matrix_rank_clears_only_fraction_rows(self, monkeypatch):
        # one Fraction entry anywhere sends every row through clear_denominators
        assert matrix_rank([(1, 2), (Fraction(1, 2), 1)]) == 1
        assert matrix_rank([(1, 0), (Fraction(1, 3), 1)]) == 2
        assert matrix_rank([(3, 6, 9), (1, 2, 3), (Fraction(2), 4, 6)]) == 1
        assert matrix_rank([(2, 4), (1, Fraction(7, 3))]) == 2

        def refuse(row):
            raise AssertionError(f"integer row {row} was cleared")

        monkeypatch.setattr(exact, "clear_denominators", refuse)
        assert matrix_rank([(2, 4, 6), (1, 2, 3), (0, 1, 1)]) == 2
        assert matrix_rank([(True, 0), (0, 5)]) == 2

    def test_determinant_matches_cofactor_with_swaps(self):
        rng = random.Random(2025)
        for _ in range(150):
            n = rng.randint(1, 5)
            rows = degenerate_matrix(rng, small_int, n, n)
            assert determinant(IntegerMatrix(tuple(map(tuple, rows)))) == cofactor_determinant(rows)
        assert determinant(IntegerMatrix(((0, 1), (1, 0)))) == -1
        assert determinant(IntegerMatrix(((0, 0, 1), (0, 1, 0), (1, 0, 0)))) == -1
        assert determinant(IntegerMatrix(())) == 1

    def test_rational_determinant_matches_cofactor(self):
        rng = random.Random(2026)
        for _ in range(150):
            n = rng.randint(1, 5)
            rows = degenerate_matrix(rng, small_fraction, n, n)
            assert rational_determinant(rows) == cofactor_determinant(rows), rows
        assert rational_determinant([]) == 1
        assert rational_determinant([[Fraction(1, 2), 1], [Fraction(1, 3), 0]]) == Fraction(-1, 3)
        with pytest.raises(ValueError):
            rational_determinant([[1, 2]])

    def test_independent_rows_match_greedy_prefix_rule(self):
        rng = random.Random(2027)
        for _ in range(150):
            rows = degenerate_matrix(rng, small_int, rng.randint(1, 7), rng.randint(1, 4))
            assert independent_rows(rows) == greedy_independent_rows(rows), rows
        assert independent_rows([]) == []
        assert independent_rows([(0, 0), (1, 1), (2, 2), (0, 1), (5, 7)]) == [1, 3]


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


int_matrices = st.integers(1, 5).flatmap(
    lambda ncols: st.lists(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols), max_size=6)
)

square_int_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
)


class TestGaussJordan:
    """The one fraction-free Gauss-Jordan pass: pivots, right block, square case."""

    @given(int_matrices)
    @settings(max_examples=150, deadline=None)
    def test_pivot_columns_are_the_greedy_independent_rows_of_the_transpose(self, rows):
        # the double description reads its start constraints off these pivots
        columns = [list(c) for c in zip(*rows)]
        assert gauss_jordan(rows)[0] == greedy_independent_rows(columns)

    @given(int_matrices)
    @settings(max_examples=150, deadline=None)
    def test_right_block_times_the_pivot_columns_is_d_identity(self, rows):
        pivots, d, right = gauss_jordan(rows)
        k = len(pivots)
        assert d != 0 and len(right) == len(rows)
        assert all(len(row) == len(rows) for row in right)
        chosen = [[row[j] for row in rows] for j in pivots]  # the pivot columns, as rows
        product = matmul(right[:k], list(zip(*chosen)))
        assert product == [[d if i == j else 0 for j in range(k)] for i in range(k)]
        if k:  # d is +- the minor on the pivot columns and the rows that took the pivots
            minor = [[row[j] for j in pivots] for row in rows]
            assert abs(d) in {
                abs(cofactor_determinant([minor[i] for i in r]))
                for r in itertools.combinations(range(len(rows)), k)
            }

    @given(square_int_matrices)
    @settings(max_examples=150, deadline=None)
    def test_square_case_is_scaled_inverse(self, a):
        n = len(a)
        pivots, d, right = gauss_jordan(a)
        det = cofactor_determinant(a)
        assert scaled_inverse(a) == ((d, right) if det else (0, None))
        assert (pivots == list(range(n))) == (det != 0)
        if det:
            assert abs(d) == abs(det)
            scaled_identity = [[d if i == j else 0 for j in range(n)] for i in range(n)]
            assert matmul(right, a) == matmul(a, right) == scaled_identity

    def test_skips_dependent_columns(self):
        # columns 1 and 3 are combinations of the columns before them
        pivots, d, right = gauss_jordan([(1, 2, 0, 1), (1, 2, 1, 2)])
        assert pivots == [0, 2] and d == 1
        assert right == ((1, 0), (-1, 1))
        assert gauss_jordan([]) == ([], 1, ())
        assert gauss_jordan([(0, 0), (0, 0)]) == ([], 1, ((1, 0), (0, 1)))


class TestScaledInverse:
    def test_hand_case(self):
        # (1 2; 3 4) has determinant -2 and inverse (-2 1; 3/2 -1/2)
        d, b = scaled_inverse([(1, 2), (3, 4)])
        assert abs(d) == 2
        assert [[Fraction(x, d) for x in row] for row in b] == [
            [-2, 1],
            [Fraction(3, 2), Fraction(-1, 2)],
        ]

    def test_pivot_swap(self):
        d, b = scaled_inverse([(0, 1), (1, 0)])
        assert abs(d) == 1
        assert matmul(b, [(0, 1), (1, 0)]) == [[d, 0], [0, d]]

    def test_singular_inputs(self):
        assert scaled_inverse([(1, 2), (2, 4)]) == (0, None)
        assert scaled_inverse([(0, 0), (0, 1)]) == (0, None)
        assert scaled_inverse([(1, 2, 3), (4, 5, 6), (5, 7, 9)]) == (0, None)

    def test_empty_and_non_square(self):
        assert scaled_inverse([]) == (1, ())
        with pytest.raises(ValueError):
            scaled_inverse([(1, 2, 3), (4, 5, 6)])

    def test_rejects_non_integer_entries(self):
        with pytest.raises(TypeError):
            scaled_inverse([(Fraction(1, 2), 0), (0, 1)])

    def test_two_sided_inverse_and_determinant_randomized(self):
        rng = random.Random(1709)
        singular = 0
        for _ in range(200):
            n = rng.randint(1, 5)
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            det = determinant(IntegerMatrix(tuple(map(tuple, a))))
            d, b = scaled_inverse(a)
            if det == 0:
                assert (d, b) == (0, None)
                singular += 1
                continue
            assert abs(d) == abs(det)
            scaled_identity = [[d if i == j else 0 for j in range(n)] for i in range(n)]
            assert matmul(b, a) == scaled_identity
            assert matmul(a, b) == scaled_identity
        assert 0 < singular < 200  # both branches were exercised

    def test_matches_solve_linear_system_randomized(self):
        rng = random.Random(1710)
        for _ in range(100):
            n = rng.randint(1, 5)
            a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            rhs = [rng.randint(-5, 5) for _ in range(n)]
            d, b = scaled_inverse(a)
            expected = solve_linear_system(a, rhs)
            if expected is None:
                assert (d, b) == (0, None)
            else:
                assert tuple(Fraction(sum(x * y for x, y in zip(row, rhs)), d) for row in b) == expected


class TestExpressInBasis:
    BASIS = IntegerMatrix(((1, 1), (0, 2)))

    def test_in_lattice(self):
        # 2*(1,1) - 1*(0,2) = (2,0)
        assert express_in_basis((2, 0), self.BASIS) == (2, -1)

    def test_not_in_lattice(self):
        assert express_in_basis((1, 0), self.BASIS) is None

    def test_zero_vector(self):
        assert express_in_basis((0, 0), self.BASIS) == (0, 0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            express_in_basis((1, 0, 0), self.BASIS)

    def test_non_integer_vector_refused(self):
        # int() would read (1.7, 0) as (1, 0), in the lattice of the identity
        identity = IntegerMatrix(((1, 0), (0, 1)))
        with pytest.raises(TypeError):
            lattice_coordinates([(1.7, 0)], identity)
        with pytest.raises(TypeError):
            express_in_basis((2, Fraction(1, 2)), self.BASIS)
        assert lattice_coordinates([(2, 0), (1, 0)], self.BASIS) == [(2, -1), None]

    def test_roundtrip_randomized(self):
        rng = random.Random(1705)
        for _ in range(30):
            rows = tuple(tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(2))
            basis = hermite_basis(IntegerMatrix(rows))
            if basis.nrows == 0:
                continue
            coeffs = [rng.randint(-5, 5) for _ in range(basis.nrows)]
            v = [0, 0, 0]
            for c, row in zip(coeffs, basis.rows):
                v = [a + c * b for a, b in zip(v, row)]
            assert express_in_basis(v, basis) == tuple(coeffs)


class TestSolveIntegerCombination:
    def test_roundtrip_randomized(self):
        rng = random.Random(1706)
        for _ in range(30):
            rows = tuple(
                tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(rng.randint(1, 4))
            )
            m = IntegerMatrix(rows)
            coeffs = [rng.randint(-4, 4) for _ in range(m.nrows)]
            target = [0, 0, 0]
            for c, row in zip(coeffs, m.rows):
                target = [a + c * b for a, b in zip(target, row)]
            sol = solve_integer_combination(m, target)
            assert sol is not None
            recon = [0, 0, 0]
            for c, row in zip(sol, m.rows):
                recon = [a + c * b for a, b in zip(recon, row)]
            assert tuple(recon) == tuple(target)

    def test_unreachable_target(self):
        m = IntegerMatrix(((2, 0), (0, 2)))
        assert solve_integer_combination(m, (1, 1)) is None


@st.composite
def hermite_boxes(draw):
    """A Hermite basis of up to 4 random rows in Z^n, n <= 4, and a box."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=4))
    return hermite_basis(IntegerMatrix(tuple(rows))), draw(st.tuples(*[st.integers(0, 4)] * n))


class TestLatticePointsInBox:
    def test_even_sum_lattice(self):
        basis = IntegerMatrix(((1, 1), (0, 2)))
        got = sorted(lattice_points_in_box(basis, (2, 2)))
        assert got == [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)]

    @settings(max_examples=200, deadline=None, database=None)
    @given(hermite_boxes())
    # rank 2 in Z^4
    @example((IntegerMatrix(((1, 1, 1, 2), (0, 2, -1, 0))), (1, 1, 1, 1)))
    # the last row is 0 in column 2, which the first row moves out of the box
    @example((IntegerMatrix(((1, 0, 1), (0, 1, 0))), (2, 2, 0)))
    # single-point runs: the -3 after the last pivot leaves one c per run
    @example((IntegerMatrix(((1, 0, 1), (0, 1, -3))), (1, 1, 1)))
    def test_matches_membership_oracle_randomized(self, case):
        basis, bounds = case
        assert basis.nrows == 0 or hermite_basis(basis) == basis
        got = list(lattice_points_in_box(basis, bounds))
        expected = [
            v
            for v in itertools.product(*(range(b + 1) for b in bounds))
            if express_in_basis(v, basis) is not None
        ]
        assert got == expected
        assert all(u < v for u, v in zip(got, got[1:]))

    def test_rank_zero_lattice(self):
        basis = hermite_basis(IntegerMatrix(((0, 0),)))
        assert list(lattice_points_in_box(basis, (3, 3))) == [(0, 0)]

    def test_non_integer_bounds_refused(self):
        with pytest.raises(TypeError):
            list(lattice_points_in_box(IntegerMatrix(((1, 0), (0, 1))), (1.5, 2)))


# Hermite bases with negative and zero entries after the last pivot, and with
# columns that only an earlier row reaches.
HAND_MADE_BASES = (
    ((1, 0, 2, 1, 0), (0, 3, -2, 0, 1)),
    ((2, 1, 1, 0, 1), (0, 0, 2, -3, 0)),
    ((1, 0, 0, 1), (0, 1, 0, -1), (0, 0, 1, 0)),
    ((1, 2, 0, 2), (0, 3, 1, -1)),
    ((0, 1, 1, 2), (0, 0, 2, -1)),
    ((1, 0, 3, 3), (0, 1, -1, -2)),
)

# Hermite bases whose early rows leave the open columns at zero or move only
# columns that a later row also moves, so many coefficient prefixes reach the
# same open state and the memo answers most of the walk.
MEMO_BASES = (
    ((1, 0, 0, 0, 1, 0), (0, 1, 0, 0, 1, 1), (0, 0, 1, 0, 0, 1), (0, 0, 0, 1, 1, 1)),
    ((2, 0, 0, 0, 0), (0, 1, 0, 0, 1), (0, 0, 3, 0, 2), (0, 0, 0, 1, -1)),
    ((1, 1, 0, 0, 0), (0, 2, 0, 1, 0), (0, 0, 1, 1, 1), (0, 0, 0, 2, 1)),
)

# Hermite bases whose last row has negative entries after its pivot, in
# columns only the last row makes final, and whose earlier rows move those
# columns by a combination that many coefficient prefixes share: the last
# level's memo answers repeated states.
LAST_LEVEL_BASES = (
    ((1, 1, 0, 0), (0, 0, 1, -1)),
    ((1, 0, 1, 0, 1), (0, 1, 1, 0, 1), (0, 0, 2, 1, -1)),
    ((1, 0, 0, 1, 2, 0), (0, 1, 0, 1, 1, 0), (0, 0, 1, 0, -2, 1)),
)

# Hermite bases for the sweep of the row before the last.  That row makes a
# column final with a negative entry, which an earlier row raises, so avoid
# vectors leave the kept set inside the coefficient's range (first, last);
# or it moves the leaf (the last pivot and the columns the last row makes
# final) by delta = 0 (second), or by a delta whose first nonzero entry is
# negative (third, fourth) or above 1 (fifth).  In the last four the first
# row moves the leaf by -delta or 0, so later prefixes read lines that
# earlier ones began, further down.
SWEEP_BASES = (
    ((1, 0, 2, 0, 0), (0, 1, -1, 0, 1), (0, 0, 0, 1, 1)),
    ((1, 0, 1, 0, 0), (0, 1, -1, 0, 0), (0, 0, 0, 1, 2)),
    ((1, 0, -2), (0, 1, 1)),
    ((1, 0, 0, 1, -2), (0, 1, 0, -1, 2), (0, 0, 1, 1, 1)),
    ((1, 0, 0, -2, 1), (0, 1, 0, 2, -1), (0, 0, 1, 1, 1)),
    ((1, 0, 1, 0, -1, 0), (0, 1, -1, 0, 1, 0), (0, 0, 0, 1, 1, 1)),
)

# Rank-1 bases: the only level is the last; zero columns are never moved.
RANK_ONE_BASES = (((1,),), ((2, 1, 0, 3),), ((0, 2, 0, 1, 3),), ((3, 1, -2),))


def last_level_states(basis, bounds):
    """The coefficient prefixes of the box points, and the open states they
    leave at the last row: the columns that row moves, before it moves them."""
    last = basis.rows[-1]
    opened = [j for j, s in enumerate(last) if s]
    prefixes, states = set(), set()
    for u in lattice_points_in_box(basis, bounds):
        c = express_in_basis(u, basis)
        prefixes.add(c[:-1])
        states.add(tuple(u[j] - c[-1] * last[j] for j in opened))
    return prefixes, states


CORPUS_PRESENTATIONS = (
    segre_generators(2, 2),
    segre_generators(2, 3),
    veronese_generators(3, 2),
    veronese_generators(2, 4),
)


def crowded_avoid(basis, bounds, rng, size):
    """size avoid vectors, grown from four just below box points of the upper
    half.  Each later vector copies an earlier one and either changes columns
    the last row leaves alone, so the two agree on the columns the last row
    moves but may not both be live at the last level, or raises columns the
    last row moves, so it dominates the copy there."""
    points = sorted(lattice_points_in_box(basis, bounds), key=sum)
    points = points[len(points) // 2 :]
    moved = [j for j, s in enumerate(basis.rows[-1]) if s]
    kept = [j for j, s in enumerate(basis.rows[-1]) if not s]
    vectors = [tuple(x - rng.randint(0, 1) for x in rng.choice(points)) for _ in range(4)]
    while len(vectors) < size:
        v = list(rng.choice(vectors))
        if kept and rng.random() < 0.5:
            for j in rng.sample(kept, rng.randint(1, len(kept))):
                v[j] += rng.randint(-1, 2)
        else:
            for j in rng.sample(moved, rng.randint(1, len(moved))):
                v[j] += rng.randint(0, 2)
        vectors.append(tuple(v))
    return vectors


def assert_every_limit_counts(basis, bounds, avoid):
    """The count equals the enumeration, and every limit up to it stops past it."""
    full = counted_by_enumeration(basis, bounds, avoid)
    assert count_lattice_points(basis, bounds, avoid) == full, (bounds, avoid)
    for limit in range(full + 2):
        counted = count_lattice_points(basis, bounds, avoid, limit=limit)
        assert counted > limit if full > limit else counted == full, (bounds, avoid, limit)


def draw_near_avoid(draw, basis, bounds):
    """Up to 6 avoid vectors near the box points: each is a box point moved by
    at most 1 per coordinate, or an earlier vector raised by 0 or 1 per
    coordinate, so duplicates and dominating vectors occur."""
    points = list(lattice_points_in_box(basis, bounds))
    avoid = []
    for _ in range(draw(st.integers(0, 6))):
        if avoid and draw(st.booleans()):
            v = draw(st.sampled_from(avoid))
            avoid.append(tuple(x + draw(st.integers(0, 1)) for x in v))
        else:
            u = draw(st.sampled_from(points))
            avoid.append(tuple(x + draw(st.integers(-1, 1)) for x in u))
    return avoid


@st.composite
def hermite_boxes_with_avoid(draw):
    """A Hermite box of rank 1-4 and avoid vectors near its points."""
    basis, bounds = draw(hermite_boxes().filter(lambda case: case[0].nrows))
    return basis, bounds, draw_near_avoid(draw, basis, bounds)


class TestCountLatticePoints:
    @pytest.mark.parametrize("rows", HAND_MADE_BASES)
    def test_hand_made_bases_match_enumeration(self, rows):
        basis = IntegerMatrix(rows)
        assert hermite_basis(basis) == basis
        rng = random.Random(2718)
        n = basis.ncols
        for _ in range(40):
            bounds = tuple(rng.randint(0, 9) for _ in range(n))
            avoid = [tuple(rng.randint(-1, 5) for _ in range(n)) for _ in range(rng.randint(0, 4))]
            enumerated = len(list(lattice_points_in_box(basis, bounds)))
            assert count_lattice_points(basis, bounds) == enumerated
            expected = counted_by_enumeration(basis, bounds, avoid)
            assert count_lattice_points(basis, bounds, avoid) == expected

    def test_random_bases_match_enumeration(self):
        rng = random.Random(1707)
        for _ in range(150):
            n = rng.randint(1, 4)
            nrows = rng.randint(1, 4)
            rows = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(nrows))
            basis = hermite_basis(IntegerMatrix(rows))
            bounds = tuple(rng.randint(0, 5) for _ in range(n))
            avoid = [tuple(rng.randint(-1, 5) for _ in range(n)) for _ in range(rng.randint(0, 3))]
            expected = counted_by_enumeration(basis, bounds, avoid)
            assert count_lattice_points(basis, bounds, avoid) == expected

    def test_rank_zero_lattice(self):
        basis = hermite_basis(IntegerMatrix(((0, 0),)))
        assert count_lattice_points(basis, (3, 3)) == 1
        assert count_lattice_points(basis, (3, 3), [(1, 0)]) == 1
        assert count_lattice_points(basis, (3, 3), [(0, 0)]) == 0
        assert count_lattice_points(basis, (3, 3), [(-1, 0)]) == 0

    def test_negative_bound_is_empty(self):
        basis = IntegerMatrix(HAND_MADE_BASES[0])
        for bounds in ((-1, 4, 4, 4, 4), (4, 4, 4, 4, -2)):
            assert count_lattice_points(basis, bounds) == 0
            assert counted_by_enumeration(basis, bounds) == 0
        assert count_lattice_points(hermite_basis(IntegerMatrix(((0, 0),))), (0, -1)) == 0

    @pytest.mark.parametrize("presentation", CORPUS_PRESENTATIONS, ids=lambda p: p.name)
    def test_corpus_embeddings_match_enumeration(self, presentation):
        emb = full_embedding(build_context(presentation))
        basis, n = emb.image_lattice, emb.num_coordinates
        for q in (1, 2, 5):
            bounds = (q - 1,) * n
            enumerated = len(list(lattice_points_in_box(basis, bounds)))
            assert count_lattice_points(basis, bounds) == enumerated
            avoid = [tuple(q * x for x in g) for g in emb.image_generators[:3]]
            expected = counted_by_enumeration(basis, bounds, avoid)
            assert count_lattice_points(basis, bounds, avoid) == expected

    def test_limit_stops_the_count_past_it(self):
        basis = IntegerMatrix(HAND_MADE_BASES[2])
        full = count_lattice_points(basis, (5, 5, 5, 5))
        assert count_lattice_points(basis, (5, 5, 5, 5), limit=full) == full
        for limit in (0, 1, full // 2, full - 1):
            assert count_lattice_points(basis, (5, 5, 5, 5), limit=limit) > limit

    def test_limit_under_the_memo(self):
        # segre(2,3)'s Hermite basis reaches the last column from every row,
        # so coefficient prefixes share open states and memoized counts
        emb = full_embedding(build_context(segre_generators(2, 3)))
        basis, bounds = emb.image_lattice, (5,) * emb.num_coordinates
        for avoid in ([], [(2, 1, 3, 0, 4), (1, 4, 0, 2, 2), (3, 3, 3, 3, 3)]):
            full = count_lattice_points(basis, bounds, avoid)
            assert full == counted_by_enumeration(basis, bounds, avoid)
            for limit in range(full + 2):
                counted = count_lattice_points(basis, bounds, avoid, limit=limit)
                if full > limit:
                    assert counted > limit, (avoid, limit)
                else:
                    assert counted == full, (avoid, limit)

    @pytest.mark.parametrize("rows", MEMO_BASES + LAST_LEVEL_BASES)
    def test_shared_open_states_match_enumeration(self, rows):
        basis = IntegerMatrix(rows)
        assert hermite_basis(basis) == basis
        rng = random.Random(3141)
        n = basis.ncols
        for _ in range(30):
            bounds = tuple(rng.randint(2, 7) for _ in range(n))
            avoid = [tuple(rng.randint(-1, 5) for _ in range(n)) for _ in range(rng.randint(0, 5))]
            assert count_lattice_points(basis, bounds) == counted_by_enumeration(basis, bounds)
            expected = counted_by_enumeration(basis, bounds, avoid)
            assert count_lattice_points(basis, bounds, avoid) == expected
            limit = rng.randint(0, expected)
            counted = count_lattice_points(basis, bounds, avoid, limit=limit)
            assert counted > limit if expected > limit else counted == expected

    @pytest.mark.parametrize("rows", LAST_LEVEL_BASES)
    def test_last_level_bases_share_states_with_falling_columns(self, rows):
        basis = IntegerMatrix(rows)
        assert hermite_basis(basis) == basis
        assert min(rows[-1]) < 0  # after the pivot, which is positive
        prefixes, states = last_level_states(basis, (6,) * basis.ncols)
        assert len(prefixes) > len(states)

    @pytest.mark.parametrize("rows", RANK_ONE_BASES)
    def test_rank_one_bases_with_avoid_and_limit(self, rows):
        basis = IntegerMatrix(rows)
        assert hermite_basis(basis) == basis
        rng = random.Random(1414)
        n = basis.ncols
        for _ in range(40):
            bounds = tuple(rng.randint(0, 9) for _ in range(n))
            avoid = [tuple(rng.randint(-1, 6) for _ in range(n)) for _ in range(rng.randint(0, 3))]
            full = counted_by_enumeration(basis, bounds, avoid)
            assert count_lattice_points(basis, bounds, avoid) == full
            for limit in range(full + 2):
                counted = count_lattice_points(basis, bounds, avoid, limit=limit)
                assert counted > limit if full > limit else counted == full

    def test_limit_sweep_on_the_last_level(self):
        basis = IntegerMatrix(LAST_LEVEL_BASES[2])
        bounds = (4, 5, 4, 6, 7, 3)
        for avoid in ([], [(1, 2, 0, 3, 2, 1), (2, 0, 1, 2, 4, 0), (0, 1, 2, 2, 1, 2)]):
            full = count_lattice_points(basis, bounds, avoid)
            assert full == counted_by_enumeration(basis, bounds, avoid)
            for limit in range(full + 2):
                counted = count_lattice_points(basis, bounds, avoid, limit=limit)
                assert counted > limit if full > limit else counted == full, (avoid, limit)

    @pytest.mark.parametrize(
        "rows", [((1, 0, 1), (0, 1, 0)), ((1, 0, 2, 0), (0, 1, 1, 0), (0, 0, 0, 1))]
    )
    def test_vectors_dropped_on_a_final_coordinate_leave_the_key(self, rows):
        # Every prefix reaches the last row in the same open state.  Prefixes
        # that pass the same avoid vectors at the pivot can still drop
        # different ones on the coordinate the row makes final, and the memo
        # key must tell their live sets apart: on the first basis with avoid
        # (0, 1, 2), c_0 = 0 and 1 drop the vector that c_0 = 2 keeps.
        basis = IntegerMatrix(rows)
        assert hermite_basis(basis) == basis
        n = basis.ncols
        avoid = [(0, 1, 2) + (0,) * (n - 3)]
        assert count_lattice_points(basis, (3,) * n, avoid) == counted_by_enumeration(
            basis, (3,) * n, avoid
        )
        rng = random.Random(577)
        for _ in range(40):
            bounds = tuple(rng.randint(1, 6) for _ in range(n))
            avoid = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 3))]
            expected = counted_by_enumeration(basis, bounds, avoid)
            assert count_lattice_points(basis, bounds, avoid) == expected

    @pytest.mark.parametrize(
        "rows", [rows for rows in HAND_MADE_BASES if len(rows) == 2] + [LAST_LEVEL_BASES[0]]
    )
    def test_limit_stops_within_one_run_of_it(self, rows):
        # On a rank-2 basis the loop over the first coefficient is the top
        # call, and each count it adds is one prefix's run of the last
        # coefficient, at most bounds[last] // step + 1 points: a limited
        # count stops in the first run that carries it past the limit.
        basis = IntegerMatrix(rows)
        assert hermite_basis(basis) == basis
        last = next(j for j, x in enumerate(rows[-1]) if x)
        step = rows[-1][last]
        rng = random.Random(4669)
        for _ in range(6):
            bounds = tuple(rng.randint(5, 12) for _ in range(basis.ncols))
            run = bounds[last] // step + 1
            for avoid in ([], crowded_avoid(basis, bounds, rng, rng.randint(10, 40))):
                full = counted_by_enumeration(basis, bounds, avoid)
                assert count_lattice_points(basis, bounds, avoid) == full
                for limit in range(full):
                    counted = count_lattice_points(basis, bounds, avoid, limit=limit)
                    assert limit < counted <= limit + run, (bounds, avoid, limit)

    @settings(max_examples=200, deadline=None, database=None)
    @given(hermite_boxes_with_avoid())
    # rank 1: no loop above the last level
    @example((IntegerMatrix(((2, 1, -1),)), (4, 3, 2), [(2, 1, 0), (2, 1, 0), (3, 1, 0)]))
    # rank 2: the top call is the loop over the row before the last
    @example((IntegerMatrix(((1, 0, 2), (0, 2, -1))), (3, 4, 4), [(1, 2, 1), (1, 3, 1), (0, 0, 3)]))
    # the sweep bases: vectors leaving the kept set inside the range, delta 0,
    # a negative lead, lines revisited further down, a lead above 1, and all at once
    @example(
        (
            IntegerMatrix(SWEEP_BASES[0]),
            (3, 4, 3, 1, 1),
            [(0, 0, 2, 1, 0), (1, 1, 3, 2, 0), (2, 2, 4, 2, 0), (1, 0, 2, 0, 2), (2, 1, 2, 1, 0)],
        )
    )
    @example((IntegerMatrix(SWEEP_BASES[1]), (2, 3, 3, 3, 2), [(1, 1, 1, 0, 1)]))
    @example((IntegerMatrix(SWEEP_BASES[2]), (1, 3, 3), [(-1, 2, 4), (1, 3, 0)]))
    @example(
        (
            IntegerMatrix(SWEEP_BASES[3]),
            (2, 3, 2, 3, 4),
            [(1, 2, 1, 2, 2), (2, 2, 2, 3, 3), (-1, 1, 2, 1, 0)],
        )
    )
    @example((IntegerMatrix(SWEEP_BASES[4]), (4, 1, 3, 4, 3), [(0, 1, 1, 1, 2), (0, 1, 2, 3, 0)]))
    @example(
        (
            IntegerMatrix(SWEEP_BASES[5]),
            (3, 2, 4, 2, 1, 4),
            [
                (2, 0, 2, 1, -1, 1),
                (2, 1, 1, 0, 0, 1),
                (0, 0, 2, 1, 1, 1),
                (-1, 1, 1, -1, 1, -1),
                (1, 0, 3, 1, 1, 2),
            ],
        )
    )
    def test_random_boxes_with_near_avoid_vectors(self, case):
        basis, bounds, avoid = case
        assert hermite_basis(basis) == basis
        assert_every_limit_counts(basis, bounds, avoid)

    @pytest.mark.parametrize("rows", SWEEP_BASES)
    def test_sweep_bases_at_every_limit(self, rows):
        basis = IntegerMatrix(rows)
        assert hermite_basis(basis) == basis
        rng = random.Random(2236)
        for _ in range(6):
            bounds = tuple(rng.randint(3, 7) for _ in range(basis.ncols))
            avoid = crowded_avoid(basis, bounds, rng, rng.randint(10, 40))
            assert_every_limit_counts(basis, bounds, avoid)

    @pytest.mark.parametrize(
        "rows",
        [rows for rows in HAND_MADE_BASES + LAST_LEVEL_BASES + SWEEP_BASES if len(rows) == 2],
    )
    def test_limited_count_on_rank_two_is_the_first_run_total_past_the_limit(self, rows):
        # The top call sweeps the first coefficient c, and a limited count
        # stops at the first c whose run of points takes it past the limit.
        basis = IntegerMatrix(rows)
        rng = random.Random(1732)
        for _ in range(6):
            bounds = tuple(rng.randint(3, 9) for _ in range(basis.ncols))
            for avoid in ([], crowded_avoid(basis, bounds, rng, rng.randint(3, 20))):
                runs = Counter(
                    express_in_basis(u, basis)[0]
                    for u in lattice_points_in_box(basis, bounds)
                    if not any(all(map(operator.ge, u, v)) for v in avoid)
                )
                totals = list(itertools.accumulate(runs[c] for c in sorted(runs)))
                for limit in range(totals[-1] if totals else 0):
                    counted = count_lattice_points(basis, bounds, avoid, limit=limit)
                    assert counted == min(t for t in totals if t > limit), (bounds, avoid, limit)

    @pytest.mark.parametrize("rows", HAND_MADE_BASES + LAST_LEVEL_BASES)
    def test_many_avoid_vectors_match_enumeration(self, rows):
        # 10-40 vectors per box, many live at the last level at once: the
        # front kept per live set must drop only vectors that change no count
        basis = IntegerMatrix(rows)
        rng = random.Random(1618)
        for _ in range(6):
            bounds = tuple(rng.randint(3, 7) for _ in range(basis.ncols))
            avoid = crowded_avoid(basis, bounds, rng, rng.randint(10, 40))
            assert_every_limit_counts(basis, bounds, avoid)

    @pytest.mark.parametrize("presentation", CORPUS_PRESENTATIONS, ids=lambda p: p.name)
    def test_many_avoid_vectors_on_corpus_embeddings(self, presentation):
        emb = full_embedding(build_context(presentation))
        rng = random.Random(1618)
        for q in (3, 5, 7):
            bounds = (q - 1,) * emb.num_coordinates
            avoid = crowded_avoid(emb.image_lattice, bounds, rng, rng.randint(10, 40))
            assert_every_limit_counts(emb.image_lattice, bounds, avoid)

    def test_memo_freed_when_the_count_returns(self):
        # rec refers to itself through its closure; if the memo or the fronts
        # waited for the cycle collector, repeated counts would hold several at once
        emb = full_embedding(build_context(segre_generators(2, 3)))
        scaled = [tuple(12 * x for x in g) for g in emb.image_generators]
        # 110 generators, many of them live at the last level together
        ideal = MonomialIdeal.not_dividing(socle_witness(emb), 1).minimal_generators(emb)
        for bounds, avoid in (
            ((23,) * emb.num_coordinates, scaled),
            ([max(column) for column in zip(*ideal)], ideal),
        ):
            gc.collect()
            gc.disable()
            try:
                count_lattice_points(emb.image_lattice, bounds, avoid)
                left = gc.collect()
            finally:
                gc.enable()
            # the closures and their cells; the memo held over 500 objects, the
            # fronts of the second box over 800
            assert left < 100

    def test_threads_count_what_a_serial_run_counts(self):
        emb = full_embedding(build_context(segre_generators(3, 3)))
        basis, n = emb.image_lattice, emb.num_coordinates
        avoid = [tuple(3 * x for x in g) for g in emb.image_generators[:4]]
        boxes = [((q - 1,) * n, avoid[: q % 3]) for q in (7, 9, 11, 12)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda box: count_lattice_points(basis, *box), boxes))
        serial = [count_lattice_points(basis, bounds, vs) for bounds, vs in boxes]
        assert threaded == serial
        # the two boxes without avoid vectors are a_q
        assert [threaded[1], threaded[3]] == [segre_aq_closed_form(3, 3, q) for q in (9, 12)]

    def test_avoid_length_checked(self):
        with pytest.raises(ValueError):
            count_lattice_points(IntegerMatrix(((1, 1),)), (2, 2), [(1,)])

    @pytest.mark.parametrize("bounds", [(-1, 2, 3), (2, 3, -1), (-1,)])
    def test_box_length_checked_before_a_negative_bound(self, bounds):
        # an empty box of the wrong length is still the wrong length
        basis = IntegerMatrix(((1, 0), (0, 1)))
        with pytest.raises(ValueError, match="bounds length"):
            count_lattice_points(basis, bounds)
        with pytest.raises(ValueError, match="bounds length"):
            list(lattice_points_in_box(basis, bounds))

    @staticmethod
    def calls_in_frobenius(basis, bounds, avoid):
        """The count, and the Python calls it makes in fsig.frobenius."""
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_globals.get("__name__") == "fsig.frobenius":
                calls += 1

        sys.setprofile(profile)
        try:
            count = count_lattice_points(basis, bounds, avoid)
        finally:
            sys.setprofile(None)
        return count, calls

    def test_a_range_the_final_columns_exclude_costs_no_walk(self):
        # Row 1 makes column 2 final with entry -1, so its coefficient c_1 has
        # 10**5 + 1 pivot values, of which only c_1 <= c_0 keep column 2 in the
        # box.  The kept points are the 21 pairs c_1 <= c_0 <= 5 less the 10
        # with 1 <= c_1 < c_0, which dominate the avoid vector, each with 4 x 4
        # free last coordinates.
        basis = IntegerMatrix(((1, 0, 1, 0, 0), (0, 1, -1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)))
        avoid = [(0, 1, 1, 0, 0)]
        count, calls = self.calls_in_frobenius(basis, (5, 10**5, 10**5, 3, 3), avoid)
        assert count == 11 * 16
        assert calls < 1000
        for bounds in ((3, 4, 2, 1, 1), (5, 2, 5, 2, 0), (4, 6, 6, 1, 2)):
            expected = counted_by_enumeration(basis, bounds, avoid)
            assert count_lattice_points(basis, bounds, avoid) == expected

    def test_a_blocked_run_above_the_row_before_the_last_is_skipped(self):
        # Every c_0 >= 1 dominates (1, 0, 0): one coefficient of 10**6 + 1 is counted
        basis = IntegerMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        count, calls = self.calls_in_frobenius(basis, (10**6, 5, 5), [(1, 0, 0)])
        assert count == 36
        assert calls < 1000

    def test_non_integer_avoid_and_bounds_refused(self):
        # int() would read (1.5, 0) as (1, 0) and count 3 points, not the 6
        # of the box that do not dominate (1.5, 0)
        identity = IntegerMatrix(((1, 0), (0, 1)))
        with pytest.raises(TypeError):
            count_lattice_points(identity, (2, 2), [(1.5, 0)])
        with pytest.raises(TypeError):
            count_lattice_points(identity, (2.5, 2))
        assert count_lattice_points(identity, (True, 2), [(1, 0)]) == 3


@st.composite
def leaf_live_sets(draw):
    """Live items (v, end, bit) over n <= 4 columns, the leaf columns in any
    order, and a kept bitmask.  Entries are small, so equal and comparable
    projections are common, and a vector may copy an earlier one, exactly or
    off the leaf only: equal projections of distinct items."""
    n = draw(st.integers(1, 4))
    leaf = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    vectors: list[tuple] = []
    for _ in range(draw(st.integers(0, 12))):
        if vectors and draw(st.booleans()):
            v = list(draw(st.sampled_from(vectors)))
            for j in range(n):
                if j not in leaf:
                    v[j] = draw(st.integers(-1, 3))
        else:
            v = [draw(st.integers(-1, 3)) for _ in range(n)]
        vectors.append(tuple(v))
    live = [(v, draw(st.integers(-1, 2)), 1 << i) for i, v in enumerate(vectors)]
    return live, leaf, draw(st.integers(0, (1 << len(live)) - 1))


class TestLeafFront:
    """A kept set's last-level front read off the dominance masks is the
    sorted dominance scan of oracles.leaf_front, one vector per value."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(leaf_live_sets())
    # three items equal on the leaf, a fourth below them: only it is kept
    @example(([((1, 2), 0, 1), ((1, 0), 0, 2), ((1, 1), 0, 4), ((0, 3), 0, 8)], [0], 15))
    # equal on the leaf, the lower bit not kept: the next one stands for them
    @example(([((2, 1), 0, 1), ((2, 0), 0, 2), ((2, 5), 0, 4)], [0], 6))
    # equal vectors, one below another on every leaf column
    @example(([((1, 1, 0), 1, 1), ((1, 1, 0), 1, 2), ((0, 1, 0), 1, 4)], [1, 0], 3))
    def test_masks_give_the_sorted_front(self, case):
        live, leaf, kept = case
        table = _dominance(live, leaf)
        assert sorted(table) == [bit for _, _, bit in live]
        items = [item for item in live if item[2] & kept]
        # the rule of the counter's run: the kept vectors whose mask misses the kept bits
        chosen = [b for _, _, b in items if not table[b][1] & kept]
        assert sorted(table[b][0] for b in chosen) == leaf_front(items, leaf)
        for b in chosen:  # of the kept items equal on the leaf, the lowest bit
            equal = [bit for _, _, bit in items if table[bit][0] == table[b][0]]
            assert b == min(equal)


@st.composite
def last_row_boxes(draw, kind):
    """A Hermite box of rank 1-3 whose last row makes its extra columns final
    with positive entries only ("rising"), with a negative one ("falling"), or
    makes none final ("none": the last row is its pivot alone), and avoid
    vectors near the box points.  A falling column starts the last level
    where the rows above left it, so an earlier row raises it: at 0 the box
    would keep one coefficient there."""
    d = draw(st.integers(2 if kind == "falling" else 1, 3))
    extra = draw(st.integers(1, 2))
    n = d + extra
    steps = [draw(st.integers(1, 3)) for _ in range(d)]
    rows = []
    for i in range(d):
        row = [0] * i + [steps[i]] + [draw(st.integers(0, s - 1)) for s in steps[i + 1 :]]
        rows.append(row + [draw(st.integers(-2, 2)) for _ in range(extra)])
    last = rows[-1]
    if kind == "none":
        last[d:] = [0] * extra
    else:
        last[d:] = [draw(st.integers(0, 2)) for _ in range(extra)]
        j = draw(st.integers(d, n - 1))
        last[j] = draw(st.integers(1, 2)) * (1 if kind == "rising" else -1)
        if kind == "falling":
            rows[draw(st.integers(0, d - 2))][j] = draw(st.integers(1, 2))
    basis = IntegerMatrix(tuple(map(tuple, rows)))
    bounds = draw(st.tuples(*[st.integers(0, 4)] * n))
    return basis, bounds, draw_near_avoid(draw, basis, bounds)


class TestLastLevelCut:
    """The last row counts the c that no front vector's interval holds: an
    interval reaching the top of the box lowers the end, a shorter one (a
    falling column ends it there) is sorted and swept."""

    @pytest.mark.parametrize("kind", ["rising", "falling", "none"])
    @settings(max_examples=150, deadline=None, database=None)
    @given(data=st.data())
    def test_counts_match_enumeration(self, kind, data):
        basis, bounds, avoid = data.draw(last_row_boxes(kind))
        assert hermite_basis(basis) == basis
        final = [s for s in basis.rows[-1][basis.nrows :] if s]
        assert bool(final) == (kind != "none")
        assert any(s < 0 for s in final) == (kind == "falling")
        assert_every_limit_counts(basis, bounds, avoid)

    def test_the_identity_sorts_nothing_at_the_last_level(self):
        # The last row of segre(2,2)'s image lattice, (0, 0, 1, 1), has no
        # falling column, so no front vector's interval ends before the top
        # of the box: nothing under run, where the last level is read, sorts.
        emb = full_embedding(build_context(segre_generators(2, 2)))
        work, frobenius = Counter(), "fsig.frobenius"

        def under_run(frame):
            while frame is not None:
                if frame.f_code.co_name == "run" and frame.f_globals["__name__"] == frobenius:
                    return True
                frame = frame.f_back
            return False

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_name != "run" and under_run(frame):
                work["calls"] += 1
            elif event == "c_call" and getattr(arg, "__name__", "") in ("sort", "sorted"):
                work["sorts" if under_run(frame) else "sorts above"] += 1

        sys.setprofile(profile)
        try:
            result = hk_difference_identity(emb, 2, 4)
        finally:
            sys.setprofile(None)
        assert (result.not_dividing, result.with_witness) == (41_844, 41_800)
        assert result.lhs == result.rhs == segre_aq_closed_form(2, 2, 4)
        assert work["calls"] > 1000 and work["sorts above"] > 0
        assert work["sorts"] == 0


class TestSmallHelpers:
    def test_primitive_vector(self):
        assert primitive_vector((Fraction(1, 2), Fraction(0))) == (1, 0)
        assert primitive_vector((4, -6)) == (2, -3)
        with pytest.raises(ValueError):
            primitive_vector((0, 0))

    @pytest.mark.parametrize(
        "row, expected",
        [
            ((4, -6, 0, 10), (2, -3, 0, 5)),
            ((-3, -9), (-1, -3)),
            ((0, -7, 0), (0, -1, 0)),
            ((1, Fraction(1, 2), -2), (2, 1, -4)),
            ((Fraction(2), 4, 0), (1, 2, 0)),
            ((Fraction(-2, 3), 0, 4), (-1, 0, 6)),
        ],
        ids=["integer", "negative", "single", "mixed", "fraction-one", "mixed-negative"],
    )
    def test_primitive_vector_integer_and_mixed_rows(self, row, expected):
        result = primitive_vector(row)
        assert result == expected
        assert all(type(x) is int for x in result)

    @pytest.mark.parametrize("row", [(0, 0, 0), (0,), (), (Fraction(0), 0)], ids=str)
    def test_primitive_vector_of_zero_raises(self, row):
        with pytest.raises(ValueError):
            primitive_vector(row)

    def test_extended_gcd_vector_randomized(self):
        rng = random.Random(1708)
        for _ in range(50):
            values = [rng.randint(-20, 20) for _ in range(rng.randint(1, 5))]
            if all(v == 0 for v in values):
                values[0] = 7
            g, coeffs = extended_gcd_vector(values)
            assert g > 0
            assert sum(c * v for c, v in zip(coeffs, values)) == g
            assert all(v % g == 0 for v in values)

    def test_matrix_rank(self):
        assert matrix_rank([(1, 0), (0, 1)]) == 2
        assert matrix_rank([(1, 1), (2, 2)]) == 1
        assert matrix_rank([]) == 0
