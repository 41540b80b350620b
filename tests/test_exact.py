"""Exact kernel: Hermite form, determinants, lattice membership, enumeration."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsig.cone import full_embedding
from fsig.exact import (
    IntegerMatrix,
    count_lattice_points,
    determinant,
    express_in_basis,
    extended_gcd_vector,
    hermite_basis,
    independent_rows,
    lattice_points_in_box,
    matrix_rank,
    primitive_vector,
    rational_determinant,
    scaled_inverse,
    solve_integer_combination,
    solve_linear_system,
)
from fsig.families import segre_generators, veronese_generators
from fsig.semigroup import build_context


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


class TestFractionFreeElimination:
    """matrix_rank, determinant, rational_determinant and independent_rows
    share one elimination; each is compared with an oracle written here."""

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


def counted_by_enumeration(basis, bounds, avoid=()):
    """Oracle for count_lattice_points: enumerate the box, drop dominating points."""
    return sum(
        1
        for u in lattice_points_in_box(basis, bounds)
        if not any(all(a >= b for a, b in zip(u, v)) for v in avoid)
    )


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

    @pytest.mark.parametrize(
        "presentation",
        [
            segre_generators(2, 2),
            segre_generators(2, 3),
            veronese_generators(3, 2),
            veronese_generators(2, 4),
        ],
        ids=lambda p: p.name,
    )
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

    def test_avoid_length_checked(self):
        with pytest.raises(ValueError):
            count_lattice_points(IntegerMatrix(((1, 1),)), (2, 2), [(1,)])


class TestSmallHelpers:
    def test_primitive_vector(self):
        assert primitive_vector((Fraction(1, 2), Fraction(0))) == (1, 0)
        assert primitive_vector((4, -6)) == (2, -3)
        with pytest.raises(ValueError):
            primitive_vector((0, 0))

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
