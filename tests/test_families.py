"""Built-in families, Eulerian numbers, and their closed-form signatures."""

from fractions import Fraction
from math import comb, factorial

import pytest

from fsig.cone import full_embedding
from fsig.errors import InvalidParams
from fsig.families import (
    binomial,
    eulerian,
    eulerian_alternating_sum,
    segre_aq_closed_form,
    segre_generators,
    segre_signature,
    veronese_generators,
    veronese_signature,
)
from fsig.frobenius import count_aq
from fsig.semigroup import build_context
from fsig.signature import f_signature


class TestEulerian:
    def test_base_and_small_values(self):
        assert eulerian(1, 1) == 1
        assert eulerian(3, 2) == 4
        assert eulerian(4, 3) == 11

    def test_zero_outside_range(self):
        assert eulerian(3, 0) == 0
        assert eulerian(3, 4) == 0

    def test_rows_sum_to_factorial(self):
        for d in range(1, 9):
            assert sum(eulerian(d, s) for s in range(1, d + 1)) == factorial(d)

    def test_boundary_values_are_one(self):
        for d in range(1, 9):
            assert eulerian(d, 1) == 1 and eulerian(d, d) == 1

    def test_complement_symmetry(self):
        for d in range(1, 9):
            for s in range(1, d + 1):
                assert eulerian(d, s) == eulerian(d, d + 1 - s)

    def test_recursion_matches_alternating_sum(self):
        for d in range(1, 9):
            for s in range(0, d + 2):
                assert eulerian(d, s) == eulerian_alternating_sum(d, s)

    def test_deep_row_needs_no_recursion(self):
        # d = 1101 is past the default recursion limit
        expected = Fraction(eulerian_alternating_sum(1101, 2), factorial(1101))
        assert segre_signature(1100, 2) == expected


class TestBinomial:
    def test_vanishing_convention(self):
        assert binomial(3, -1) == 0
        assert binomial(3, 4) == 0
        assert binomial(-2, 0) == 0
        assert binomial(5, 2) == comb(5, 2)


class TestGenerators:
    def test_segre_22(self):
        p = segre_generators(2, 2)
        assert p.generators == ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1))

    def test_segre_sizes(self):
        assert len(segre_generators(2, 3).generators) == 6
        assert segre_generators(2, 3).ambient_rank == 5
        assert len(segre_generators(3, 3).generators) == 9

    def test_segre_invalid(self):
        with pytest.raises(InvalidParams):
            segre_generators(1, 2)

    def test_veronese_22(self):
        assert set(veronese_generators(2, 2).generators) == {(2, 0), (1, 1), (0, 2)}

    def test_veronese_single_variable(self):
        assert veronese_generators(1, 5).generators == ((5,),)

    def test_veronese_count(self):
        # degree-2 monomials in 3 variables: C(4, 2) of them
        assert len(veronese_generators(3, 2).generators) == 6

    def test_veronese_invalid(self):
        with pytest.raises(InvalidParams):
            veronese_generators(0, 1)


class TestClosedForms:
    def test_segre_aq_small(self):
        assert segre_aq_closed_form(2, 2, 1) == 1
        assert segre_aq_closed_form(2, 2, 2) == 6  # 10 - 4 + 0
        assert segre_aq_closed_form(2, 2, 3) == 19  # 35 - 16 + 0

    def test_segre_aq_matches_count(self):
        emb = full_embedding(build_context(segre_generators(2, 2)))
        for q in range(1, 6):
            assert segre_aq_closed_form(2, 2, q) == count_aq(emb, q).a_q

    def test_segre_signature_values(self):
        assert segre_signature(2, 2) == Fraction(2, 3)
        assert segre_signature(2, 3) == Fraction(11, 24)
        assert segre_signature(3, 3) == Fraction(11, 20)

    def test_veronese_signature_values(self):
        assert veronese_signature(2, 3) == Fraction(1, 3)
        assert veronese_signature(4, 1) == 1
        assert veronese_signature(3, 2) == Fraction(1, 2)
        # one variable: the subring is polynomial no matter the degree
        assert veronese_signature(1, 4) == 1


class TestFamilySignaturesAgree:
    def test_segre_closed_form_matches_pipeline(self):
        for r, s in ((2, 2), (2, 3), (3, 2)):
            assert f_signature(segre_generators(r, s)).value == segre_signature(r, s)

    def test_veronese_closed_form_matches_pipeline(self):
        for d in (1, 2, 3):
            for n in (1, 2, 3):
                assert f_signature(veronese_generators(d, n)).value == veronese_signature(d, n)
