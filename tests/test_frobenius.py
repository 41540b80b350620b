"""Free-rank counts, socle witnesses, colengths, and the difference identity."""

from fractions import Fraction
from functools import cache
from operator import le

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fsig import exact, frobenius
from fsig.cone import fraction_field_witness, full_embedding
from fsig.errors import BudgetExceeded, NotPrimary
from fsig.exact import (
    express_in_basis,
    lattice_points_in_box,
    vadd,
    vscale,
)
from fsig.families import segre_aq_closed_form, segre_generators, veronese_generators
from fsig.frobenius import (
    MonomialIdeal,
    brute_force_aq,
    count_aq,
    count_lattice_points,
    hk_colength,
    hk_difference_identity,
    socle_witness,
)
from fsig.semigroup import SemigroupPresentation, build_context
from oracles import closure_aq, counted_by_enumeration, minimal_elements, vsub

FREE1 = SemigroupPresentation(1, ((1,),), name="free(1)")
FREE2 = SemigroupPresentation(2, ((1, 0), (0, 1)), name="free(2)")
FREE3 = SemigroupPresentation(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), name="free(3)")
NON_NORMAL = SemigroupPresentation(2, ((2, 0), (0, 1), (1, 1)), name="non-normal")
# rank 3 with five facets: the last Hermite row of the image lattice is (0, 0, 1, -5, -4),
# and at t = 1 the largest box bound is 32
NEGATIVE_LAST_ROW = SemigroupPresentation(
    3, ((0, 1, 2), (0, 3, 2), (1, 0, 3), (3, 1, 3), (3, 3, 3)), name="negative last row"
)
SMALL_NORMAL = (
    FREE1,
    FREE2,
    FREE3,
    segre_generators(2, 2),
    veronese_generators(2, 2),
    veronese_generators(2, 3),
    veronese_generators(3, 2),
)


@cache
def emb_of(p):
    return full_embedding(build_context(p))


def closure_colength(emb, generators, q, budget=200_000):
    """Reference colength of the ideal the generators generate: closure
    search from 0 over the generator images.

    The ideal is an up-set under componentwise order, so a branch stops as
    soon as it enters the ideal; every generator is tested, minimal or not.
    An ideal with no generator supported inside the support of some
    generator image has an infinite quotient and raises NotPrimary; the
    search counts the semigroup the generators generate, which is the
    lattice-point count only for normal inputs.
    """
    gens = [vscale(q, g) for g in generators]
    for g in emb.image_generators:
        if not any(all(g[j] for j, x in enumerate(f) if x) for f in gens):
            raise NotPrimary(f"nothing in the ideal along {g}")

    def in_ideal(u):
        return any(all(a >= b for a, b in zip(u, f)) for f in gens)

    zero = (0,) * emb.num_coordinates
    if in_ideal(zero):
        return 0
    seen = {zero}
    frontier = [zero]
    while frontier:
        point = frontier.pop()
        for g in emb.image_generators:
            nxt = vadd(point, g)
            if nxt not in seen and not in_ideal(nxt):
                seen.add(nxt)
                assert len(seen) <= budget, "closure oracle out of budget"
                frontier.append(nxt)
    return len(seen)


def colength_or_not_primary(colength, emb, generators, q):
    try:
        return colength(emb, generators, q)
    except NotPrimary:
        return NotPrimary


@st.composite
def small_ideals(draw):
    """A small normal embedding, q <= 4, and the generators of an ideal: the
    minimal generators of a not-dividing ideal, explicit semigroup elements
    (not minimalized), or both."""
    emb = emb_of(draw(st.sampled_from(SMALL_NORMAL)))
    n = emb.num_coordinates
    images = emb.image_generators
    generators = []
    if draw(st.booleans()):
        mu = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
        ideal = MonomialIdeal.not_dividing(mu, draw(st.integers(1, 2)))
        generators += ideal.minimal_generators(emb)
    if not generators or draw(st.booleans()):
        combos = st.lists(st.integers(0, 2), min_size=len(images), max_size=len(images))
        vectors = []
        for combo in draw(st.lists(combos, max_size=3)):
            u = (0,) * n
            for c, g in zip(combo, images):
                u = vadd(u, vscale(c, g))
            vectors.append(u)
        if draw(st.booleans()):  # a power of every generator makes it primary
            vectors += [vscale(draw(st.integers(1, 3)), g) for g in images]
        generators += vectors
    return emb, generators, draw(st.integers(1, 4))


@st.composite
def small_presentations(draw):
    """Ambient rank 2 or 3, at most 6 generators with entries <= 3, normal or not."""
    r = draw(st.integers(2, 3))
    vectors = st.tuples(*[st.integers(0, 3)] * r).filter(any)
    return SemigroupPresentation(r, draw(st.lists(vectors, min_size=1, max_size=6, unique=True)))


class TestCountAq:
    def test_free_plane(self):
        assert count_aq(emb_of(FREE2), 3).a_q == 9

    def test_veronese_22(self):
        # even-sum points of {0,1,2}^2: (0,0),(0,2),(2,0),(2,2),(1,1)
        got = count_aq(emb_of(veronese_generators(2, 2)), 3)
        assert got.a_q == 5
        assert got.ratio == Fraction(5, 9)

    def test_segre_22(self):
        # sum of squared level counts (1,2,3,2,1) over balanced bidegrees
        assert count_aq(emb_of(segre_generators(2, 2)), 3).a_q == 19

    def test_a1_is_one(self):
        for p in (FREE1, FREE2, veronese_generators(3, 2), segre_generators(2, 2)):
            assert count_aq(emb_of(p), 1).a_q == 1

    def test_aq_at_most_q_to_rank(self):
        for p in (FREE2, veronese_generators(2, 3), segre_generators(2, 2)):
            emb = emb_of(p)
            for q in range(1, 6):
                assert count_aq(emb, q).a_q <= q**emb.rank

    def test_bad_q_rejected(self):
        with pytest.raises(ValueError):
            count_aq(emb_of(FREE2), 0)


class TestBruteForceAq:
    def test_free_plane(self):
        assert brute_force_aq(FREE2, 2) == 4

    def test_segre_22(self):
        # monomials 1, the four x_i y_j, and x1 x2 y1 y2
        assert brute_force_aq(segre_generators(2, 2), 2) == 6

    def test_veronese_22(self):
        assert brute_force_aq(veronese_generators(2, 2), 3) == 5

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceeded) as caught:
            brute_force_aq(FREE2, 64, budget=10)
        assert caught.value.reached == 11
        assert "reached 11 points" in str(caught.value)

    def test_agrees_with_lattice_count(self):
        for p in (FREE2, veronese_generators(2, 2), segre_generators(2, 2)):
            emb = emb_of(p)
            for q in range(1, 5):
                assert brute_force_aq(p, q) == count_aq(emb, q).a_q

    @settings(max_examples=60, deadline=None, database=None)
    @given(small_presentations(), st.sampled_from((1, 2, 3, 4, 7, 8, 9, 15, 16, 17)))
    # each has a generator image with an entry >= q
    @example(veronese_generators(2, 2), 2)
    @example(veronese_generators(3, 2), 1)
    @example(segre_generators(2, 2), 1)
    @example(NON_NORMAL, 2)
    @example(NEGATIVE_LAST_ROW, 3)
    @example(NEGATIVE_LAST_ROW, 4)
    def test_packed_closure_matches_tuple_closure(self, presentation, q):
        # q at both ends of the field widths 3 to 5 bits (q.bit_length() + 1), and past them
        assert brute_force_aq(presentation, q) == closure_aq(presentation, q)

    def test_closure_walks_no_lattice(self, monkeypatch):
        expected = [closure_aq(p, 5) for p in (segre_generators(2, 2), NON_NORMAL)]

        def refuse(*args, **kwargs):
            raise AssertionError("the closure oracle walked the lattice")

        for module in (exact, frobenius):
            for name in ("count_lattice_points", "_lattice_runs", "lattice_points_in_box"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        assert [brute_force_aq(p, 5) for p in (segre_generators(2, 2), NON_NORMAL)] == expected


class TestSocleWitness:
    @pytest.mark.parametrize(
        "presentation, mu",
        [
            (FREE2, (1, 1)),
            (veronese_generators(3, 2), (9, 8, 7)),
            (segre_generators(2, 2), (5, 5, 4, 4)),
            (segre_generators(2, 3), (11, 7, 7, 6, 9)),
        ],
        ids=["free(2)", "veronese(3,2)", "segre(2,2)", "segre(2,3)"],
    )
    def test_free_plane_frozen(self, presentation, mu):
        assert socle_witness(emb_of(presentation)) == mu

    @settings(max_examples=100, deadline=None, database=None)
    @given(small_presentations())
    @example(FREE2)
    @example(veronese_generators(2, 2))
    @example(segre_generators(2, 2))
    @example(veronese_generators(3, 2))
    @example(SemigroupPresentation(2, ((2, 0), (0, 1), (1, 1))))
    @example(SemigroupPresentation(2, ((1, 1),)))
    def test_certificate_relations(self, presentation):
        # the colength identity needs mu > 0 and t*mu - v in the semigroup,
        # with i-th entry t*mu_i + 1, for the certificate v of every coordinate i
        emb = full_embedding(build_context(presentation))
        mu = socle_witness(emb)
        assert min(mu) >= 1
        for i in range(emb.num_coordinates):
            v = fraction_field_witness(emb, i)
            for t in (1, 2, 3):
                u = vsub(vscale(t, mu), v)
                assert all(x >= 0 for x in u)
                assert u[i] == t * mu[i] + 1
                assert express_in_basis(u, emb.image_lattice) is not None

    def test_veronese_witness_in_even_lattice(self):
        mu = socle_witness(emb_of(veronese_generators(2, 2)))
        assert mu == (3, 3)
        assert sum(mu) % 2 == 0


class TestMonomialIdeal:
    def test_one_variable_minimal_generators(self):
        emb = emb_of(FREE1)
        mu = socle_witness(emb)
        assert mu == (1,)
        for t in (1, 2, 3):
            ideal = MonomialIdeal.not_dividing(mu, t)
            assert ideal.minimal_generators(emb) == ((t + 1,),)

    @pytest.mark.parametrize("t", [1, 2])
    @pytest.mark.parametrize(
        "presentation",
        [
            FREE2,
            veronese_generators(2, 2),
            veronese_generators(3, 2),
            veronese_generators(2, 4),
            segre_generators(2, 2),
            segre_generators(2, 3),
            NON_NORMAL,
        ],
        ids=lambda p: p.name,
    )
    def test_skipped_box_points_leave_the_minimal_generators(self, presentation, t):
        # every point of the search box outside [0, t*mu], none skipped
        emb = emb_of(presentation)
        mu = socle_witness(emb)
        tmu = vscale(t, mu)
        gamma = [max(column) for column in zip(*emb.image_generators)]
        candidates = [
            u
            for u in lattice_points_in_box(emb.image_lattice, vadd(tmu, gamma))
            if any(u) and not all(map(le, u, tmu))
        ]
        expected = minimal_elements(candidates)
        assert MonomialIdeal.not_dividing(mu, t).minimal_generators(emb) == expected

    @settings(max_examples=60, deadline=None, database=None)
    @given(small_presentations(), st.integers(1, 3))
    @example(FREE1, 3)  # largest bound 4
    @example(veronese_generators(2, 2), 2)  # largest bound 8
    @example(segre_generators(2, 2), 3)  # largest bound 16
    @example(NON_NORMAL, 1)
    @example(NEGATIVE_LAST_ROW, 1)  # largest bound 32
    def test_packed_search_matches_tuple_search(self, presentation, t):
        # the tuple search: box points, the same two filters, minimal elements
        emb = emb_of(presentation)
        mu = socle_witness(emb)
        tmu, images = vscale(t, mu), emb.image_generators
        box = vadd(tmu, [max(column) for column in zip(*images)])
        assume(count_lattice_points(emb.image_lattice, box) <= 5_000)  # bounds the reference
        candidates = [
            u
            for u in lattice_points_in_box(emb.image_lattice, box)
            if not all(map(le, u, tmu))
            and all(not all(map(le, g, u)) or all(map(le, u, vadd(tmu, g))) for g in images)
        ]
        expected = minimal_elements(candidates)
        assert MonomialIdeal.not_dividing(mu, t).minimal_generators(emb) == expected

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MonomialIdeal.not_dividing((1, 1), 0)
        with pytest.raises(ValueError):
            MonomialIdeal.not_dividing((0, 1), 1)


class TestHkColength:
    def test_one_variable_closed_forms(self):
        # not dividing mu^t is the ideal (x^(t+1)): colengths q(t+1) and q
        emb = emb_of(FREE1)
        mu = socle_witness(emb)
        gens = MonomialIdeal.not_dividing(mu, 1).minimal_generators(emb)
        for q in range(1, 6):
            assert hk_colength(emb, gens, q) == 2 * q
            assert hk_colength(emb, [*gens, mu], q) == q

    def test_veronese_difference_is_a3(self):
        emb = emb_of(veronese_generators(2, 2))
        mu = socle_witness(emb)
        gens = MonomialIdeal.not_dividing(mu, 1).minimal_generators(emb)
        diff = hk_colength(emb, gens, 3) - hk_colength(emb, [*gens, mu], 3)
        assert diff == 5 == count_aq(emb, 3).a_q

    def test_segre_difference_is_a2(self):
        emb = emb_of(segre_generators(2, 2))
        mu = socle_witness(emb)
        gens = MonomialIdeal.not_dividing(mu, 1).minimal_generators(emb)
        diff = hk_colength(emb, gens, 2) - hk_colength(emb, [*gens, mu], 2)
        assert diff == 6 == count_aq(emb, 2).a_q

    def test_non_primary_ideal_detected(self):
        emb = emb_of(FREE2)
        with pytest.raises(NotPrimary):
            hk_colength(emb, [(1, 0)], 2)  # misses the y-axis

    def test_oversized_quotient_hits_budget(self):
        emb = emb_of(FREE2)
        with pytest.raises(BudgetExceeded) as caught:
            hk_colength(emb, [(40, 0), (0, 40)], 2, budget=50)
        # the counter stops after the first run of the last coefficient
        # that carries it past the budget: rows of 80 points each
        assert caught.value.reached == 80
        assert "reached 80 points" in str(caught.value)

    def test_small_colength_of_the_maximal_ideal(self):
        emb = emb_of(FREE1)
        assert hk_colength(emb, [(1,)], 5) == 5

    @pytest.mark.parametrize("q", [2**31 + 1, 2**32 + 3])
    def test_coordinates_past_32_bits_hit_budget(self, q):
        # the colength is q; fixed 32-bit packing fields once returned 0 and 3
        emb = emb_of(FREE1)
        with pytest.raises(BudgetExceeded):
            hk_colength(emb, [(1,)], q, budget=1000)

    def test_unit_ideal_has_colength_zero(self):
        for p in (FREE1, FREE2, segre_generators(2, 2), veronese_generators(3, 2)):
            emb = emb_of(p)
            assert hk_colength(emb, [(0,) * emb.num_coordinates], 3) == 0

    def test_zero_ideal_is_not_primary(self):
        with pytest.raises(NotPrimary):
            hk_colength(emb_of(FREE2), [], 2)

    def test_non_normal_input_counts_in_the_normalization(self):
        # (1, 0) is in the normalization N^2 but not in the semigroup: the
        # closure from 0 counts the semigroup, the lattice count (like
        # count_aq and f_signature) the normalization
        emb = emb_of(SemigroupPresentation(2, ((2, 0), (0, 1), (1, 1))))
        identity = hk_difference_identity(emb, 1, 3)
        assert identity[3:] == ((2, 4), 135, 126)
        gens = MonomialIdeal.not_dividing(identity.mu, 1).minimal_generators(emb)
        assert closure_colength(emb, gens, 3) == 128
        assert closure_colength(emb, [*gens, identity.mu], 3) == 119
        assert identity.lhs == 135 - 126 == count_aq(emb, 3).a_q == identity.rhs

    @pytest.mark.parametrize(
        "presentation", [segre_generators(2, 2), veronese_generators(3, 2)], ids=lambda p: p.name
    )
    def test_both_colengths_match_enumeration(self, presentation, monkeypatch):
        # recount the box and Frobenius generators each colength was counted
        # over by enumerating the box, a route that avoids count_lattice_points
        counted = []

        def recording(basis, bounds, avoid=(), limit=None):
            counted.append(counted_by_enumeration(basis, bounds, avoid))
            return count_lattice_points(basis, bounds, avoid, limit)

        emb = emb_of(presentation)
        monkeypatch.setattr(frobenius, "count_lattice_points", recording)
        identity = hk_difference_identity(emb, 1, 3)
        # the two colengths, then count_aq's box
        assert counted == [identity.not_dividing, identity.with_witness, identity.rhs]

    def test_the_identity_counts_through_hk_colength(self, monkeypatch):
        # both colengths go through the public function, so a wrapper over
        # it (as the benchmark's tracer installs) sees every colength counted
        returned = []

        def recording(*args, **kwargs):
            returned.append(hk_colength(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(frobenius, "hk_colength", recording)
        identity = hk_difference_identity(emb_of(segre_generators(2, 2)), 1, 3)
        assert returned == [identity.not_dividing, identity.with_witness]

    @settings(max_examples=80, deadline=None, database=None)
    @given(small_ideals())
    def test_matches_closure_oracle(self, case):
        emb, generators, q = case
        got = colength_or_not_primary(hk_colength, emb, generators, q)
        assert got == colength_or_not_primary(closure_colength, emb, generators, q)


class TestDifferenceIdentity:
    def test_free_plane(self):
        assert hk_difference_identity(emb_of(FREE2), 1, 2)[:3] == (4, 4, True)

    def test_veronese_all_t(self):
        emb = emb_of(veronese_generators(2, 2))
        for t in (1, 2):
            res = hk_difference_identity(emb, t, 3)
            assert res.equal and res.rhs == 5

    def test_segre(self):
        res = hk_difference_identity(emb_of(segre_generators(2, 2)), 1, 3)
        assert res.equal and res.rhs == 19

    def test_segre_23_colengths(self):
        # many Frobenius generators live at the last level at once; both
        # colengths are the ones counted before the counter kept fronts
        res = hk_difference_identity(emb_of(segre_generators(2, 3)), 1, 3)
        assert (res.not_dividing, res.with_witness) == (285_101, 285_056)
        assert res.lhs == res.rhs == segre_aq_closed_form(2, 3, 3) == 45

    def test_bad_parameters(self):
        emb = emb_of(FREE2)
        with pytest.raises(ValueError):
            hk_difference_identity(emb, 0, 2)


class TestAqTable:
    def test_segre_table(self):
        emb = emb_of(segre_generators(2, 2))
        rows = [count_aq(emb, q) for q in (2, 3)]
        assert [(r.q, r.a_q, r.ratio) for r in rows] == [
            (2, 6, Fraction(3, 4)),
            (3, 19, Fraction(19, 27)),
        ]

    def test_free_line_ratios_are_one(self):
        assert all(count_aq(emb_of(FREE1), q).ratio == 1 for q in (1, 2, 3))

    def test_veronese_table(self):
        emb = emb_of(veronese_generators(2, 2))
        rows = [count_aq(emb, q) for q in (2, 4)]
        assert [(r.q, r.a_q, r.ratio) for r in rows] == [
            (2, 2, Fraction(1, 2)),
            (4, 8, Fraction(1, 2)),
        ]


class TestSuperadditivity:
    def test_products_dominate_on_builtins(self):
        # a_{q1 q2} >= a_{q1} a_{q2}; a test-suite conjecture, not asserted
        # anywhere in the library itself
        for p in (FREE2, veronese_generators(2, 2), segre_generators(2, 2)):
            emb = emb_of(p)
            counts = {q: count_aq(emb, q).a_q for q in range(1, 10)}
            for q1 in (2, 3):
                for q2 in (2, 3):
                    assert counts[q1 * q2] >= counts[q1] * counts[q2]
